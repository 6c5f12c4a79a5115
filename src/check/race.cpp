#include "check/race.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/strings.hpp"

namespace hetflow::check {

namespace {

/// Comparison slack for simulated timestamps (they come out of double
/// arithmetic; exact touching intervals are legal).
constexpr double kEps = 1e-9;

/// The rank of a task on or behind a cycle, which Kahn's order never
/// reaches.
constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

/// Maps task id -> index into run.tasks. Duplicate ids keep the first.
std::unordered_map<std::uint64_t, std::size_t> index_tasks(
    const RunRecord& run) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(run.tasks.size());
  for (std::size_t i = 0; i < run.tasks.size(); ++i) {
    index.emplace(run.tasks[i].id, i);
  }
  return index;
}

/// Redux contributors are unordered against each other by design; every
/// other combination with at least one writer conflicts.
bool conflicting(data::AccessMode a, data::AccessMode b) {
  if (data::is_redux(a) && data::is_redux(b)) {
    return false;
  }
  if (a == data::AccessMode::Read && b == data::AccessMode::Read) {
    return false;
  }
  return true;
}

const char* conflict_name(data::AccessMode first, data::AccessMode second) {
  const bool first_writes = data::is_write(first) || data::is_redux(first);
  const bool second_writes = data::is_write(second) || data::is_redux(second);
  if (first_writes && second_writes) {
    return "WAW";
  }
  return first_writes ? "RAW" : "WAR";
}

/// One completed task's access to a registered handle.
struct Use {
  sim::SimTime start;
  sim::SimTime end;
  std::size_t task;
  data::DataId handle;
  data::AccessMode mode;
};

}  // namespace

HappensBefore::HappensBefore(const RunRecord& run)
    : children_(run.tasks.size()),
      rank_(run.tasks.size(), kNoRank),
      seen_(run.tasks.size(), 0) {
  const std::size_t count = run.tasks.size();
  const auto index = index_tasks(run);
  std::vector<std::size_t> indegree(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint64_t dep : run.tasks[i].dependencies) {
      const auto it = index.find(dep);
      if (it != index.end()) {  // dangling edges are reported by check_races
        children_[it->second].push_back(i);
        ++indegree[i];
      }
    }
  }
  // Kahn's order: a task is ranked once all its parents are.
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < count; ++i) {
    if (indegree[i] == 0) {
      frontier.push_back(i);
    }
  }
  std::size_t ranked = 0;
  while (!frontier.empty()) {
    const std::size_t parent = frontier.back();
    frontier.pop_back();
    rank_[parent] = ranked++;
    for (std::size_t child : children_[parent]) {
      if (--indegree[child] == 0) {
        frontier.push_back(child);
      }
    }
  }
  has_cycle_ = ranked != count;
}

bool HappensBefore::reaches(std::size_t ancestor,
                            std::size_t descendant) const {
  if (rank_[ancestor] == kNoRank) {
    return false;
  }
  // Every task on a path to `descendant` ranks below it (unranked
  // descendants bound nothing).
  const std::size_t bound = rank_[descendant];
  ++query_;
  stack_.assign(1, ancestor);
  while (!stack_.empty()) {
    const std::size_t task = stack_.back();
    stack_.pop_back();
    for (std::size_t child : children_[task]) {
      if (child == descendant) {
        return true;
      }
      if (seen_[child] != query_ && rank_[child] < bound) {
        seen_[child] = query_;
        stack_.push_back(child);
      }
    }
  }
  return false;
}

std::vector<Violation> check_races(const RunRecord& run,
                                   std::size_t* uses_swept) {
  std::vector<Violation> out;
  const auto index = index_tasks(run);

  // --- dangling references; dependency edges the schedule broke ---------
  for (const TaskRecord& task : run.tasks) {
    for (const data::Access& access : task.accesses) {
      if (access.data >= run.handle_count()) {
        out.push_back(
            {ViolationKind::DanglingReference,
             util::format("task '%s' (#%llu) accesses unregistered handle %u",
                          task.name.c_str(),
                          static_cast<unsigned long long>(task.id),
                          access.data),
             task.id, Violation::npos, access.data, Violation::npos});
      }
    }
    for (std::uint64_t dep : task.dependencies) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        out.push_back(
            {ViolationKind::DanglingReference,
             util::format("task '%s' (#%llu) depends on unknown task #%llu",
                          task.name.c_str(),
                          static_cast<unsigned long long>(task.id),
                          static_cast<unsigned long long>(dep)),
             task.id, dep, Violation::npos, Violation::npos});
        continue;
      }
      const TaskRecord& parent = run.tasks[it->second];
      if (task.completed && parent.completed &&
          task.start < parent.end - kEps) {
        out.push_back(
            {ViolationKind::DependencyViolation,
             util::format(
                 "task '%s' (#%llu) started at %.9g before its dependency "
                 "'%s' (#%llu) finished at %.9g",
                 task.name.c_str(), static_cast<unsigned long long>(task.id),
                 task.start, parent.name.c_str(),
                 static_cast<unsigned long long>(parent.id), parent.end),
             parent.id, task.id, Violation::npos, Violation::npos});
      }
    }
    if (task.completed && task.device >= run.device_count) {
      out.push_back({ViolationKind::DanglingReference,
                     util::format("task '%s' (#%llu) ran on unknown device %u",
                                  task.name.c_str(),
                                  static_cast<unsigned long long>(task.id),
                                  task.device),
                     task.id, Violation::npos, Violation::npos, task.device});
    }
  }

  const HappensBefore hb(run);
  if (hb.has_cycle()) {
    out.push_back({ViolationKind::Cycle,
                   "task dependency graph contains a cycle", Violation::npos,
                   Violation::npos, Violation::npos, Violation::npos});
  }

  // --- per-handle sweep over overlapping uses ----------------------------
  // A use shorter than kEps overlaps nothing, so only longer ones take
  // part. Sorted by handle, then start (stable: ties stay in task order),
  // each use is compared with the earlier uses of its handle that are
  // still running when it starts.
  std::vector<Use> uses;
  for (std::size_t i = 0; i < run.tasks.size(); ++i) {
    const TaskRecord& task = run.tasks[i];
    if (!task.completed || !(task.end - task.start > kEps)) {
      continue;
    }
    for (const data::Access& access : task.accesses) {
      if (access.data < run.handle_count()) {
        uses.push_back({task.start, task.end, i, access.data, access.mode});
      }
    }
  }
  std::stable_sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
    return a.handle != b.handle ? a.handle < b.handle : a.start < b.start;
  });
  std::vector<const Use*> live;
  for (std::size_t u = 0; u < uses.size(); ++u) {
    const Use& use = uses[u];
    if (u == 0 || uses[u - 1].handle != use.handle) {
      live.clear();
    }
    // Drop each use that ended by the time this one starts.
    std::erase_if(live, [&use](const Use* earlier) {
      return earlier->end - use.start <= kEps;
    });
    for (const Use* earlier : live) {
      if (earlier->task == use.task || !conflicting(earlier->mode, use.mode)) {
        continue;
      }
      const TaskRecord& first = run.tasks[earlier->task];
      const TaskRecord& second = run.tasks[use.task];
      const ViolationKind kind = hb.ordered(earlier->task, use.task)
                                     ? ViolationKind::DependencyViolation
                                     : ViolationKind::ConflictingOverlap;
      out.push_back(
          {kind,
           util::format(
               "%s race on handle %zu: '%s' (#%llu, %s, [%.9g, %.9g]) "
               "overlaps '%s' (#%llu, %s, [%.9g, %.9g])%s",
               conflict_name(earlier->mode, use.mode),
               static_cast<std::size_t>(use.handle), first.name.c_str(),
               static_cast<unsigned long long>(first.id),
               data::to_string(earlier->mode), first.start, first.end,
               second.name.c_str(),
               static_cast<unsigned long long>(second.id),
               data::to_string(use.mode), second.start, second.end,
               kind == ViolationKind::DependencyViolation
                   ? " despite an ordering edge"
                   : " with no ordering edge"),
           first.id, second.id, use.handle, Violation::npos});
    }
    live.push_back(&use);
  }
  if (uses_swept != nullptr) {
    *uses_swept = uses.size();
  }
  return out;
}

}  // namespace hetflow::check
