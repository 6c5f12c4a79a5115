// Test oracle for the race detector in check/race.cpp.
//
// reference_races is the detector check_races replaced: a dense
// transitive-closure bitset over the dependency edges (one row of
// task-count bits per task, filled in Kahn order) and a loop over every
// pair of uses of each handle. It needs O(tasks^2) memory and
// O(uses^2) time per handle, so tests feed it small records only. It
// reports the same violations as check_races, with the same messages,
// in its own order; tests compare the two as multisets.
//
// Self edges are left out of the closure, as they were when this was
// the detector, so records with a task that depends on itself are not
// a fair comparison (check_races reports those as cycles).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "check/record.hpp"
#include "check/violation.hpp"
#include "util/strings.hpp"

namespace hetflow::testing {

/// Reachability bitsets: bit `a` of row `d` is set when a dependency
/// path leads from task index `a` to task index `d`. Tasks on or behind
/// a cycle never pass their row on, so their descendants see only the
/// acyclic part.
class ReferenceClosure {
 public:
  ReferenceClosure(const check::RunRecord& run,
                   const std::unordered_map<std::uint64_t, std::size_t>& index)
      : count_(run.tasks.size()),
        words_((count_ + 63) / 64),
        reach_(count_ * words_, 0) {
    std::vector<std::size_t> indegree(count_, 0);
    std::vector<std::vector<std::size_t>> children(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      for (std::uint64_t dep : run.tasks[i].dependencies) {
        const auto it = index.find(dep);
        if (it == index.end() || it->second == i) {
          continue;
        }
        children[it->second].push_back(i);
        ++indegree[i];
      }
    }
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < count_; ++i) {
      if (indegree[i] == 0) {
        frontier.push_back(i);
      }
    }
    std::size_t visited = 0;
    while (!frontier.empty()) {
      const std::size_t parent = frontier.back();
      frontier.pop_back();
      ++visited;
      const std::uint64_t* parent_row = reach_.data() + parent * words_;
      for (std::size_t child : children[parent]) {
        std::uint64_t* child_row = reach_.data() + child * words_;
        for (std::size_t w = 0; w < words_; ++w) {
          child_row[w] |= parent_row[w];
        }
        child_row[parent / 64] |= std::uint64_t{1} << (parent % 64);
        if (--indegree[child] == 0) {
          frontier.push_back(child);
        }
      }
    }
    has_cycle_ = visited != count_;
  }

  bool has_cycle() const { return has_cycle_; }

  bool reaches(std::size_t ancestor, std::size_t descendant) const {
    return (reach_[descendant * words_ + ancestor / 64] >> (ancestor % 64)) &
           1U;
  }

  bool ordered(std::size_t a, std::size_t b) const {
    return reaches(a, b) || reaches(b, a);
  }

 private:
  std::size_t count_;
  std::size_t words_;
  std::vector<std::uint64_t> reach_;
  bool has_cycle_ = false;
};

/// check_races as an all-pairs loop over the closure above.
/// `pairs_checked` receives every conflicting pair of uses by distinct
/// tasks, overlapping or not.
inline std::vector<check::Violation> reference_races(
    const check::RunRecord& run, std::size_t* pairs_checked = nullptr) {
  using check::TaskRecord;
  using check::Violation;
  using check::ViolationKind;
  constexpr double kEps = 1e-9;
  std::vector<Violation> out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < run.tasks.size(); ++i) {
    index.emplace(run.tasks[i].id, i);
  }

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
      if (index.find(dep) == index.end()) {
        out.push_back(
            {ViolationKind::DanglingReference,
             util::format("task '%s' (#%llu) depends on unknown task #%llu",
                          task.name.c_str(),
                          static_cast<unsigned long long>(task.id),
                          static_cast<unsigned long long>(dep)),
             task.id, dep, Violation::npos, Violation::npos});
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

  const ReferenceClosure hb(run, index);
  if (hb.has_cycle()) {
    out.push_back({ViolationKind::Cycle,
                   "task dependency graph contains a cycle", Violation::npos,
                   Violation::npos, Violation::npos, Violation::npos});
  }

  for (const TaskRecord& child : run.tasks) {
    if (!child.completed) {
      continue;
    }
    for (std::uint64_t dep : child.dependencies) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        continue;
      }
      const TaskRecord& parent = run.tasks[it->second];
      if (parent.completed && child.start < parent.end - kEps) {
        out.push_back(
            {ViolationKind::DependencyViolation,
             util::format(
                 "task '%s' (#%llu) started at %.9g before its dependency "
                 "'%s' (#%llu) finished at %.9g",
                 child.name.c_str(), static_cast<unsigned long long>(child.id),
                 child.start, parent.name.c_str(),
                 static_cast<unsigned long long>(parent.id), parent.end),
             parent.id, child.id, Violation::npos, Violation::npos});
      }
    }
  }

  const auto conflicting = [](data::AccessMode a, data::AccessMode b) {
    if (data::is_redux(a) && data::is_redux(b)) {
      return false;
    }
    return !(a == data::AccessMode::Read && b == data::AccessMode::Read);
  };
  const auto conflict_name = [](data::AccessMode first,
                                data::AccessMode second) {
    const bool first_writes = data::is_write(first) || data::is_redux(first);
    const bool second_writes =
        data::is_write(second) || data::is_redux(second);
    if (first_writes && second_writes) {
      return "WAW";
    }
    return first_writes ? "RAW" : "WAR";
  };
  std::vector<std::vector<std::pair<std::size_t, data::AccessMode>>> by_handle(
      run.handle_count());
  for (std::size_t i = 0; i < run.tasks.size(); ++i) {
    const TaskRecord& task = run.tasks[i];
    if (!task.completed) {
      continue;
    }
    for (const data::Access& access : task.accesses) {
      if (access.data < run.handle_count()) {
        by_handle[access.data].push_back({i, access.mode});
      }
    }
  }
  std::size_t pairs = 0;
  for (std::size_t handle = 0; handle < by_handle.size(); ++handle) {
    const auto& uses = by_handle[handle];
    for (std::size_t x = 0; x < uses.size(); ++x) {
      for (std::size_t y = x + 1; y < uses.size(); ++y) {
        if (uses[x].first == uses[y].first ||
            !conflicting(uses[x].second, uses[y].second)) {
          continue;
        }
        ++pairs;
        const TaskRecord& a = run.tasks[uses[x].first];
        const TaskRecord& b = run.tasks[uses[y].first];
        if (std::min(a.end, b.end) - std::max(a.start, b.start) <= kEps) {
          continue;
        }
        const bool a_first = a.start <= b.start;
        const TaskRecord& first = a_first ? a : b;
        const TaskRecord& second = a_first ? b : a;
        const data::AccessMode first_mode =
            a_first ? uses[x].second : uses[y].second;
        const data::AccessMode second_mode =
            a_first ? uses[y].second : uses[x].second;
        const ViolationKind kind =
            hb.ordered(uses[x].first, uses[y].first)
                ? ViolationKind::DependencyViolation
                : ViolationKind::ConflictingOverlap;
        out.push_back(
            {kind,
             util::format(
                 "%s race on handle %zu: '%s' (#%llu, %s, [%.9g, %.9g]) "
                 "overlaps '%s' (#%llu, %s, [%.9g, %.9g])%s",
                 conflict_name(first_mode, second_mode), handle,
                 first.name.c_str(),
                 static_cast<unsigned long long>(first.id),
                 data::to_string(first_mode), first.start, first.end,
                 second.name.c_str(),
                 static_cast<unsigned long long>(second.id),
                 data::to_string(second_mode), second.start, second.end,
                 kind == ViolationKind::DependencyViolation
                     ? " despite an ordering edge"
                     : " with no ordering edge"),
             first.id, second.id, handle, Violation::npos});
      }
    }
  }
  if (pairs_checked != nullptr) {
    *pairs_checked = pairs;
  }
  return out;
}

}  // namespace hetflow::testing
