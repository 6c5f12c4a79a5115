// Shared graph view for the policies that rank the whole DAG (the
// static planners HEFT, CPOP and PEFT, plus dmdas and critical-path): a
// dense-index view of the open task graph with edge byte counts and
// per-task mean execution costs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "util/graph.hpp"

namespace hetflow::sched {

class TaskGraphView {
 public:
  /// Builds the view over `tasks` (dependencies to tasks outside the set
  /// — already completed in earlier waves — are ignored).
  static TaskGraphView build(const core::SchedContext& ctx,
                             const std::vector<core::Task*>& tasks);

  const std::vector<core::Task*>& tasks() const noexcept { return tasks_; }
  const util::Digraph& graph() const noexcept { return graph_; }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Bytes flowing over dependency edge a -> b (0 if none recorded).
  std::uint64_t edge_bytes(std::size_t a, std::size_t b) const;

  /// HEFT upward ranks using mean exec + mean communication costs.
  std::vector<double> upward_ranks(const hw::Platform& platform) const;
  /// Downward ranks (CPOP needs rank_u + rank_d).
  std::vector<double> downward_ranks(const hw::Platform& platform) const;

 private:
  static std::uint64_t key(std::size_t a, std::size_t b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::vector<core::Task*> tasks_;
  util::Digraph graph_;
  std::unordered_map<std::uint64_t, std::uint64_t> edge_bytes_;
  std::vector<double> mean_exec_;
};

/// Sets each of `tasks`' priority to its upward rank, the order in which
/// dmdas commits and critical-path hands out ready tasks.
void prioritize_by_upward_rank(const core::SchedContext& ctx,
                               const std::vector<core::Task*>& tasks);

/// std::priority_queue order for those tasks: the top is the highest
/// priority, ties to the lowest task id.
struct LowerRank {
  bool operator()(const core::Task* a, const core::Task* b) const {
    if (a->priority() != b->priority()) {
      return a->priority() < b->priority();
    }
    return a->id() > b->id();
  }
};

}  // namespace hetflow::sched
