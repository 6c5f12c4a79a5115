// Shared graph view for the policies that rank the whole DAG (the
// static planners HEFT, CPOP and PEFT, plus dmdas and critical-path).
// Dependencies are inferred from submission order, so the open tasks in
// ascending id order are already topological: the view keeps that order
// as its positions, stores both edge directions as compressed rows over
// them and computes each rank in one sweep, with no sort or hash lookup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scheduler.hpp"

namespace hetflow::sched {

class TaskGraphView {
 public:
  /// The task at the other end of a dependency edge (its position) and
  /// the bytes of the handles the parent writes and the child reads.
  struct Edge {
    std::size_t task;
    std::uint64_t bytes;
  };

  /// Builds the view over `tasks`, which must be in ascending id order
  /// (InternalError otherwise). Dependencies to tasks outside the set —
  /// completed in earlier waves, or on another node's slice — are
  /// ignored.
  static TaskGraphView build(const core::SchedContext& ctx,
                             const std::vector<core::Task*>& tasks);

  const std::vector<core::Task*>& tasks() const noexcept { return tasks_; }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Parents of position `i` (all below `i`), in dependency order.
  std::span<const Edge> predecessors(std::size_t i) const noexcept {
    return {preds_.data() + pred_first_[i], preds_.data() + pred_first_[i + 1]};
  }
  /// Children of position `i` (all above `i`), ascending.
  std::span<const Edge> successors(std::size_t i) const noexcept {
    return {succs_.data() + succ_first_[i], succs_.data() + succ_first_[i + 1]};
  }

  /// HEFT upward ranks using mean exec + mean communication costs.
  std::vector<double> upward_ranks(const hw::Platform& platform) const;
  /// Downward ranks (CPOP needs rank_u + rank_d).
  std::vector<double> downward_ranks(const hw::Platform& platform) const;

 private:
  std::vector<core::Task*> tasks_;
  std::vector<std::size_t> pred_first_;  ///< row starts into preds_, n + 1
  std::vector<Edge> preds_;
  std::vector<std::size_t> succ_first_;  ///< row starts into succs_, n + 1
  std::vector<Edge> succs_;
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
