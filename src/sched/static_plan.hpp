// Shared core of the static list planners (HEFT, CPOP, PEFT). A planner
// only ranks the tasks and chooses (device, start, exec) for each one
// through a PlanBuilder; this base owns the rest: the plan table, the
// per-device sequences, and the release of ready tasks in plan order.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/graph_utils.hpp"

namespace hetflow::sched {

/// A static plan under construction: each placed task's device and
/// planned finish, plus a per-device timeline of booked slots for
/// insertion-based EFT placement.
class PlanBuilder {
 public:
  /// One task's placement: `device` runs it for [start, start + exec).
  struct Choice {
    const hw::Device* device = nullptr;
    double start = 0.0;
    double exec = 0.0;
  };

  PlanBuilder(const hw::Platform& platform, const TaskGraphView& view);

  /// Earliest start of task `i` on `device` for `exec` seconds: once
  /// every placed parent's output has arrived (its planned finish, plus
  /// the transfer when it ran on another memory node), in the earliest
  /// gap of the device's timeline that fits. Does not book.
  double earliest_start(std::size_t i, const hw::Device& device,
                        double exec) const;
  /// Insertion-based EFT: among the devices that run task `i`, the one
  /// where it finishes first (the first such device on ties). `device`
  /// is null when no device runs the task.
  Choice earliest_finish(std::size_t i, const core::SchedContext& ctx) const;
  /// Books task `i` as `choice` says.
  void place(std::size_t i, const Choice& choice);

 private:
  friend class StaticPlanScheduler;
  struct Slot {
    double start;
    double end;
  };

  const hw::Platform& platform_;
  const TaskGraphView& view_;
  std::vector<std::vector<Slot>> slots_;  ///< per device, sorted by start
  std::vector<double> finish_;            ///< per task index
  std::vector<hw::DeviceId> placed_;      ///< per task index
};

class StaticPlanScheduler : public core::Scheduler {
 public:
  bool requires_full_graph() const noexcept final { return true; }
  void set_partial_graph(bool partial) noexcept final {
    partial_graph_ = partial;
  }

  void prepare(const std::vector<core::Task*>& all_tasks) final;
  void on_task_ready(core::Task& task) final;

  /// Planned device for a task (exposed for tests). Only valid after
  /// prepare().
  hw::DeviceId planned_device(core::TaskId id) const;
  /// Schedule-estimated makespan of the static plan.
  double planned_makespan() const noexcept { return planned_makespan_; }

 protected:
  /// Ranks the tasks of `view` (recording each one's priority) and
  /// places every task through `plan`, each after all of its parents.
  virtual void plan(const TaskGraphView& view, PlanBuilder& plan) = 0;

 private:
  std::unordered_map<core::TaskId, hw::DeviceId> planned_device_;
  // Per device: planned task sequence (by planned finish) and release
  // cursor.
  std::vector<std::vector<core::Task*>> device_sequence_;
  std::vector<std::size_t> next_to_release_;
  std::unordered_map<core::TaskId, bool> ready_held_;
  double planned_makespan_ = 0.0;
  bool partial_graph_ = false;  ///< see core::Scheduler::set_partial_graph

  void release_available(hw::DeviceId device);
};

}  // namespace hetflow::sched
