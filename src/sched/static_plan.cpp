#include "sched/static_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace hetflow::sched {

PlanBuilder::PlanBuilder(const hw::Platform& platform,
                         const TaskGraphView& view)
    : platform_(platform),
      view_(view),
      slots_(platform.device_count()),
      finish_(view.size(), 0.0),
      placed_(view.size(), 0) {}

double PlanBuilder::earliest_start(std::size_t i, const hw::Device& device,
                                   double exec) const {
  double ready = 0.0;
  for (const TaskGraphView::Edge& parent : view_.predecessors(i)) {
    double arrival = finish_[parent.task];
    const hw::MemoryNodeId src =
        platform_.device(placed_[parent.task]).memory_node();
    if (src != device.memory_node()) {
      arrival += platform_.transfer_time_s(src, device.memory_node(),
                                           parent.bytes);
    }
    ready = std::max(ready, arrival);
  }
  const std::vector<Slot>& slots = slots_[device.id()];
  // Slots are sorted and non-overlapping, so their end times are ordered
  // too; skip straight past every slot that ends at or before `ready` —
  // none of them can host or constrain a fit that starts at >= ready.
  // (A zero-length slot exactly at `ready` is skipped as well: the scan
  // below then finds the same gap at `ready` the full scan would.)
  // Without the skip, a plan-time loop over N tasks goes quadratic: the
  // planners probe every device timeline once per task, and each probe
  // walked the whole booked prefix.
  auto it = std::partition_point(
      slots.begin(), slots.end(),
      [ready](const Slot& slot) { return slot.end <= ready; });
  double cursor = ready;
  for (; it != slots.end(); ++it) {
    if (cursor + exec <= it->start) {
      return cursor;
    }
    cursor = std::max(cursor, it->end);
  }
  return cursor;
}

PlanBuilder::Choice PlanBuilder::earliest_finish(
    std::size_t i, const core::SchedContext& ctx) const {
  Choice best;
  double best_eft = std::numeric_limits<double>::infinity();
  for (const hw::Device& device : platform_.devices()) {
    const double exec = ctx.estimate_exec_seconds(*view_.tasks()[i], device);
    if (!std::isfinite(exec)) {
      continue;
    }
    const double start = earliest_start(i, device, exec);
    if (start + exec < best_eft) {
      best_eft = start + exec;
      best = {&device, start, exec};
    }
  }
  return best;
}

void PlanBuilder::place(std::size_t i, const Choice& choice) {
  std::vector<Slot>& slots = slots_[choice.device->id()];
  const Slot inserted{choice.start, choice.start + choice.exec};
  slots.insert(
      std::upper_bound(slots.begin(), slots.end(), inserted,
                       [](const Slot& a, const Slot& b) {
                         return a.start < b.start;
                       }),
      inserted);
  finish_[i] = inserted.end;
  placed_[i] = choice.device->id();
}

void StaticPlanScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  const hw::Platform& platform = ctx().platform();
  planned_device_.clear();
  device_sequence_.assign(platform.device_count(), {});
  next_to_release_.assign(platform.device_count(), 0);
  ready_held_.clear();
  // Size the per-task maps up front: at 10^5+ planned tasks, letting the
  // hash tables rehash their way up dominates plan time.
  planned_device_.reserve(all_tasks.size());
  ready_held_.reserve(all_tasks.size());
  planned_makespan_ = 0.0;

  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  PlanBuilder builder(platform, view);
  plan(view, builder);

  // Fix the per-device execution order by planned finish time (per-device
  // slots do not overlap, so finish order equals start order).
  std::vector<std::vector<std::pair<double, std::size_t>>> per_device(
      platform.device_count());
  for (std::size_t i = 0; i < all_tasks.size(); ++i) {
    per_device[builder.placed_[i]].push_back({builder.finish_[i], i});
    planned_makespan_ = std::max(planned_makespan_, builder.finish_[i]);
  }
  for (hw::DeviceId d = 0; d < per_device.size(); ++d) {
    std::sort(per_device[d].begin(), per_device[d].end());
    for (const auto& [finish, i] : per_device[d]) {
      planned_device_[all_tasks[i]->id()] = d;
      device_sequence_[d].push_back(all_tasks[i]);
    }
  }
}

hw::DeviceId StaticPlanScheduler::planned_device(core::TaskId id) const {
  const auto it = planned_device_.find(id);
  HETFLOW_REQUIRE_MSG(it != planned_device_.end(), "no plan for task");
  return it->second;
}

void StaticPlanScheduler::on_task_ready(core::Task& task) {
  const auto it = planned_device_.find(task.id());
  HETFLOW_REQUIRE_MSG(it != planned_device_.end(),
                      name() +
                          ": static scheduler cannot accept dynamically "
                          "submitted tasks (task ready without a plan)");
  ready_held_[task.id()] = true;
  release_available(it->second);
}

void StaticPlanScheduler::release_available(hw::DeviceId device) {
  std::size_t& cursor = next_to_release_[device];
  std::vector<core::Task*>& sequence = device_sequence_[device];
  while (cursor < sequence.size()) {
    core::Task* task = sequence[cursor];
    const auto held = ready_held_.find(task->id());
    if (held == ready_held_.end()) {
      break;  // next planned task not ready yet — preserve plan order
    }
    if (held->second) {
      held->second = false;
      ctx().assign(*task, ctx().platform().device(device));
    }
    ++cursor;  // just released, or released past a blocked head earlier
  }
  if (!partial_graph_ || cursor >= sequence.size()) {
    return;
  }
  // Partial-graph mode (a per-node slice of a cluster DAG): the blocked
  // head may wait on a cross-slice parent whose release is itself queued
  // behind one of OUR held tasks — two independently planned slices can
  // order a cross-slice edge inconsistently, so holding everything
  // behind the head deadlocks the pair of plans. Release ready tasks
  // past the head in plan order instead; the head keeps its slot for
  // when it becomes ready.
  for (std::size_t j = cursor + 1; j < sequence.size(); ++j) {
    const auto held = ready_held_.find(sequence[j]->id());
    if (held != ready_held_.end() && held->second) {
      held->second = false;
      ctx().assign(*sequence[j], ctx().platform().device(device));
    }
  }
}

}  // namespace hetflow::sched
