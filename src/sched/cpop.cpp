#include "sched/cpop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hetflow::sched {

void CpopScheduler::plan(const TaskGraphView& view, PlanBuilder& plan) {
  const hw::Platform& platform = ctx().platform();
  const std::vector<core::Task*>& all_tasks = view.tasks();
  cp_device_ = 0;
  cp_size_ = 0;
  const std::vector<double> up = view.upward_ranks(platform);
  const std::vector<double> down = view.downward_ranks(platform);

  std::vector<double> priority(view.size());
  double cp_priority = 0.0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    priority[i] = up[i] + down[i];
    all_tasks[i]->set_priority(priority[i]);
    cp_priority = std::max(cp_priority, priority[i]);
  }

  // Critical path: ONE source-to-sink path of maximum priority. Walking
  // greedily (highest-priority successor, smallest id on ties) rather
  // than taking every tied task matters for workflows with identical
  // parallel branches — pinning all tied branches to one device would
  // serialize the whole graph.
  std::vector<bool> on_cp(view.size(), false);
  {
    // Positions ascend by task id, so the first match has the smallest.
    std::size_t entry = view.size();
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (view.predecessors(i).empty() &&
          priority[i] >= cp_priority * (1.0 - 1e-9)) {
        entry = i;
        break;
      }
    }
    for (std::size_t node = entry; node != view.size();) {
      on_cp[node] = true;
      ++cp_size_;
      std::size_t next = view.size();
      // Children ascend by id: a tie keeps the earlier one.
      for (const TaskGraphView::Edge& succ : view.successors(node)) {
        if (next == view.size() || priority[succ.task] > priority[next]) {
          next = succ.task;
        }
      }
      node = next;
    }
  }

  // Critical-path processor: device minimizing the summed execution time
  // of the CP tasks (must support all of them).
  double best_total = std::numeric_limits<double>::infinity();
  for (const hw::Device& device : platform.devices()) {
    double total = 0.0;
    bool feasible = true;
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (!on_cp[i]) {
        continue;
      }
      const double est = ctx().estimate_exec_seconds(*all_tasks[i], device);
      if (!std::isfinite(est)) {
        feasible = false;
        break;
      }
      total += est;
    }
    if (feasible && total < best_total) {
      best_total = total;
      cp_device_ = device.id();
    }
  }
  if (!std::isfinite(best_total)) {
    // No single device runs the whole CP (mixed-support kinds): fall back
    // to per-task EFT for everyone.
    std::fill(on_cp.begin(), on_cp.end(), false);
    cp_size_ = 0;
  }

  // Placement in view order (parents first) with insertion EFT; CP tasks
  // pinned to the CP device.
  for (std::size_t i = 0; i < view.size(); ++i) {
    PlanBuilder::Choice choice;
    if (on_cp[i]) {
      const hw::Device& device = platform.device(cp_device_);
      const double exec = ctx().estimate_exec_seconds(*all_tasks[i], device);
      choice = {&device, plan.earliest_start(i, device, exec), exec};
    } else {
      choice = plan.earliest_finish(i, ctx());
    }
    HETFLOW_REQUIRE_MSG(choice.device != nullptr, "cpop: no eligible device");
    plan.place(i, choice);
  }
}

}  // namespace hetflow::sched
