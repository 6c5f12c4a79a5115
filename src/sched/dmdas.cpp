#include "sched/dmdas.hpp"

#include "sched/graph_utils.hpp"
#include "sched/placement.hpp"

namespace hetflow::sched {

void DmdasScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  if (all_tasks.empty()) {
    return;
  }
  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  const std::vector<double> ranks = view.upward_ranks(ctx().platform());
  for (std::size_t i = 0; i < all_tasks.size(); ++i) {
    all_tasks[i]->set_priority(ranks[i]);
  }
}

void DmdasScheduler::on_task_ready(core::Task& task) {
  held_.push(&task);
}

core::Task* DmdasScheduler::on_device_idle(const hw::Device& device) {
  (void)device;
  flush();
  return nullptr;
}

void DmdasScheduler::flush() {
  while (!held_.empty()) {
    core::Task& task = *held_.top();
    held_.pop();
    assign_min_completion(ctx(), task, "dmdas",
                          "priority order, min completion",
                          /*data_aware=*/true);
  }
}

}  // namespace hetflow::sched
