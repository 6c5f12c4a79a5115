#include "sched/critical_path.hpp"

#include <vector>

namespace hetflow::sched {

void CriticalPathScheduler::prepare(
    const std::vector<core::Task*>& all_tasks) {
  prioritize_by_upward_rank(ctx(), all_tasks);
}

void CriticalPathScheduler::on_task_ready(core::Task& task) {
  buckets_.insert(task, ctx().platform()).push(&task);
}

core::Task* CriticalPathScheduler::on_device_idle(const hw::Device& device) {
  ReadyQueue* ready = buckets_.take(
      device, ctx().platform(), [](const ReadyQueue& a, const ReadyQueue& b) {
        return LowerRank{}(b.top(), a.top());
      });
  if (ready == nullptr) {
    return nullptr;
  }
  core::Task* chosen = ready->top();
  ready->pop();
  return chosen;
}

}  // namespace hetflow::sched
