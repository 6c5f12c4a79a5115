// dmdas (data-aware + sorted, after StarPU's dmdas): like dmda, but
// ready tasks are committed in order of their precomputed upward-rank
// priority rather than submission order, so critical-path work grabs the
// fast devices before filler does. Placement per task is dmda's rule —
// minimize estimated completion including data movement.
#pragma once

#include <queue>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/graph_utils.hpp"

namespace hetflow::sched {

class DmdasScheduler final : public core::Scheduler {
 public:
  std::string name() const override { return "dmdas"; }

  void prepare(const std::vector<core::Task*>& all_tasks) override;
  void on_task_ready(core::Task& task) override;
  core::Task* on_device_idle(const hw::Device& device) override;
  bool has_retained_work() const noexcept override { return !held_.empty(); }

 private:
  std::priority_queue<core::Task*, std::vector<core::Task*>, LowerRank>
      held_;

  void flush();
};

}  // namespace hetflow::sched
