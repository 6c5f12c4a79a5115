// Critical-path priority scheduler: a dynamic list scheduler that ranks
// tasks by their HEFT-style upward rank (computed once over the whole DAG
// in prepare()) and, whenever a device idles, hands it the highest-rank
// ready task it can run. Placement is therefore pull-driven but
// criticality-ordered — between static HEFT and dynamic eager.
#pragma once

#include <queue>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/class_buckets.hpp"
#include "sched/graph_utils.hpp"

namespace hetflow::sched {

class CriticalPathScheduler final : public core::Scheduler {
 public:
  std::string name() const override { return "critical-path"; }

  void prepare(const std::vector<core::Task*>& all_tasks) override;
  void on_task_ready(core::Task& task) override;
  core::Task* on_device_idle(const hw::Device& device) override;
  bool has_retained_work() const noexcept override {
    return buckets_.size() > 0;
  }

 private:
  using ReadyQueue =
      std::priority_queue<core::Task*, std::vector<core::Task*>, LowerRank>;
  /// Ready tasks split by the classes that can run them: the
  /// highest-rank task a device can run tops one of its class's buckets.
  ClassBuckets<ReadyQueue> buckets_;
};

}  // namespace hetflow::sched
