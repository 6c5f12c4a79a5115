// dmda (deque model, data aware — after StarPU's dmda) — greedy earliest-
// completion placement where the estimate INCLUDES the time to move the
// task's missing inputs onto the candidate device, given current link
// occupancy.
#pragma once

#include "core/scheduler.hpp"

namespace hetflow::sched {

class DmdaScheduler final : public core::Scheduler {
 public:
  std::string name() const override { return "dmda"; }
  void on_task_ready(core::Task& task) override;
};

}  // namespace hetflow::sched
