// CPOP (Critical-Path-On-a-Processor, Topcuoglu et al. 2002) — HEFT's
// sibling: tasks are prioritized by rank_u + rank_d; every task on the
// critical path is pinned to the single device that executes the whole
// critical path fastest, while off-path tasks are placed by insertion
// EFT. Compared with HEFT, CPOP wins when the critical path dominates
// and benefits from zero intra-path communication.
#pragma once

#include <cstddef>

#include "sched/static_plan.hpp"

namespace hetflow::sched {

class CpopScheduler final : public StaticPlanScheduler {
 public:
  std::string name() const override { return "cpop"; }

  hw::DeviceId critical_path_device() const noexcept { return cp_device_; }
  std::size_t critical_path_length() const noexcept { return cp_size_; }

 private:
  hw::DeviceId cp_device_ = 0;
  std::size_t cp_size_ = 0;

  void plan(const TaskGraphView& view, PlanBuilder& plan) override;
};

}  // namespace hetflow::sched
