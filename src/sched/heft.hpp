// HEFT (Heterogeneous Earliest Finish Time, Topcuoglu et al. 2002) —
// static list scheduling over the whole DAG:
//
//   1. rank each task by its "upward rank": mean execution cost across
//      devices + the heaviest (comm + rank) path to a sink;
//   2. in rank order, place each task on the device minimizing its
//      earliest finish time (EFT), including the transfer of parent
//      outputs across memory nodes, with insertion into idle gaps of the
//      device timeline.
//
// The runtime then honors the computed (device, order) assignment: ready
// tasks are released to their planned device strictly in planned order
// (StaticPlanScheduler).
#pragma once

#include "sched/static_plan.hpp"

namespace hetflow::sched {

class HeftScheduler final : public StaticPlanScheduler {
 public:
  std::string name() const override { return "heft"; }

 private:
  void plan(const TaskGraphView& view, PlanBuilder& plan) override;
};

}  // namespace hetflow::sched
