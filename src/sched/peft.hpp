// PEFT (Predict Earliest Finish Time, Arabnejad & Barbosa 2014) — list
// scheduling with lookahead. Instead of HEFT's device-agnostic upward
// rank, PEFT precomputes an Optimistic Cost Table
//
//   OCT(t, p) = max over successors s of
//               min over devices q of [ OCT(s, q) + w(s, q)
//                                       + (q == p ? 0 : avg_comm(t, s)) ]
//
// (0 for exit tasks) — the best-case remaining path if t runs on p.
// Tasks are prioritized by the mean OCT row and placed on the device
// minimizing EFT(t, p) + OCT(t, p): the lookahead steers away from
// devices that finish this task early but strand its descendants.
#pragma once

#include "sched/static_plan.hpp"

namespace hetflow::sched {

class PeftScheduler final : public StaticPlanScheduler {
 public:
  std::string name() const override { return "peft"; }

 private:
  void plan(const TaskGraphView& view, PlanBuilder& plan) override;
};

}  // namespace hetflow::sched
