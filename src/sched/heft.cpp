#include "sched/heft.hpp"

#include <algorithm>
#include <numeric>

namespace hetflow::sched {

// Edge byte counts come from TaskGraphView::edge_bytes — the one
// implementation shared with CPOP/PEFT, so all three rank identical
// communication volumes (a private duplicate here once diverged on
// Redux-mode edges).

void HeftScheduler::plan(const TaskGraphView& view, PlanBuilder& plan) {
  const hw::Platform& platform = ctx().platform();
  const std::vector<core::Task*>& tasks = view.tasks();
  const std::vector<double> ranks = view.upward_ranks(platform);

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ranks[a] != ranks[b]) {
      return ranks[a] > ranks[b];
    }
    return tasks[a]->id() < tasks[b]->id();  // deterministic ties
  });

  // EFT placement with insertion.
  for (std::size_t i : order) {
    const PlanBuilder::Choice choice = plan.earliest_finish(i, ctx());
    HETFLOW_REQUIRE_MSG(choice.device != nullptr, "heft: no eligible device");
    tasks[i]->set_priority(ranks[i]);
    plan.place(i, choice);
  }
}

}  // namespace hetflow::sched
