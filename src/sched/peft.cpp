#include "sched/peft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "perf/transfer_model.hpp"

namespace hetflow::sched {

void PeftScheduler::plan(const TaskGraphView& view, PlanBuilder& plan) {
  const std::vector<core::Task*>& all_tasks = view.tasks();
  const hw::Platform& platform = ctx().platform();
  const std::size_t devices = platform.device_count();
  const perf::TransferModel comm(platform);

  // Per-(task, device) execution estimates; infinity = unsupported.
  std::vector<std::vector<double>> exec(view.size(),
                                        std::vector<double>(devices));
  for (std::size_t i = 0; i < view.size(); ++i) {
    for (const hw::Device& device : platform.devices()) {
      exec[i][device.id()] =
          ctx().estimate_exec_seconds(*all_tasks[i], device);
    }
  }

  // Optimistic cost table, filled in reverse topological order.
  const std::vector<std::size_t> order = view.graph().topological_order();
  std::vector<std::vector<double>> oct(view.size(),
                                       std::vector<double>(devices, 0.0));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t t = *it;
    for (std::size_t p = 0; p < devices; ++p) {
      double worst = 0.0;
      for (std::size_t s : view.graph().successors(t)) {
        const double avg_comm = comm.mean_time_s(view.edge_bytes(t, s));
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t q = 0; q < devices; ++q) {
          if (!std::isfinite(exec[s][q])) {
            continue;
          }
          best = std::min(best, oct[s][q] + exec[s][q] +
                                    (q == p ? 0.0 : avg_comm));
        }
        worst = std::max(worst, best);
      }
      oct[t][p] = worst;
    }
  }

  // Priority: mean OCT over devices that can run the task.
  std::vector<double> rank(view.size(), 0.0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t p = 0; p < devices; ++p) {
      if (std::isfinite(exec[i][p])) {
        total += oct[i][p];
        ++count;
      }
    }
    rank[i] = count > 0 ? total / static_cast<double>(count) : 0.0;
    all_tasks[i]->set_priority(rank[i]);
  }

  // Placement in topological order (priority fixes only tie-breaking
  // within a level; topology guarantees parents are placed first).
  for (std::size_t i : order) {
    PlanBuilder::Choice best;
    double best_score = std::numeric_limits<double>::infinity();
    for (const hw::Device& device : platform.devices()) {
      const double exec_here = exec[i][device.id()];
      if (!std::isfinite(exec_here)) {
        continue;
      }
      const double start = plan.earliest_start(i, device, exec_here);
      // PEFT's objective: finish time plus the optimistic remainder.
      const double score = start + exec_here + oct[i][device.id()];
      if (score < best_score) {
        best_score = score;
        best = {&device, start, exec_here};
      }
    }
    HETFLOW_REQUIRE_MSG(best.device != nullptr, "peft: no eligible device");
    plan.place(i, best);
  }
}

}  // namespace hetflow::sched
