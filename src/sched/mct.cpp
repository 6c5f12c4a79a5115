#include "sched/mct.hpp"

#include "sched/placement.hpp"

namespace hetflow::sched {

void MctScheduler::on_task_ready(core::Task& task) {
  // Completion without the data-movement term — deliberately blind.
  assign_min_completion(ctx(), task, "mct", "min completion (data-blind)",
                        [&](const hw::Device& device) {
                          return ctx().device_available_at(device) +
                                 ctx().estimate_exec_seconds(task, device);
                        });
}

}  // namespace hetflow::sched
