#include "sched/mct.hpp"

#include "sched/placement.hpp"

namespace hetflow::sched {

void MctScheduler::on_task_ready(core::Task& task) {
  // Completion without the data-movement term — deliberately blind.
  assign_min_completion(ctx(), task, "mct", "min completion (data-blind)",
                        /*data_aware=*/false);
}

}  // namespace hetflow::sched
