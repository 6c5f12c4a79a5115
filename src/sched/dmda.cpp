#include "sched/dmda.hpp"

#include "sched/placement.hpp"

namespace hetflow::sched {

void DmdaScheduler::on_task_ready(core::Task& task) {
  assign_min_completion(ctx(), task, "dmda", "min completion",
                        /*data_aware=*/true);
}

}  // namespace hetflow::sched
