#include "sched/dmda.hpp"

#include "sched/placement.hpp"

namespace hetflow::sched {

void DmdaScheduler::on_task_ready(core::Task& task) {
  assign_min_completion(ctx(), task, "dmda",
                        "min completion + locality penalty",
                        [&](const hw::Device& device) {
                          return ctx().estimate_completion(task, device);
                        });
}

}  // namespace hetflow::sched
