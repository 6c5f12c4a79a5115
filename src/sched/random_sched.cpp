#include "sched/random_sched.hpp"

#include <vector>

namespace hetflow::sched {

void RandomScheduler::on_task_ready(core::Task& task) {
  const hw::Platform& platform = ctx().platform();
  std::vector<const hw::Device*> eligible;
  for (const hw::Device& device : platform.devices()) {
    if (core::can_run(task, device, platform)) {
      eligible.push_back(&device);
    }
  }
  HETFLOW_REQUIRE_MSG(!eligible.empty(), "no eligible device (runtime bug)");
  ctx().assign(task, *eligible[rng_.index(eligible.size())]);
}

}  // namespace hetflow::sched
