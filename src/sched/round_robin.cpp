#include "sched/round_robin.hpp"

namespace hetflow::sched {

void RoundRobinScheduler::on_task_ready(core::Task& task) {
  const hw::Platform& platform = ctx().platform();
  const auto& devices = platform.devices();
  for (std::size_t probe = 0; probe < devices.size(); ++probe) {
    const hw::Device& device = devices[(cursor_ + probe) % devices.size()];
    if (core::can_run(task, device, platform)) {
      cursor_ = (cursor_ + probe + 1) % devices.size();
      ctx().assign(task, device);
      return;
    }
  }
  // Unreachable: the runtime rejects tasks no platform device can run.
  throw InternalError("round-robin: no eligible device");
}

}  // namespace hetflow::sched
