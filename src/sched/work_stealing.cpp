#include "sched/work_stealing.hpp"

#include <algorithm>
#include <limits>

#include "util/strings.hpp"

namespace hetflow::sched {

namespace {

/// Enqueue/pull decisions share this shape: one record naming the device
/// the task is headed to. The pull/steal record comes second, so the
/// LAST record per task names the device it actually ran on.
void log_placement(core::SchedContext& ctx, const core::Task& task,
                   const hw::Device& device, std::string reason) {
  if (ctx.recorder() == nullptr) {
    return;
  }
  obs::DecisionCandidate row{device.id(),
                             ctx.estimate_completion(task, device),
                             ctx.estimate_energy(task, device),
                             {},
                             /*single_device=*/true};
  if (ctx.device_blacklisted(device)) {
    row.quarantined.push_back(device.id());
  }
  ctx.record_decision({task.id(), task.name(), ctx.now(), "work-stealing",
                       {std::move(row)}, device.id(), std::move(reason)});
}

}  // namespace

void WorkStealingScheduler::attach(core::SchedContext& ctx) {
  Scheduler::attach(ctx);
  deques_.assign(ctx.platform().device_count(), {});
}

void WorkStealingScheduler::on_task_ready(core::Task& task) {
  const hw::Device* best = nullptr;
  std::uint64_t best_missing = std::numeric_limits<std::uint64_t>::max();
  std::size_t best_queue = 0;
  const hw::Platform& platform = ctx().platform();
  for (const hw::Device& device : platform.devices()) {
    if (!core::can_run(task, device, platform)) {
      continue;
    }
    const std::uint64_t missing = ctx().missing_input_bytes(task, device);
    const std::size_t queued =
        deques_[device.id()].size() + ctx().queue_length(device);
    if (best == nullptr || missing < best_missing ||
        (missing == best_missing && queued < best_queue)) {
      best = &device;
      best_missing = missing;
      best_queue = queued;
    }
  }
  HETFLOW_REQUIRE_MSG(best != nullptr, "work-stealing: no eligible device");
  log_placement(ctx(), task, *best,
                "enqueued: min missing bytes, then shortest queue");
  deques_[best->id()].push_back(&task);
}

core::Task* WorkStealingScheduler::on_device_idle(const hw::Device& device) {
  const auto runs_here = [&](const core::Task* task) {
    return core::can_run(*task, device, ctx().platform());
  };
  std::deque<core::Task*>& own = deques_[device.id()];
  // Own work first (front — oldest, inputs most likely resident by now);
  // on_task_ready queued only tasks this device can run.
  if (!own.empty()) {
    core::Task* task = own.front();
    own.pop_front();
    log_placement(ctx(), *task, device, "pulled by idle owner");
    return task;
  }
  // Steal from the richest victim's back.
  std::size_t victim = deques_.size();
  std::size_t victim_size = 0;
  for (std::size_t d = 0; d < deques_.size(); ++d) {
    if (d == device.id() || deques_[d].empty()) {
      continue;
    }
    // Victim must hold at least one task this thief can run.
    if (deques_[d].size() > victim_size &&
        std::any_of(deques_[d].begin(), deques_[d].end(), runs_here)) {
      victim = d;
      victim_size = deques_[d].size();
    }
  }
  if (victim == deques_.size()) {
    return nullptr;
  }
  std::deque<core::Task*>& loot = deques_[victim];
  for (auto it = loot.rbegin(); it != loot.rend(); ++it) {
    if (runs_here(*it)) {
      core::Task* task = *it;
      loot.erase(std::next(it).base());
      ++steals_;
      log_placement(
          ctx(), *task, device,
          util::format("stolen from %s",
                       ctx()
                           .platform()
                           .device(static_cast<hw::DeviceId>(victim))
                           .name()
                           .c_str()));
      return task;
    }
  }
  return nullptr;
}

}  // namespace hetflow::sched
