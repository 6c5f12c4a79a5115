#include "sched/work_stealing.hpp"

#include <limits>

#include "sched/placement.hpp"
#include "util/strings.hpp"

namespace hetflow::sched {

namespace {

/// Enqueue/pull decisions share this shape: one record naming the device
/// the task is headed to. The pull/steal record comes second, so the
/// LAST record per task names the device it actually ran on.
void log_placement(core::SchedContext& ctx, const core::Task& task,
                   const hw::Device& device, std::string reason) {
  obs::Recorder* recorder = ctx.recorder();
  if (recorder == nullptr) {
    return;
  }
  record_decision(*recorder, ctx, task, "work-stealing",
                  {{device.id(), ctx.estimate_completion(task, device),
                    ctx.estimate_energy(task, device),
                    ctx.device_blacklisted(device)}},
                  device.id(), std::move(reason));
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
  for (const hw::Device& device : ctx().platform().devices()) {
    if (!task.codelet().supports(device.type())) {
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
  std::deque<core::Task*>& own = deques_[device.id()];
  // Own work first (front — oldest, inputs most likely resident by now).
  for (auto it = own.begin(); it != own.end(); ++it) {
    if ((*it)->codelet().supports(device.type())) {
      core::Task* task = *it;
      own.erase(it);
      log_placement(ctx(), *task, device, "pulled by idle owner");
      return task;
    }
  }
  // Steal from the richest victim's back.
  std::size_t victim = deques_.size();
  std::size_t victim_size = 0;
  for (std::size_t d = 0; d < deques_.size(); ++d) {
    if (d == device.id() || deques_[d].empty()) {
      continue;
    }
    // Victim must hold at least one task this thief can run.
    bool runnable = false;
    for (core::Task* task : deques_[d]) {
      if (task->codelet().supports(device.type())) {
        runnable = true;
        break;
      }
    }
    if (runnable && deques_[d].size() > victim_size) {
      victim = d;
      victim_size = deques_[d].size();
    }
  }
  if (victim == deques_.size()) {
    return nullptr;
  }
  std::deque<core::Task*>& loot = deques_[victim];
  for (auto it = loot.rbegin(); it != loot.rend(); ++it) {
    if ((*it)->codelet().supports(device.type())) {
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
