// Shared mechanics of the dynamic push policies: the greedy
// min-completion placement behind mct, dmda and dmdas, which scores one
// device class at a time.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/recorder.hpp"

namespace hetflow::sched {

/// Assigns `task` to the device with the smallest estimated completion
/// (the lowest id among equal minima) and logs the decision when
/// observability is on. `data_aware` scores
/// SchedContext::estimate_completion (dmda, dmdas); otherwise the score
/// is availability + execution estimate, blind to data movement (mct).
/// Quarantined devices are excluded outright — parking work on one
/// serializes it behind the probation timer — unless every eligible
/// device is quarantined; then all are considered.
///
/// The loop walks the Platform::device_classes() that can run the task
/// (core::can_run). Within a class the execution estimate is one value
/// and completion is non-decreasing in availability (see
/// SchedContext::estimate_completion), so the class minimum lies at its
/// earliest-available member, `rep`, which is the one completion
/// estimated. Members after `rep` cannot beat it, and a member before it
/// can tie only if its availability + exec <= rep's completion, since
/// completion is never below that; only those are estimated too. Ties go
/// to the lower id. A recorder changes nothing the walk estimates: it
/// logs one row per scored class with the class minimum, one energy
/// value and the quarantined members. The metrics-off path allocates
/// nothing.
inline void assign_min_completion(core::SchedContext& ctx, core::Task& task,
                                  const char* scheduler, const char* reason,
                                  bool data_aware) {
  const hw::Platform& platform = ctx.platform();
  obs::Recorder* recorder = ctx.recorder();
  const hw::Device* best = nullptr;
  double best_completion = std::numeric_limits<double>::infinity();
  std::vector<obs::DecisionCandidate> candidates;
  for (const bool skip_blacklisted : {true, false}) {
    candidates.clear();
    for (const hw::DeviceClass& members : platform.device_classes()) {
      if (!core::can_run(task, platform.device(members.front()), platform)) {
        continue;
      }
      const hw::Device* rep = nullptr;
      sim::SimTime rep_avail = 0.0;
      for (const hw::DeviceId id : members) {
        const hw::Device& device = platform.device(id);
        if (skip_blacklisted && ctx.device_blacklisted(device)) {
          continue;
        }
        const sim::SimTime avail = ctx.device_available_at(device);
        if (rep == nullptr || avail < rep_avail) {
          rep = &device;
          rep_avail = avail;
        }
      }
      if (rep == nullptr) {
        continue;
      }
      // One value per class; data-aware scoring needs it only for the
      // tie bound, so it is looked up on first use.
      std::optional<double> exec;
      if (!data_aware) {
        exec = ctx.estimate_exec_seconds(task, *rep);
      }
      const auto completion = [&](const hw::Device& device,
                                  sim::SimTime avail) {
        return data_aware ? ctx.estimate_completion(task, device)
                          : avail + *exec;
      };
      const double rep_finish = completion(*rep, rep_avail);
      const hw::Device* pick = rep;
      double finish = rep_finish;
      for (const hw::DeviceId id : members) {
        if (id >= rep->id()) {
          break;
        }
        const hw::Device& device = platform.device(id);
        if (skip_blacklisted && ctx.device_blacklisted(device)) {
          continue;
        }
        const sim::SimTime avail = ctx.device_available_at(device);
        if (!exec) {
          exec = ctx.estimate_exec_seconds(task, *rep);
        }
        if (avail + *exec > rep_finish) {
          continue;
        }
        const double tie = completion(device, avail);
        if (tie < finish || (tie == finish && id < pick->id())) {
          finish = tie;
          pick = &device;
        }
      }
      if (best == nullptr || finish < best_completion ||
          (finish == best_completion && pick->id() < best->id())) {
        best_completion = finish;
        best = pick;
      }
      if (recorder != nullptr) {
        obs::DecisionCandidate& row = candidates.emplace_back();
        row.device = members.front();
        row.predicted_finish_s = finish;
        row.predicted_energy_j = ctx.estimate_energy(task, *pick);
        for (const hw::DeviceId id : members) {
          if (ctx.device_blacklisted(platform.device(id))) {
            row.quarantined.push_back(id);
          }
        }
      }
    }
    if (best != nullptr) {
      break;
    }
  }
  HETFLOW_REQUIRE_MSG(best != nullptr,
                      std::string(scheduler) + ": no eligible device");
  if (recorder != nullptr) {
    ctx.record_decision({task.id(), task.name(), ctx.now(), scheduler,
                         std::move(candidates), best->id(), reason});
  }
  ctx.assign(task, *best);
}

}  // namespace hetflow::sched
