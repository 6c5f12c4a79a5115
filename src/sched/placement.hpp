// Shared mechanics of the dynamic push policies: the greedy
// min-completion placement behind mct, dmda and dmdas, which scores one
// device class at a time, and the decision record every logging policy
// writes.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/recorder.hpp"

namespace hetflow::sched {

/// Appends one scheduler decision: `winner` chosen for `task` among
/// `candidates`, by `scheduler` for `reason`.
inline void record_decision(obs::Recorder& recorder,
                            const core::SchedContext& ctx,
                            const core::Task& task, std::string scheduler,
                            std::vector<obs::DecisionCandidate> candidates,
                            hw::DeviceId winner, std::string reason) {
  recorder.add_decision({task.id(), task.name(), ctx.now(),
                         std::move(scheduler), std::move(candidates), winner,
                         std::move(reason)});
}

/// Assigns `task` to the device with the smallest estimated completion
/// (the lowest id among equal minima) and logs the decision when
/// observability is on. `data_aware` scores
/// SchedContext::estimate_completion (dmda, dmdas); otherwise the score
/// is availability + execution estimate, blind to data movement (mct).
/// Quarantined devices are excluded outright — parking work on one
/// serializes it behind the probation timer — unless every eligible
/// device is quarantined; then all are considered.
///
/// The loop walks Platform::device_classes(). Within a class the
/// execution estimate is one value and completion is non-decreasing in
/// availability (see SchedContext::estimate_completion), so the class
/// minimum lies at its earliest-available member, `rep`, which is the
/// one completion estimated. Members after `rep` cannot beat it, and a
/// member before it can tie only if its availability + exec <= rep's
/// completion, since completion is never below that; only those are
/// estimated too. Ties across classes go to the lower id. With a
/// recorder every eligible member is estimated and the candidates are
/// logged in device-id order, one row per device. The metrics-off path
/// allocates nothing.
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
      if (!std::isfinite(rep_finish)) {
        continue;
      }
      for (const hw::DeviceId id : members) {
        if (recorder == nullptr && id > rep->id()) {
          break;
        }
        const hw::Device& device = platform.device(id);
        const bool blacklisted = ctx.device_blacklisted(device);
        if (skip_blacklisted && blacklisted) {
          continue;
        }
        double finish = rep_finish;
        if (&device != rep) {
          const sim::SimTime avail = ctx.device_available_at(device);
          if (recorder == nullptr) {
            if (!exec) {
              exec = ctx.estimate_exec_seconds(task, *rep);
            }
            if (avail + *exec > rep_finish) {
              continue;
            }
          }
          finish = completion(device, avail);
          if (!std::isfinite(finish)) {
            continue;
          }
        }
        if (recorder != nullptr) {
          candidates.push_back({id, finish, ctx.estimate_energy(task, device),
                                blacklisted});
        }
        if (finish < best_completion ||
            (finish == best_completion && id < best->id())) {
          best_completion = finish;
          best = &device;
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
    std::sort(candidates.begin(), candidates.end(),
              [](const obs::DecisionCandidate& a,
                 const obs::DecisionCandidate& b) {
                return a.device < b.device;
              });
    record_decision(*recorder, ctx, task, scheduler, std::move(candidates),
                    best->id(), reason);
  }
  ctx.assign(task, *best);
}

}  // namespace hetflow::sched
