// Shared mechanics of the dynamic push policies: the greedy
// min-completion placement behind mct, dmda and dmdas (each supplies only
// its completion estimate), and the decision record every logging policy
// writes.
#pragma once

#include <cmath>
#include <limits>
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

/// Assigns `task` to the device minimizing `completion(device)` (+inf
/// marks an ineligible device; the first minimum wins ties) and logs the
/// decision when observability is on. Quarantined devices are excluded
/// outright — parking work on one serializes it behind the probation
/// timer — unless every eligible device is quarantined; then all are
/// considered. Candidates are collected only for the decision log, so the
/// metrics-off path allocates nothing.
template <typename CompletionFn>
void assign_min_completion(core::SchedContext& ctx, core::Task& task,
                           const char* scheduler, const char* reason,
                           CompletionFn&& completion) {
  obs::Recorder* recorder = ctx.recorder();
  const hw::Device* best = nullptr;
  double best_completion = std::numeric_limits<double>::infinity();
  std::vector<obs::DecisionCandidate> candidates;
  for (const bool skip_blacklisted : {true, false}) {
    candidates.clear();
    for (const hw::Device& device : ctx.platform().devices()) {
      const bool blacklisted = ctx.device_blacklisted(device);
      if (skip_blacklisted && blacklisted) {
        continue;
      }
      const double finish = completion(device);
      if (!std::isfinite(finish)) {
        continue;
      }
      if (recorder != nullptr) {
        candidates.push_back({device.id(), finish,
                              ctx.estimate_energy(task, device), blacklisted});
      }
      if (finish < best_completion) {
        best_completion = finish;
        best = &device;
      }
    }
    if (best != nullptr) {
      break;
    }
  }
  HETFLOW_REQUIRE_MSG(best != nullptr,
                      std::string(scheduler) + ": no eligible device");
  if (recorder != nullptr) {
    record_decision(*recorder, ctx, task, scheduler, std::move(candidates),
                    best->id(), reason);
  }
  ctx.assign(task, *best);
}

}  // namespace hetflow::sched
