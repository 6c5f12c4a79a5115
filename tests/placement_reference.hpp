// Test oracle for the class walk in sched::assign_min_completion
// (sched/placement.hpp).
//
// reference_min_completion is the per-device loop the class walk
// replaced: it estimates every device, in id order, and keeps the first
// minimum. The class walk estimates one member per device class plus the
// few that could tie it, so the two agree only while the contract in
// SchedContext::estimate_completion holds (within a class, completion
// depends on availability alone and never decreases with it). Tests run
// both on the same context state and compare the winner and the decision
// record field by field.
//
//   const auto want = reference_min_completion(ctx, task, data_aware);
//   sched::assign_min_completion(ctx, task, "dmda", "...", data_aware);
//   EXPECT_EQ(task.device(), want->winner);
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/sched_context.hpp"
#include "core/task.hpp"
#include "obs/decision_log.hpp"

namespace hetflow::testing {

/// What the per-device loop decides for one task.
struct ReferenceDecision {
  hw::DeviceId winner = 0;
  /// One row per device class with a scored member, in class order,
  /// built from the per-device scores: the class minimum, the energy of
  /// the lowest-id member reaching it, and the quarantined members.
  /// Filled only when the context has a recorder, as the decision log
  /// would be.
  std::vector<obs::DecisionCandidate> candidates;
};

/// Scores every device with `data_aware ? estimate_completion : available
/// + exec`, skipping quarantined devices unless all eligible ones are,
/// and returns the lowest id among equal minima. Neither assigns nor
/// records. nullopt when no device can run the task.
inline std::optional<ReferenceDecision> reference_min_completion(
    const core::SchedContext& ctx, const core::Task& task, bool data_aware) {
  const hw::Platform& platform = ctx.platform();
  for (const bool skip_blacklisted : {true, false}) {
    ReferenceDecision out;
    std::vector<std::optional<double>> scores(platform.device_count());
    const hw::Device* best = nullptr;
    double best_completion = std::numeric_limits<double>::infinity();
    for (const hw::Device& device : platform.devices()) {
      if (skip_blacklisted && ctx.device_blacklisted(device)) {
        continue;
      }
      const double finish =
          data_aware ? ctx.estimate_completion(task, device)
                     : ctx.device_available_at(device) +
                           ctx.estimate_exec_seconds(task, device);
      if (!std::isfinite(finish)) {
        continue;
      }
      scores[device.id()] = finish;
      if (finish < best_completion) {
        best_completion = finish;
        best = &device;
      }
    }
    if (best == nullptr) {
      continue;
    }
    out.winner = best->id();
    if (ctx.recorder() == nullptr) {
      return out;
    }
    for (const hw::DeviceClass& members : platform.device_classes()) {
      const hw::Device* low = nullptr;
      for (const hw::DeviceId id : members) {
        if (scores[id] && (low == nullptr || *scores[id] < *scores[low->id()])) {
          low = &platform.device(id);
        }
      }
      if (low == nullptr) {
        continue;
      }
      obs::DecisionCandidate& row = out.candidates.emplace_back();
      row.device = members.front();
      row.predicted_finish_s = *scores[low->id()];
      row.predicted_energy_j = ctx.estimate_energy(task, *low);
      for (const hw::DeviceId id : members) {
        if (ctx.device_blacklisted(platform.device(id))) {
          row.quarantined.push_back(id);
        }
      }
    }
    return out;
  }
  return std::nullopt;
}

}  // namespace hetflow::testing
