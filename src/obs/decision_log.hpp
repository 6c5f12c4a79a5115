// Scheduler decision log: one record per placement decision, capturing
// what the policy saw (one row per scored device class, with predicted
// finish and energy), what it chose, and why. Serialized as JSONL (one
// compact JSON object per line) so logs stream and diff cleanly.
//
// Pull-mode policies (work stealing) log a record at enqueue time and
// another when the task is actually handed to a device, so the LAST
// record for a task names the device it ran on — the invariant the
// obs property suite cross-checks against the hetflow-verify audit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/platform.hpp"
#include "sim/event_queue.hpp"

namespace hetflow::obs {

struct DecisionCandidate {
  /// The scored device class, named by its lowest member; the log lists
  /// every member (hw::Platform::device_classes()). Just this device
  /// when `single_device`.
  hw::DeviceId device = 0;
  /// Predicted absolute completion time (scheduler's own estimate): for
  /// a class, the minimum over the members it scored.
  double predicted_finish_s = 0.0;
  /// Predicted Joules, one value for the whole class.
  double predicted_energy_j = 0.0;
  /// Members quarantined by the health tracker when scored.
  std::vector<hw::DeviceId> quarantined;
  bool single_device = false;
};

struct SchedDecision {
  std::uint64_t task = 0;
  /// Borrowed view of the arena-stored task name (stable for the runtime's
  /// lifetime — decisions are resolved lazily at serialization time).
  std::string_view task_name;
  sim::SimTime time = 0.0;
  /// Owning: Scheduler::name() returns by value, a view would dangle.
  std::string scheduler;
  std::vector<DecisionCandidate> candidates;
  hw::DeviceId winner = 0;
  std::string reason;
};

/// One compact JSON object per decision, device ids resolved to names
/// and each class row to its members' names.
std::string decisions_to_jsonl(const std::vector<SchedDecision>& decisions,
                               const hw::Platform& platform);

}  // namespace hetflow::obs
