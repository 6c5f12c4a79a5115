// SchedContext — the window through which scheduling policies see the
// runtime: cost estimates, device/queue state, data locality, and the
// assign() command. Implemented by the Runtime; policies hold a reference.
#pragma once

#include <cstdint>
#include <optional>

#include "data/coherence.hpp"
#include "data/handle.hpp"
#include "hw/platform.hpp"
#include "sim/event_queue.hpp"

namespace hetflow::obs {
class Recorder;
}

namespace hetflow::core {

class Task;

class SchedContext {
 public:
  virtual ~SchedContext() = default;

  virtual const hw::Platform& platform() const = 0;
  virtual sim::SimTime now() const = 0;

  /// Registered data handles (for edge-size computations in static
  /// schedulers).
  virtual const data::DataRegistry& data_registry() const = 0;

  /// Estimated wall time of `task` on `device` at DVFS point `dvfs`
  /// (nominal when omitted), including launch overhead, excluding data
  /// movement and queueing. Uses the calibrated history when available,
  /// else the codelet's analytic model. +inf when unsupported.
  ///
  /// Cost: the per-(codelet, device) model terms behind this call (and
  /// estimate_completion / estimate_energy, which derive from it) are
  /// memoized in the runtime's CostModelCache (core/cost_cache.hpp) —
  /// bitwise-identical to a direct recompute, so candidate loops in
  /// src/sched/ may call these as often as they need. History
  /// recalibration invalidates automatically; platform mutations require
  /// Runtime::invalidate_cost_cache().
  virtual double estimate_exec_seconds(
      const Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs = std::nullopt) const = 0;

  /// Time at which `device` would finish everything currently running
  /// and queued on it (its earliest availability for new work).
  virtual sim::SimTime device_available_at(const hw::Device& device) const = 0;

  /// Estimated absolute time at which `task`'s inputs could be resident on
  /// `device`'s memory node, starting transfers at `earliest` (accounts
  /// for current link occupancy; inputs from unexecuted producers are
  /// assumed in place).
  virtual sim::SimTime estimate_data_ready(const Task& task,
                                           const hw::Device& device,
                                           sim::SimTime earliest) const = 0;

  /// Bytes of `task`'s inputs not yet resident on `device`'s node.
  virtual std::uint64_t missing_input_bytes(
      const Task& task, const hw::Device& device) const = 0;

  /// Estimated earliest completion time: max(device availability, data
  /// ready) + execution estimate. The building block of list schedulers.
  ///
  /// Invariant: within one hw::Platform::device_classes() class the
  /// execution estimate is a single value and the data-ready time is a
  /// function of the memory node and `earliest` alone, built from max and
  /// + (TransferEngine::walk_route). So within a class completion depends
  /// only on availability and never decreases as availability grows;
  /// sched::assign_min_completion scores one member per class on that
  /// basis. A change that makes any estimate depend on the device id, or
  /// on a device field outside the class key, must extend the class key
  /// (same_class in hw/platform.cpp).
  virtual sim::SimTime estimate_completion(
      const Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs = std::nullopt) const = 0;

  /// Estimated Joules to execute `task` on `device` at `dvfs`.
  virtual double estimate_energy(
      const Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs = std::nullopt) const = 0;

  /// True while `device` is quarantined by the health tracker
  /// (RetryPolicy::blacklist_after): it accepts assignments but starts
  /// nothing until probation, and device_available_at() already reflects
  /// the quarantine end — cost-based policies route around it without
  /// consulting this. Pull-mode policies can use it to park work.
  virtual bool device_blacklisted(const hw::Device& device) const {
    (void)device;
    return false;
  }

  /// Observability sink for scheduler decision logging; null when
  /// RuntimeOptions::metrics is off (policies must tolerate null).
  virtual obs::Recorder* recorder() const noexcept { return nullptr; }

  /// Live MSI replica directory, for placement layers (the cluster
  /// scheduler) that score residency across memory nodes. Null when the
  /// implementation exposes none (policies must tolerate null; the
  /// missing_input_bytes estimate above remains the portable path).
  virtual const data::CoherenceDirectory* coherence() const noexcept {
    return nullptr;
  }

  /// Number of tasks queued (not running) on `device`.
  virtual std::size_t queue_length(const hw::Device& device) const = 0;

  /// Total number of devices with a queued or running task.
  virtual std::size_t busy_device_count() const = 0;

  /// Commits `task` to `device`'s FIFO queue, optionally at a non-nominal
  /// DVFS point. Only legal for Ready tasks the policy owns.
  virtual void assign(Task& task, const hw::Device& device,
                      std::optional<std::size_t> dvfs = std::nullopt) = 0;
};

}  // namespace hetflow::core
