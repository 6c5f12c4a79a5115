// Fault-tolerance policy knobs and per-device health tracking.
//
// A run survives flaky devices through three cooperating mechanisms, all
// configured on RuntimeOptions::retry:
//
//   * attempt budget — a task is retried up to max_attempts times; what
//     happens when the budget is exhausted is ExhaustionPolicy's call
//     (abort the run, or drop the task and its dependent subtree);
//   * exponential backoff — a failed attempt is requeued only after
//     base * factor^(attempt-1) seconds (capped), plus deterministic
//     jitter drawn from the run rng, so a transiently sick device is not
//     hammered with immediate retries;
//   * timeout + blacklist — an attempt running past timeout_s is
//     cancelled (EventQueue::cancel) and retried, and a device that
//     fails blacklist_after consecutive attempts is quarantined: its
//     queued tasks go back to the scheduler and it takes no new work
//     until a probation timer expires.
//
// The blacklist state machine (see docs/fault_tolerance.md):
//
//     Healthy --K consecutive failures--> Blacklisted
//     Blacklisted --probation_s timer--> Probation
//     Probation --success--> Healthy
//     Probation --failure--> Blacklisted (immediately, threshold 1)
#pragma once

#include <cstdint>
#include <vector>

#include "hw/device.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace hetflow::core {

/// What to do when a task exhausts its attempt budget.
enum class ExhaustionPolicy : std::uint8_t {
  Abort = 0,  ///< throw and end the run (legacy behaviour)
  Drop,       ///< abandon the task and its transitive dependents
};

/// Retry/timeout/blacklist configuration. The defaults reproduce the
/// legacy behaviour exactly: immediate retries, no timeout, no
/// blacklist, abort on exhaustion.
struct RetryPolicy {
  /// Attempt budget per task (at least 1; the Runtime constructor
  /// rejects 0). An attempt beyond it aborts the run or drops the task,
  /// per on_exhausted.
  std::size_t max_attempts = 50;
  /// First retry delay in simulated seconds; 0 = retry immediately
  /// (which also skips the backoff event entirely, keeping legacy event
  /// ordering byte-identical).
  double backoff_base_s = 0.0;
  /// Multiplier applied per additional failed attempt.
  double backoff_factor = 2.0;
  /// Upper bound on the (pre-jitter) delay.
  double backoff_max_s = 60.0;
  /// Jitter fraction in [0, 1]: the delay is scaled by a factor drawn
  /// uniformly from [1, 1 + jitter) using a deterministic stream split
  /// from the run rng — identical across reruns of the same seed.
  double backoff_jitter = 0.0;
  /// Wall-clock budget of one attempt, measured from dispatch (so data
  /// stalls count). 0 = no timeout. A breached attempt is cancelled via
  /// EventQueue::cancel, charged as a failed attempt, and retried under
  /// the same backoff/failure policy.
  double timeout_s = 0.0;
  /// Consecutive failures (on one device) that trip the blacklist;
  /// 0 = never blacklist. Requires a dynamic scheduler: quarantined
  /// work re-enters on_task_ready, which full-graph plans cannot absorb.
  std::size_t blacklist_after = 0;
  /// Simulated seconds a blacklisted device sits out before probation.
  double probation_s = 5.0;
  ExhaustionPolicy on_exhausted = ExhaustionPolicy::Abort;

  /// Pre-jitter delay before retry number `attempt` (1-based: the delay
  /// applied after the attempt-th failure).
  double backoff_delay_s(std::uint32_t attempt) const noexcept;
  /// Full delay including deterministic jitter drawn from `rng` (one
  /// uniform draw iff backoff_jitter > 0, so seeds stay comparable
  /// across jitter settings).
  double backoff_delay_s(std::uint32_t attempt, util::Rng& rng) const;
};

/// Tracks per-device consecutive failures and the quarantine state
/// machine. Owned by the Runtime; time-based transitions (probation
/// expiry) are driven by the runtime's event queue, not by this class.
class DeviceHealth {
 public:
  enum class State : std::uint8_t {
    Healthy = 0,
    Blacklisted,  ///< takes no work; queued tasks were handed back
    Probation,    ///< working again, but one failure re-blacklists
  };

  DeviceHealth() = default;
  explicit DeviceHealth(std::size_t device_count)
      : entries_(device_count) {}

  std::size_t device_count() const noexcept { return entries_.size(); }
  State state(hw::DeviceId id) const { return entry(id).state; }
  bool blacklisted(hw::DeviceId id) const {
    return entry(id).state == State::Blacklisted;
  }
  std::uint64_t consecutive_failures(hw::DeviceId id) const {
    return entry(id).consecutive_failures;
  }
  /// Times this device has been quarantined so far.
  std::uint64_t blacklist_events(hw::DeviceId id) const {
    return entry(id).blacklist_events;
  }
  /// Absolute simulated time at which the current quarantine ends
  /// (meaningful while blacklisted; 0 before the first quarantine).
  sim::SimTime blacklisted_until(hw::DeviceId id) const {
    return entry(id).blacklisted_until;
  }

  /// Records a failed attempt on `id`. Returns true when this failure
  /// trips the blacklist (threshold `blacklist_after`, or any failure
  /// during probation); the caller quarantines the device and arranges
  /// the probation timer for `until`.
  bool note_failure(hw::DeviceId id, std::size_t blacklist_after,
                    sim::SimTime until);
  /// Records a successful completion (resets the consecutive counter;
  /// promotes Probation back to Healthy).
  void note_success(hw::DeviceId id);
  /// The probation timer fired: Blacklisted -> Probation.
  void end_blacklist(hw::DeviceId id);
  /// Forces `id` into quarantine regardless of its failure counters —
  /// the whole-node fault domain path, where the device did nothing
  /// wrong but its node is gone. Counts as a blacklist event; extends
  /// the quarantine when already blacklisted.
  void quarantine(hw::DeviceId id, sim::SimTime until);

 private:
  struct Entry {
    State state = State::Healthy;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t blacklist_events = 0;
    sim::SimTime blacklisted_until = 0.0;
  };

  const Entry& entry(hw::DeviceId id) const {
    HETFLOW_REQUIRE_MSG(id < entries_.size(), "device id out of range");
    return entries_[id];
  }
  Entry& entry(hw::DeviceId id) {
    HETFLOW_REQUIRE_MSG(id < entries_.size(), "device id out of range");
    return entries_[id];
  }

  std::vector<Entry> entries_;
};

const char* to_string(DeviceHealth::State state) noexcept;

}  // namespace hetflow::core
