// Recorder — the single sink the instrumented runtime writes into:
// a typed metrics registry, a structured event log (transfers,
// prefetches, retries, timeouts, blacklists, decisions), and the
// scheduler decision log.
//
// Created by the Runtime when RuntimeOptions::metrics is set and handed
// (as a raw pointer) to the data layer and, through SchedContext, to the
// scheduling policies. With metrics off the pointer is null, which
// costs one branch per instrumentation point — the default-off path
// leaves every legacy output stream byte-identical.
//
// Everything is appended from the single-threaded simulation loop in
// event order, so logs and snapshots are deterministic for a given seed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/metrics.hpp"

namespace hetflow::obs {

enum class EventKind : std::uint8_t {
  Transfer = 0,  ///< one booked data movement (span: start..arrival)
  Prefetch,      ///< ahead-of-execution fetch issued (instant)
  Retry,         ///< failed attempt re-queued (instant)
  Timeout,       ///< watchdog cancelled an attempt (instant)
  Blacklist,     ///< device quarantined (instant)
  Probation,     ///< quarantine lifted, device on probation (instant)
  Decision,      ///< scheduler placement decision (instant)
  Abandon,       ///< task dropped, attempt budget exhausted (instant)
};
const char* to_string(EventKind kind) noexcept;

constexpr std::uint64_t kNoTask = std::numeric_limits<std::uint64_t>::max();

struct Event {
  EventKind kind = EventKind::Transfer;
  sim::SimTime time = 0.0;
  double duration = 0.0;  ///< 0 for instant events
  std::int64_t device = -1;          ///< device track (-1 = none)
  std::int64_t src = -1;             ///< source memory node (transfers)
  std::int64_t dst = -1;             ///< destination memory node
  std::uint64_t task = kNoTask;
  std::uint64_t bytes = 0;
  std::uint64_t aux = 0;  ///< attempt number for Retry/Timeout
  /// Task/datum name or free-form detail. Borrowed view into a source
  /// stable for the runtime's lifetime (interned task/handle names,
  /// Device::name()) — recording an event copies no string.
  std::string_view name;
};

class Recorder {
 public:
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  void record(Event event);
  const std::vector<Event>& events() const noexcept { return events_; }

  /// Appends the decision and mirrors it as a Decision instant event on
  /// the winner's track.
  void add_decision(SchedDecision decision);
  const std::vector<SchedDecision>& decisions() const noexcept {
    return decisions_;
  }
  std::string decisions_jsonl(const hw::Platform& platform) const {
    return decisions_to_jsonl(decisions_, platform);
  }

 private:
  MetricsRegistry metrics_;
  std::vector<Event> events_;
  std::vector<SchedDecision> decisions_;
};

}  // namespace hetflow::obs
