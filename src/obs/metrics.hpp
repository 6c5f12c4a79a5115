// Typed metrics registry — the numeric half of the observability layer.
//
// Three metric kinds cover everything the runtime emits:
//
//   * Counter       — monotonically increasing sum (tasks_scheduled,
//                     bytes_transferred, retry_attempts, ...). The
//                     runtime counts nothing here: every counter is
//                     set() from the stats ledger that owns the fact, at
//                     the end of Runtime::wait_all() — bitwise equal by
//                     construction, but not valid mid-run nor after
//                     wait_all() throws.
//   * Gauge         — last-written value (makespan_s, events_executed).
//   * TimeWeighted  — a piecewise-constant signal sampled at update()
//                     instants (queue_depth, event_queue_depth); the
//                     snapshot reports last/min/max and the time-weighted
//                     mean over the observed window.
//
// Metrics are addressed by (name, labels). Snapshots serialize to JSON
// and CSV with entries in lexicographic key order, so two runs that
// touch the same metrics in any order produce byte-identical snapshots —
// the property the golden-trace and determinism suites lock down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace hetflow::obs {

/// Ordered label set, e.g. {{"device", "gpu0"}, {"scheduler", "dmda"}}.
/// Call sites pass labels in a fixed order; the key is built from that
/// order verbatim (no sorting), so a given call site always addresses the
/// same entry.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  /// Publishes a total kept elsewhere: assigns, so re-publishing is exact.
  void set(double value) { value_ = value; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Piecewise-constant signal: update(t, v) means "the value is v from t
/// until the next update". Integrates value·dt for the time-weighted
/// mean; update times must be non-decreasing (simulated time is).
class TimeWeighted {
 public:
  void update(sim::SimTime t, double value);

  bool observed() const noexcept { return updates_ > 0; }
  double last() const noexcept { return current_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  /// Integral / elapsed over [first update, last update]; the last value
  /// when no time has elapsed.
  double mean() const noexcept;
  std::uint64_t updates() const noexcept { return updates_; }

 private:
  sim::SimTime first_t_ = 0.0;
  sim::SimTime last_t_ = 0.0;
  double current_ = 0.0;
  double integral_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t updates_ = 0;
};

enum class MetricKind : std::uint8_t { Counter, Gauge, TimeWeighted };
const char* to_string(MetricKind kind) noexcept;

class MetricsRegistry {
 public:
  /// Lookup-or-create. The returned reference stays valid for the
  /// registry's lifetime, however many entries are added later (entries
  /// live in std::map nodes, which never move), so a caller may keep it
  /// as a handle instead of repeating the lookup (Recorder::queue_depth
  /// does). Re-registering a name with a different kind throws
  /// InvalidArgument.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  TimeWeighted& time_weighted(const std::string& name,
                              const Labels& labels = {});

  std::size_t size() const noexcept { return entries_.size(); }

  /// Sum of a counter across every label combination (0 when absent) —
  /// the reconciliation hook for RunStats cross-checks.
  double counter_sum(const std::string& name) const;
  /// Value of one specific counter (0 when absent).
  double counter_value(const std::string& name, const Labels& labels) const;

  /// Deterministic snapshots: entries in lexicographic key order. The
  /// JSON one is Json::dump_pretty()'s layout plus a trailing newline.
  std::string to_json_string() const;
  std::string to_csv() const;

  /// "name{k=v,k2=v2}" (just "name" for label-free metrics).
  static std::string key(const std::string& name, const Labels& labels);

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::Counter;
    Counter counter;
    Gauge gauge;
    TimeWeighted tw;
  };

  std::map<std::string, Entry> entries_;

  Entry& entry(const std::string& name, const Labels& labels,
               MetricKind kind);
};

}  // namespace hetflow::obs
