// Traced-run instrumentation, all of it outside the program: a span log
// kept in memory, a timing decorator around the core::Scheduler a
// workload hands to its Runtime, and a timing wrapper around the
// SchedContext that scheduler receives. Both forward every virtual, so a
// traced run simulates exactly what an untraced one does (the campaign
// workloads check this by digest).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Host-time spans of one traced run. An interval span has count 1 and
/// total_ns == end - start; an aggregated span (per-call boundaries such
/// as scheduler callbacks, folded per workflow or batch) covers its
/// parent's interval and carries the call count and summed duration.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< relative to the log's origin
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index into spans(), -1 = root
    std::uint64_t id = 0;       ///< workflow or job/batch id
    std::uint64_t count = 1;
    std::int64_t total_ns = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Records an interval span; returns its index (a parent for later spans).
  std::int64_t interval(std::string name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent,
                        std::uint64_t id);
  /// Sets the end of an interval span opened with start == end.
  void close(std::int64_t index, Clock::time_point end);
  /// Records an aggregated span under `parent` (which must exist).
  void aggregate(std::string name, std::int64_t parent, std::uint64_t count,
                 std::int64_t total_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  bool empty() const noexcept { return spans_.empty(); }

  /// One JSON object per line. Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counts and summed host ns at the scheduler/context boundaries of one
/// Runtime. Context calls happen inside scheduler callbacks, so the
/// scheduler's self time is callback_ns minus every *_ns context bucket.
struct LayerCounters {
  std::int64_t callback_ns = 0;  ///< inside any Scheduler virtual
  std::uint64_t callbacks = 0;
  std::uint64_t idle_probes = 0;  ///< on_device_idle calls
  std::uint64_t idle_hits = 0;    ///< ... that returned a task
  /// estimate_exec_seconds / estimate_completion / estimate_energy.
  std::int64_t perf_ns = 0;
  std::uint64_t perf_calls = 0;
  /// estimate_data_ready / missing_input_bytes.
  std::int64_t data_ns = 0;
  std::uint64_t data_calls = 0;
  /// SchedContext::assign (core's queue commit).
  std::int64_t assign_ns = 0;
  std::uint64_t assigns = 0;
  /// device_available_at / queue_length / busy_device_count (core state).
  std::int64_t query_ns = 0;
  std::uint64_t queries = 0;

  void add(const LayerCounters& o) noexcept {
    callback_ns += o.callback_ns;
    callbacks += o.callbacks;
    idle_probes += o.idle_probes;
    idle_hits += o.idle_hits;
    perf_ns += o.perf_ns;
    perf_calls += o.perf_calls;
    data_ns += o.data_ns;
    data_calls += o.data_calls;
    assign_ns += o.assign_ns;
    assigns += o.assigns;
    query_ns += o.query_ns;
    queries += o.queries;
  }
  /// Rescales every ns bucket by `f` (see HostSpeed).
  void scale_ns(double f) noexcept {
    for (std::int64_t* ns :
         {&callback_ns, &perf_ns, &data_ns, &assign_ns, &query_ns}) {
      *ns = std::llround(static_cast<double>(*ns) * f);
    }
  }
  std::int64_t context_ns() const noexcept {
    return perf_ns + data_ns + assign_ns + query_ns;
  }
  std::int64_t sched_self_ns() const noexcept {
    return callback_ns - context_ns();
  }
};

/// Wraps `inner` so every callback is timed into `counters`; the inner
/// policy is attached to a timing SchedContext that forwards to the
/// runtime's. `counters` must outlive the decorator.
std::unique_ptr<hetflow::core::Scheduler> make_timing_scheduler(
    std::unique_ptr<hetflow::core::Scheduler> inner, LayerCounters& counters);

}  // namespace perfbench
