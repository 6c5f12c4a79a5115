// Execution tracing: every task execution (and failed attempt) becomes a
// span; renders a quick ASCII Gantt for terminals. The Chrome trace-event
// export (chrome://tracing, Perfetto) is obs::chrome_trace_json.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/platform.hpp"
#include "sim/event_queue.hpp"

namespace hetflow::trace {

enum class SpanKind : std::uint8_t { Exec = 0, FailedExec, Overhead };

struct Span {
  std::uint64_t task_id = 0;
  /// Borrowed view — sources are stable for the runtime's lifetime
  /// (interned task names, Device::name()); exporters that outlive the
  /// runtime serialize to owning strings first. Keeps span capture on
  /// the hot path copy-free.
  std::string_view name;
  hw::DeviceId device = 0;
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  SpanKind kind = SpanKind::Exec;

  double duration() const noexcept { return end - start; }
};

class Tracer {
 public:
  /// A disabled tracer drops spans (zero overhead path for benches).
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void add(Span span);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() { spans_.clear(); }

  /// Terminal Gantt chart: one row per device, `width` characters across
  /// the makespan. '#' = executing, 'x' = failed attempt.
  std::string ascii_gantt(const hw::Platform& platform,
                          std::size_t width = 80) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace hetflow::trace
