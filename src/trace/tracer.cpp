#include "trace/tracer.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace hetflow::trace {

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Exec:
      return "exec";
    case SpanKind::FailedExec:
      return "failed";
    case SpanKind::Overhead:
      return "overhead";
  }
  return "?";
}

std::optional<SpanKind> parse_span_kind(std::string_view tag) noexcept {
  for (const SpanKind kind :
       {SpanKind::Exec, SpanKind::FailedExec, SpanKind::Overhead}) {
    if (tag == to_string(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

void Tracer::add(Span span) {
  if (!enabled_) {
    return;
  }
  spans_.push_back(std::move(span));
}

std::string Tracer::ascii_gantt(const hw::Platform& platform,
                                std::size_t width) const {
  double makespan = 0.0;
  for (const Span& span : spans_) {
    makespan = std::max(makespan, span.end);
  }
  std::string out;
  if (spans_.empty()) {
    return "(empty trace)\n";
  }
  // An instant run (every span at t = 0) still renders — all marks land
  // in the first column instead of dividing by a zero makespan.
  const double scale = makespan > 0.0 ? makespan : 1.0;
  std::size_t label_width = 0;
  for (const hw::Device& device : platform.devices()) {
    label_width = std::max(label_width, device.name().size());
  }
  for (const hw::Device& device : platform.devices()) {
    std::string row(width, '.');
    for (const Span& span : spans_) {
      if (span.device != device.id()) {
        continue;
      }
      auto lo = static_cast<std::size_t>(
          span.start / scale * static_cast<double>(width));
      auto hi = static_cast<std::size_t>(span.end / scale *
                                         static_cast<double>(width));
      lo = std::min(lo, width - 1);
      hi = std::min(hi, width - 1);
      const char mark = span.kind == SpanKind::FailedExec ? 'x' : '#';
      for (std::size_t i = lo; i <= hi; ++i) {
        row[i] = mark;
      }
    }
    out += device.name();
    out += std::string(label_width - device.name().size(), ' ');
    out += " |" + row + "|\n";
  }
  out += util::format("%*s  0%*s%s\n", static_cast<int>(label_width), "",
                      static_cast<int>(width) - 1, "",
                      util::human_seconds(makespan).c_str());
  return out;
}

}  // namespace hetflow::trace
