#include "trace/report.hpp"

#include <algorithm>
#include <sstream>

#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace hetflow::trace {

std::vector<DeviceUtilization> utilization(const Tracer& tracer,
                                           const hw::Platform& platform) {
  std::vector<DeviceUtilization> out(platform.device_count());
  double makespan = 0.0;
  for (const Span& span : tracer.spans()) {
    makespan = std::max(makespan, span.end);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].device = static_cast<hw::DeviceId>(i);
  }
  for (const Span& span : tracer.spans()) {
    DeviceUtilization& u = out.at(span.device);
    if (span.kind == SpanKind::FailedExec) {
      ++u.failed_count;
    } else if (span.kind == SpanKind::Exec) {
      ++u.task_count;
    }
    u.busy_seconds += span.duration();
    // Only a successful execution is useful time; failed attempts and
    // overhead occupied the device without advancing the run.
    if (span.kind == SpanKind::Exec) {
      u.useful_seconds += span.duration();
    } else {
      u.wasted_seconds += span.duration();
    }
  }
  if (makespan > 0.0) {
    for (DeviceUtilization& u : out) {
      u.utilization = u.busy_seconds / makespan;
      u.useful_utilization = u.useful_seconds / makespan;
      u.wasted_utilization = u.wasted_seconds / makespan;
    }
  }
  return out;
}

std::string utilization_report(const Tracer& tracer,
                               const hw::Platform& platform) {
  util::Table table(
      {"device", "type", "tasks", "failed", "busy", "useful%", "wasted%"});
  for (const DeviceUtilization& u : utilization(tracer, platform)) {
    const hw::Device& device = platform.device(u.device);
    table.add_row({device.name(), to_string(device.type()),
                   std::to_string(u.task_count), std::to_string(u.failed_count),
                   util::human_seconds(u.busy_seconds),
                   util::format("%.1f", u.useful_utilization * 100.0),
                   util::format("%.1f", u.wasted_utilization * 100.0)});
  }
  return table.render();
}

std::string spans_to_csv(const Tracer& tracer) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"task", "name", "device", "start_s", "end_s", "kind"});
  for (const Span& span : tracer.spans()) {
    csv.row({std::to_string(span.task_id), std::string(span.name),
             std::to_string(span.device), util::format("%.9f", span.start),
             util::format("%.9f", span.end), to_string(span.kind)});
  }
  return out.str();
}

}  // namespace hetflow::trace
