// Per-device handles for the series the runtime updates on every task.
//
// tasks_scheduled{device,scheduler}, queue_depth{device} and
// retry_attempts{device} change on every assignment, start and retry.
// Addressing one by (name, labels) builds a label vector and a key
// string and walks the registry's map. DeviceSeries resolves each
// (series, device) pair once, on its first update, and keeps the
// entry's address in a dense per-device array; registry entries never
// move, so the handles stay valid for the registry's lifetime.
// Resolving on first use keeps snapshots unchanged: a device that never
// receives a task registers no series.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hw/platform.hpp"
#include "obs/metrics.hpp"

namespace hetflow::obs {

class DeviceSeries {
 public:
  /// Inert: updating it is an error. Recorder holds one until the
  /// runtime assigns a bound one.
  DeviceSeries() = default;
  /// `platform` names the devices and must outlive this object, as must
  /// `registry`; `scheduler` labels tasks_scheduled.
  DeviceSeries(MetricsRegistry& registry, const hw::Platform& platform,
               std::string scheduler);

  /// A task was assigned to `device`, whose queue now holds `depth`.
  void task_queued(hw::DeviceId device, sim::SimTime now, std::size_t depth);
  /// `device`'s queue now holds `depth` (a start or a retry re-queue).
  void queue_changed(hw::DeviceId device, sim::SimTime now,
                     std::size_t depth);
  /// A failed attempt on `device` is being retried.
  void retry(hw::DeviceId device);

 private:
  MetricsRegistry* registry_ = nullptr;
  const hw::Platform* platform_ = nullptr;
  std::string scheduler_;
  // Indexed by DeviceId; null until the series is first updated.
  std::vector<Counter*> tasks_scheduled_;
  std::vector<TimeWeighted*> queue_depth_;
  std::vector<Counter*> retry_attempts_;
};

}  // namespace hetflow::obs
