#include "obs/device_series.hpp"

#include <utility>

namespace hetflow::obs {

DeviceSeries::DeviceSeries(MetricsRegistry& registry,
                           const hw::Platform& platform, std::string scheduler)
    : registry_(&registry),
      platform_(&platform),
      scheduler_(std::move(scheduler)),
      tasks_scheduled_(platform.device_count(), nullptr),
      queue_depth_(platform.device_count(), nullptr),
      retry_attempts_(platform.device_count(), nullptr) {}

void DeviceSeries::task_queued(hw::DeviceId device, sim::SimTime now,
                               std::size_t depth) {
  Counter*& scheduled = tasks_scheduled_[device];
  if (scheduled == nullptr) {
    scheduled = &registry_->counter(
        "tasks_scheduled",
        {{"device", platform_->device(device).name()},
         {"scheduler", scheduler_}});
  }
  scheduled->inc();
  queue_changed(device, now, depth);
}

void DeviceSeries::queue_changed(hw::DeviceId device, sim::SimTime now,
                                 std::size_t depth) {
  TimeWeighted*& series = queue_depth_[device];
  if (series == nullptr) {
    series = &registry_->time_weighted(
        "queue_depth", {{"device", platform_->device(device).name()}});
  }
  series->update(now, static_cast<double>(depth));
}

void DeviceSeries::retry(hw::DeviceId device) {
  Counter*& retries = retry_attempts_[device];
  if (retries == nullptr) {
    retries = &registry_->counter(
        "retry_attempts", {{"device", platform_->device(device).name()}});
  }
  retries->inc();
}

}  // namespace hetflow::obs
