#include "obs/recorder.hpp"

namespace hetflow::obs {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::Transfer:
      return "transfer";
    case EventKind::Prefetch:
      return "prefetch";
    case EventKind::Retry:
      return "retry";
    case EventKind::Timeout:
      return "timeout";
    case EventKind::Blacklist:
      return "blacklist";
    case EventKind::Probation:
      return "probation";
    case EventKind::Decision:
      return "decision";
    case EventKind::Abandon:
      return "abandon";
  }
  return "?";
}

void Recorder::queue_depth(const hw::Device& device, sim::SimTime now,
                           std::size_t depth) {
  if (device.id() >= queue_depth_.size()) {
    queue_depth_.resize(device.id() + 1, nullptr);
  }
  TimeWeighted*& series = queue_depth_[device.id()];
  if (series == nullptr) {
    series = &metrics_.time_weighted("queue_depth",
                                     {{"device", device.name()}});
  }
  series->update(now, static_cast<double>(depth));
}

void Recorder::record(Event event) {
  events_.push_back(std::move(event));
}

void Recorder::add_decision(SchedDecision decision) {
  Event event;
  event.kind = EventKind::Decision;
  event.time = decision.time;
  event.device = static_cast<std::int64_t>(decision.winner);
  event.task = decision.task;
  event.name = decision.task_name;
  events_.push_back(std::move(event));
  decisions_.push_back(std::move(decision));
}

}  // namespace hetflow::obs
