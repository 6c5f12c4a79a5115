#include "sched/eager.hpp"

#include "util/prefetch.hpp"

namespace hetflow::sched {

void EagerScheduler::on_task_ready(core::Task& task) {
  buckets_.insert(task, ctx().platform())
      .items.emplace_back(arrivals_++, &task);
}

core::Task* EagerScheduler::on_device_idle(const hw::Device& device) {
  Fifo* fifo = buckets_.take(device, ctx().platform(),
                             [](const Fifo& a, const Fifo& b) {
                               return a.items[a.head].first <
                                      b.items[b.head].first;
                             });
  if (fifo == nullptr) {
    return nullptr;
  }
  core::Task* picked = fifo->items[fifo->head++].second;
  // The runtime dispatches the picked task immediately and pulls again
  // for the next idle device within the same pump, so the next entry's
  // Task object (scattered in the pool) is wanted ~one dispatch from
  // now — far enough out for a prefetch to hide the miss.
  if (!fifo->empty()) {
    util::prefetch_range_read(fifo->items[fifo->head].second,
                              sizeof(core::Task));
  }
  // Trim the consumed prefix once it dominates the buffer (amortized
  // O(1)); resetting outright when the bucket drains is the common case.
  if (fifo->empty()) {
    fifo->items.clear();
    fifo->head = 0;
  } else if (fifo->head >= 1024 && fifo->head * 2 >= fifo->items.size()) {
    fifo->items.erase(fifo->items.begin(),
                      fifo->items.begin() +
                          static_cast<std::ptrdiff_t>(fifo->head));
    fifo->head = 0;
  }
  return picked;
}

}  // namespace hetflow::sched
