// Eager scheduler — the classic central-queue baseline (StarPU "eager"):
// ready tasks enter one FIFO; any idle device pulls the oldest task it
// can execute. No cost model, no data awareness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "sched/class_buckets.hpp"

namespace hetflow::sched {

class EagerScheduler final : public core::Scheduler {
 public:
  std::string name() const override { return "eager"; }
  void on_task_ready(core::Task& task) override;
  core::Task* on_device_idle(const hw::Device& device) override;
  bool has_retained_work() const noexcept override {
    return buckets_.size() > 0;
  }

 private:
  /// The FIFO is split by the classes that can run each task, each part
  /// in arrival order, so the oldest task a device can run heads one of
  /// its class's buckets. A bucket is a vector + head cursor instead of
  /// std::deque: the steady state alternates push/pop a million times,
  /// and a deque oscillating across a block boundary pays an allocation
  /// per cycle. The consumed prefix is trimmed when the cursor passes
  /// half the (grown) buffer, keeping amortized O(1) pops and bounded
  /// memory.
  struct Fifo {
    std::vector<std::pair<std::uint64_t, core::Task*>> items;  ///< arrival
    std::size_t head = 0;
    bool empty() const noexcept { return head == items.size(); }
  };
  ClassBuckets<Fifo> buckets_;
  std::uint64_t arrivals_ = 0;
};

}  // namespace hetflow::sched
