// Ready tasks grouped by the set of device classes that can run them
// (core::can_run, asked once per class), for the pull policies. An idle
// device looks only at the buckets whose set holds its class, so tasks
// it cannot run cost it nothing however many are queued.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/task.hpp"

namespace hetflow::sched {

template <typename Queue>
class ClassBuckets {
 public:
  /// Tasks held across every bucket.
  std::size_t size() const noexcept { return size_; }

  /// The bucket to put `task` in: the one for the set of `platform`'s
  /// classes that can run it, created on first sight. It is counted as
  /// holding one more task.
  Queue& insert(const core::Task& task, const hw::Platform& platform) {
    const std::vector<hw::DeviceClass>& classes = platform.device_classes();
    drawn_by_.resize(classes.size());
    key_.clear();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (core::can_run(task, platform.device(classes[c].front()), platform)) {
        key_.push_back(c);
      }
    }
    const auto b = static_cast<std::size_t>(
        std::find(keys_.begin(), keys_.end(), key_) - keys_.begin());
    if (b == keys_.size()) {
      for (const std::size_t c : key_) {
        drawn_by_[c].push_back(b);
      }
      keys_.push_back(key_);
      queues_.emplace_back();
    }
    ++size_;
    return queues_[b];
  }

  /// The non-empty bucket `device` of `platform` can draw from that
  /// `before` orders first, or nullptr when there is none. The bucket is
  /// counted as holding one fewer task; the caller pops its head.
  template <typename Before>
  Queue* take(const hw::Device& device, const hw::Platform& platform,
              Before before) {
    if (size_ == 0) {
      return nullptr;
    }
    Queue* best = nullptr;
    for (const std::size_t b : drawn_by_[platform.class_of(device.id())]) {
      Queue& queue = queues_[b];
      if (!queue.empty() && (best == nullptr || before(queue, *best))) {
        best = &queue;
      }
    }
    size_ -= best != nullptr ? 1 : 0;
    return best;
  }

 private:
  /// Per class: the buckets whose set holds it, in creation order.
  std::vector<std::vector<std::size_t>> drawn_by_;
  std::vector<std::vector<std::size_t>> keys_;  ///< per bucket: its set
  std::vector<Queue> queues_;
  std::vector<std::size_t> key_;  ///< scratch for insert()
  std::size_t size_ = 0;
};

}  // namespace hetflow::sched
