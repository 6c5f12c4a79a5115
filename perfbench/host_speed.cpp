#include "host_speed.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

// A unit has three parts, each timed on its own: event-queue churn on a
// binary heap plus a sort (compute), a write of a 1.25 MiB buffer (memory)
// and small-object heap churn (allocator). On a shared 4-core VM no single
// kernel followed the workloads in every phase: allocator churn tracked
// them closest within a run (per-pass slope 0.9-1.0 against their time,
// compute alone 1.3-1.7) but in one phase slowed 30 % more than they did.
// The speed is the geometric mean of the three parts' speeds, so one
// part's own disturbance moves it by a third.
constexpr std::size_t kKeys = 1024;
constexpr std::size_t kFill = 160000;
constexpr int kRounds = 3;
constexpr int kObjects = 512;
constexpr int kParts = 3;
/// ns each part takes at the reference speed (a shared 4-core Xeon VM at
/// its usual speed); they only set the scale of rescaled times.
constexpr double kNominalNs[kParts] = {80000.0, 90000.0, 90000.0};
constexpr double kShare = 1.0 / 6.0;
constexpr std::int64_t kMinUnits = 2;

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - start).count();
}

}  // namespace

HostSpeed::HostSpeed() : keys_(kKeys), sorted_(kKeys), buffer_(kFill) {
  std::uint64_t state = 0x686f7374ULL;
  for (double& key : keys_) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    key = static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  heap_.reserve(kKeys);
  probe(0);
}

void HostSpeed::unit(double part_ns[]) {
  const Clock::time_point start = Clock::now();
  const auto later = [](const Event& a, const Event& b) {
    return a.time > b.time;
  };
  double clock = 0.0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    heap_.push_back({clock + keys_[i], static_cast<std::uint32_t>(i)});
    std::push_heap(heap_.begin(), heap_.end(), later);
    if (i % 2 == 1) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      clock = heap_.back().time;
      heap_.pop_back();
    }
  }
  heap_.clear();
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  sink_ += static_cast<std::uint64_t>(clock + sorted_[sink_ % kKeys]);
  const Clock::time_point computed = Clock::now();

  std::fill(buffer_.begin(), buffer_.end(), static_cast<double>(sink_ & 7));
  sink_ += static_cast<std::uint64_t>(buffer_[sink_ % kFill]);
  const Clock::time_point filled = Clock::now();

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<int>> objects;
    for (int i = 0; i < kObjects; ++i) {
      objects.emplace_back(8 + i % 13, i);
    }
    sink_ += static_cast<std::uint64_t>(objects[sink_ % kObjects].back());
  }
  const Clock::time_point churned = Clock::now();

  part_ns[0] += ns_since(start, computed);
  part_ns[1] += ns_since(computed, filled);
  part_ns[2] += ns_since(filled, churned);
}

double HostSpeed::probe(std::int64_t busy_ns) {
  std::int64_t units = kMinUnits;
  if (unit_ns_ > 0.0) {
    units = std::max<std::int64_t>(
        units, std::llround(kShare * static_cast<double>(busy_ns) / unit_ns_));
  }
  double part_ns[kParts] = {};
  for (std::int64_t i = 0; i < units; ++i) {
    unit(part_ns);
  }
  double log_speed = 0.0;
  unit_ns_ = 0.0;
  for (int p = 0; p < kParts; ++p) {
    const double ns = part_ns[p] / static_cast<double>(units);
    log_speed += std::log(kNominalNs[p] / ns) / kParts;
    unit_ns_ += ns;
  }
  return std::exp(log_speed);
}

}  // namespace perfbench
