#include "core/cost_cache.hpp"

#include "util/error.hpp"

namespace hetflow::core {

void CostModelCache::invalidate() {
  entries_.clear();
  index_.clear();
  filled_ = 0;
  ++invalidations_;
}

void CostModelCache::grow_index() {
  const std::size_t new_size = index_.empty() ? 32 : index_.size() * 2;
  std::vector<IndexSlot> grown(new_size);
  const std::size_t mask = new_size - 1;
  for (const IndexSlot& slot : index_) {
    if (slot.key == 0) {
      continue;
    }
    std::size_t pos = ((slot.key - 1) * 2654435761U) & mask;
    while (grown[pos].key != 0) {
      pos = (pos + 1) & mask;
    }
    grown[pos] = slot;
  }
  index_ = std::move(grown);
}

CostModelCache::Entry* CostModelCache::fill_row(const Codelet& codelet) {
  HETFLOW_REQUIRE_MSG(platform_ != nullptr,
                      "CostModelCache used before attach()");
  if ((filled_ + 1) * 2 > index_.size()) {
    grow_index();
  }
  const auto& devices = platform_->devices();
  const std::uint32_t row = static_cast<std::uint32_t>(entries_.size());
  for (const hw::Device& device : devices) {
    Entry entry;
    const DeviceFit fit = DeviceFit::of(codelet, device, *platform_);
    entry.capacity_bytes = fit.capacity_bytes;
    entry.implemented = fit.implemented;
    if (entry.implemented) {
      // Exact evaluation order of Codelet::compute_seconds' denominator:
      // (peak_gflops * 1e9) * efficiency.
      entry.denom = device.peak_gflops() * 1e9 *
                    codelet.efficiency(device.type());
    }
    entry.launch_overhead_s = device.launch_overhead_s();
    entry.nominal_dvfs =
        static_cast<std::uint32_t>(device.nominal_dvfs_index());
    entries_.push_back(entry);
  }

  const std::uint32_t key = codelet.id() + 1;
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = (codelet.id() * 2654435761U) & mask;
  while (index_[pos].key != 0) {
    pos = (pos + 1) & mask;
  }
  index_[pos] = IndexSlot{key, row};
  ++filled_;
  return entries_.data() + row;
}

}  // namespace hetflow::core
