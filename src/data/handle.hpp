// Logical data items (the "files"/"buffers" workflow tasks exchange).
//
// A DataHandle describes one logical datum: its size and the memory node
// holding its initial (home) copy. Physical replicas across memory nodes
// are tracked by the CoherenceDirectory.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "hw/device.hpp"
#include "util/error.hpp"
#include "util/interner.hpp"

namespace hetflow::data {

using DataId = std::uint32_t;

struct DataHandle {
  DataId id = 0;
  /// View into the owning registry's name arena — valid for the
  /// registry's lifetime, no per-handle string allocation.
  std::string_view name;
  std::uint64_t bytes = 0;
  hw::MemoryNodeId home_node = 0;
};

/// Owns all registered handles of one runtime instance.
class DataRegistry {
 public:
  /// Registers a datum whose initial valid copy lives on `home_node`.
  /// Zero-byte data is allowed (pure control dependencies). The name is
  /// copied once into the registry's name arena; the argument may be
  /// transient.
  DataId register_data(std::string_view name, std::uint64_t bytes,
                       hw::MemoryNodeId home_node);

  // Inline: probed several times per task on the assignment hot path.
  const DataHandle& handle(DataId id) const {
    HETFLOW_REQUIRE_MSG(id < handles_.size(), "data id out of range");
    return handles_[id];
  }
  std::size_t count() const noexcept { return handles_.size(); }
  const std::vector<DataHandle>& handles() const noexcept { return handles_; }

  /// Total bytes across all handles.
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

 private:
  /// Declared before handles_ so handle name views die first.
  util::NameArena names_;
  std::vector<DataHandle> handles_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace hetflow::data
