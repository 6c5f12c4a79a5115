// Replica pinning and LRU bookkeeping for device memories.
//
// The ledger does not itself decide *what* to evict — the DataManager
// combines it with the coherence directory for that — it tracks which
// replicas are pinned by in-flight tasks and in what recency order the
// unpinned ones were last used.
//
// Storage is a flat (data, node) directory like the coherence
// directory's: pin/touch on the acquire/release hot path are array
// loads, not hash probes. Vectors grow on demand as handles register.
#pragma once

#include <cstdint>
#include <vector>

#include "data/handle.hpp"
#include "hw/platform.hpp"

namespace hetflow::data {

class MemoryLedger {
 public:
  explicit MemoryLedger(const hw::Platform& platform);

  /// Pin/unpin a replica (nested pins allowed). A pinned replica must not
  /// be evicted or invalidated.
  void pin(DataId data, hw::MemoryNodeId node);
  void unpin(DataId data, hw::MemoryNodeId node);
  bool pinned(DataId data, hw::MemoryNodeId node) const;
  std::size_t pin_count(DataId data, hw::MemoryNodeId node) const;

  /// Records a use for LRU ordering.
  void touch(DataId data, hw::MemoryNodeId node);

  /// Sorts `candidates` least-recently-used first (never-touched replicas
  /// come first, in id order).
  void lru_order(hw::MemoryNodeId node, std::vector<DataId>& candidates) const;

  /// Drops every pin and LRU stamp on one memory node — the node-failure
  /// path, where the replicas themselves are gone and any pins belonged
  /// to attempts the runtime just killed.
  void clear_node(hw::MemoryNodeId node);

 private:
  std::size_t node_count_;
  std::vector<std::uint32_t> pins_;      ///< nested-pin counts
  std::vector<std::uint64_t> last_use_;  ///< LRU stamps (0 = never)
  std::uint64_t clock_ = 0;

  std::size_t key(DataId data, hw::MemoryNodeId node) const {
    return static_cast<std::size_t>(data) * node_count_ + node;
  }
};

}  // namespace hetflow::data
