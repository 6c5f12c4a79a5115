// MSI-style replica directory.
//
// For every handle the directory knows which memory nodes hold a valid
// replica and whether one of them is the exclusive modified owner. The
// protocol relies on the runtime's dependency tracking to serialize
// conflicting accesses, so state transitions are applied eagerly at
// acquire time (there is never a racing reader on a stale replica —
// enforced by HETFLOW_REQUIRE in debug-style checks).
#pragma once

#include <cstdint>
#include <vector>

#include "data/access.hpp"
#include "data/handle.hpp"
#include "hw/platform.hpp"

namespace hetflow::data {

enum class ReplicaState : std::uint8_t { Invalid = 0, Shared, Modified };

const char* to_string(ReplicaState state) noexcept;

class CoherenceDirectory {
 public:
  CoherenceDirectory(const hw::Platform& platform,
                     const DataRegistry& registry);

  /// Must be called after new handles are registered, before queries.
  /// The home node of each new handle starts as its sole Shared replica.
  void sync_with_registry();

  /// Fast-path equivalent of sync_with_registry for exactly one freshly
  /// registered handle (the DataManager::register_data hot loop): appends
  /// the handle's per-node slots and seeds the home replica directly,
  /// skipping the catch-up scan. Inline because a million-handle
  /// registration phase calls this once per handle.
  void note_registered(const DataHandle& handle) {
    HETFLOW_REQUIRE_MSG(
        states_.size() == static_cast<std::size_t>(handle.id) * node_count_,
        "note_registered out of sync with registry");
    for (std::size_t n = 0; n < node_count_; ++n) {
      states_.push_back(ReplicaState::Invalid);
    }
    states_[static_cast<std::size_t>(handle.id) * node_count_ +
            handle.home_node] = ReplicaState::Shared;
    // Ids register in ascending order, so the sorted residency list
    // grows at the back.
    resident_[handle.home_node].push_back(handle.id);
    resident_bytes_[handle.home_node] += handle.bytes;
  }

  ReplicaState state(DataId data, hw::MemoryNodeId node) const;
  bool has_valid_replica(DataId data, hw::MemoryNodeId node) const {
    return state(data, node) != ReplicaState::Invalid;
  }
  /// Nodes currently holding a valid replica, in node-id order.
  std::vector<hw::MemoryNodeId> valid_nodes(DataId data) const;
  /// True if any node holds a valid replica (false only after a bug or
  /// for never-initialized write-only data).
  bool any_valid(DataId data) const;

  /// Best source node for fetching `data` to `dst`: the valid replica
  /// with the smallest uncontended route time. Throws InternalError when
  /// no valid replica exists.
  hw::MemoryNodeId pick_source(DataId data, hw::MemoryNodeId dst) const;

  /// Transitions for the DataManager:
  void mark_shared(DataId data, hw::MemoryNodeId node);
  /// Makes `node` the exclusive modified owner, invalidating all other
  /// replicas. Returns the list of nodes that lost their replica (for
  /// allocator accounting).
  std::vector<hw::MemoryNodeId> mark_modified(DataId data,
                                              hw::MemoryNodeId node);
  void mark_invalid(DataId data, hw::MemoryNodeId node);

  /// Handles resident (valid) on one node, in id order.
  const std::vector<DataId>& resident(hw::MemoryNodeId node) const;

  /// Total replica bytes currently valid on `node`.
  std::uint64_t resident_bytes(hw::MemoryNodeId node) const;

 private:
  const hw::Platform* platform_;
  const DataRegistry* registry_;
  std::size_t node_count_;
  // states_[data * node_count_ + node]
  std::vector<ReplicaState> states_;
  std::vector<std::vector<DataId>> resident_;       // per node, sorted
  std::vector<std::uint64_t> resident_bytes_;       // per node

  void set_state(DataId data, hw::MemoryNodeId node, ReplicaState next);
  void check(DataId data, hw::MemoryNodeId node) const;
};

}  // namespace hetflow::data
