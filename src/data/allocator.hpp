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
//
// Eviction index. A node that has to make room gets an index of its
// resident replicas in victim order: ascending (last-use stamp, id).
// Stamps come from one clock shared by all nodes, so every touched
// replica has a distinct stamp; never-touched replicas have stamp 0 and
// come first, in id order. The index is built the first time the node
// must evict (build_index) and from then on kept equal to the node's
// resident set by the coherence directory (note_valid/note_invalid);
// nodes that never run out of room never pay for it. It has two parts:
//   - the recency list, an intrusive doubly linked list over data ids
//     whose stamps ascend from head to tail. touch() moves a listed
//     replica to the tail in O(1) without allocating, and a replica
//     whose stamp is newer than the tail's (one touched just before it
//     became valid, as every fetch is) is appended the same way;
//   - the stale set, an ordered set for replicas that become valid again
//     with an older stamp than the tail's: the home copy re-validated by
//     a write-back, a freshly registered home copy (stamp 0). O(log R)
//     per insert, and a later touch moves the replica to the list.
// walk_lru merges the two, so a victim walk visits the least recent
// replica first and stops as soon as enough room is free.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <utility>
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

  /// Records a use for LRU ordering: the replica gets the newest stamp
  /// and, when it is in `node`'s eviction index, moves to its tail.
  void touch(DataId data, hw::MemoryNodeId node);
  /// Last-use stamp of a replica (0 = never touched).
  std::uint64_t last_use(DataId data, hw::MemoryNodeId node) const {
    const std::size_t slot = key(data, node);
    return slot < last_use_.size() ? last_use_[slot] : 0;
  }

  /// True once `node` has an eviction index.
  bool indexed(hw::MemoryNodeId node) const {
    return indexes_[node].built;
  }
  /// Builds `node`'s eviction index over `resident`, the replicas valid
  /// there (any order).
  void build_index(hw::MemoryNodeId node, std::span<const DataId> resident);
  /// A replica became valid / stopped being valid on an indexed node.
  void note_valid(DataId data, hw::MemoryNodeId node);
  void note_invalid(DataId data, hw::MemoryNodeId node);

  /// Visits `node`'s indexed replicas in victim order, ascending
  /// (last-use stamp, id), until `visit(data)` returns false. `visit` may
  /// invalidate the replica it was handed (the walk has already stepped
  /// past it), but must not otherwise change this node's index.
  template <typename Visit>
  void walk_lru(hw::MemoryNodeId node, Visit&& visit) const;

  /// Drops every pin, LRU stamp and the eviction index of one memory
  /// node — the node-failure path, where the replicas themselves are gone
  /// and any pins belonged to attempts the runtime just killed.
  void clear_node(hw::MemoryNodeId node);

 private:
  /// Link values that are not data ids.
  static constexpr DataId kNil = 0xFFFFFFFF;     ///< end of the list
  static constexpr DataId kAbsent = 0xFFFFFFFE;  ///< not in the index
  static constexpr DataId kStale = 0xFFFFFFFD;   ///< in the stale set

  struct Link {
    DataId prev = kAbsent;
    DataId next = kAbsent;
  };
  using Key = std::pair<std::uint64_t, DataId>;  ///< (stamp, id)

  struct NodeIndex {
    bool built = false;
    DataId head = kNil;
    DataId tail = kNil;
    std::vector<Link> links;  ///< by data id, grown on demand
    std::set<Key> stale;
  };

  std::size_t node_count_;
  std::vector<std::uint32_t> pins_;      ///< nested-pin counts
  std::vector<std::uint64_t> last_use_;  ///< LRU stamps (0 = never)
  std::uint64_t clock_ = 0;
  std::vector<NodeIndex> indexes_;       ///< one per memory node

  std::size_t key(DataId data, hw::MemoryNodeId node) const {
    return static_cast<std::size_t>(data) * node_count_ + node;
  }
  Key order_key(DataId data, hw::MemoryNodeId node) const {
    return {last_use(data, node), data};
  }
  /// Takes an indexed replica out of the list or the stale set; its
  /// stamp must still be the one it was indexed under.
  void detach(DataId data, hw::MemoryNodeId node);
  static void append(NodeIndex& index, DataId data);
  static void unlink(NodeIndex& index, DataId data);
};

template <typename Visit>
void MemoryLedger::walk_lru(hw::MemoryNodeId node, Visit&& visit) const {
  const NodeIndex& index = indexes_[node];
  DataId listed = index.head;
  auto stale = index.stale.begin();
  while (listed != kNil || stale != index.stale.end()) {
    DataId data;
    if (stale == index.stale.end() ||
        (listed != kNil && order_key(listed, node) < *stale)) {
      data = listed;
      listed = index.links[listed].next;
    } else {
      data = stale->second;
      ++stale;
    }
    if (!visit(data)) {
      return;
    }
  }
}

}  // namespace hetflow::data
