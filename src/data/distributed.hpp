// Cluster-level view over the flat MSI directory.
//
// The flat CoherenceDirectory stays the single source of truth for
// replica states on every memory node of the flattened cluster
// Platform; this view groups its per-memory-node answers by *cluster
// node* so placement scoring can ask "which nodes hold this datum?"
// without knowing about hw::Cluster (the grouping arrives as a plain
// memory-node -> cluster-node vector, keeping the data layer decoupled
// from cluster construction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/coherence.hpp"
#include "data/handle.hpp"

namespace hetflow::data {

class DistributedDirectory {
 public:
  /// `memory_to_node[m]` is the cluster node owning flat memory node m
  /// (hw::Cluster::memory_to_node()). The directory must outlive this
  /// view.
  DistributedDirectory(const CoherenceDirectory& directory,
                       std::vector<std::uint32_t> memory_to_node);

  /// Appends to `out`, in ascending order, every cluster node on which
  /// any memory node holds a valid replica of `data`. One pass over the
  /// datum's directory row; allocates only if `out` must grow.
  void append_replica_nodes(DataId data, std::vector<std::size_t>& out) const;

 private:
  const CoherenceDirectory* directory_;
  // memory node ids of each cluster node, grouped for iteration
  std::vector<std::vector<hw::MemoryNodeId>> members_;
};

}  // namespace hetflow::data
