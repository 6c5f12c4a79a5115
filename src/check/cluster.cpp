#include "check/cluster.hpp"

#include <algorithm>

#include "hw/cluster.hpp"
#include "util/strings.hpp"

namespace hetflow::check {

namespace {

/// Cluster nodes reachable from `start` over the fabric (BFS on the
/// undirected edge list); index = node, true = reachable.
std::vector<bool> fabric_reachable(
    std::size_t start, std::size_t node_count,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  std::vector<bool> seen(node_count, false);
  if (start >= node_count) {
    return seen;
  }
  std::vector<std::size_t> frontier = {start};
  seen[start] = true;
  while (!frontier.empty()) {
    const std::size_t at = frontier.back();
    frontier.pop_back();
    for (const auto& [a, b] : edges) {
      if (a >= node_count || b >= node_count) {
        continue;  // reported separately by the sanity pass
      }
      const std::size_t peer = a == at ? b : (b == at ? a : node_count);
      if (peer < node_count && !seen[peer]) {
        seen[peer] = true;
        frontier.push_back(peer);
      }
    }
  }
  return seen;
}

}  // namespace

ClusterRecord snapshot_cluster(const hw::Cluster& cluster) {
  ClusterRecord record;
  record.cluster_node_count = cluster.node_count();
  record.memory_to_node = cluster.memory_to_node();
  record.fabric_edges.reserve(cluster.fabric().size());
  for (const hw::FabricEdge& edge : cluster.fabric()) {
    record.fabric_edges.emplace_back(edge.src_node, edge.dst_node);
  }
  return record;
}

std::vector<Violation> check_cluster(const ClusterRecord& cluster,
                                     const DirectoryRecord& directory) {
  std::vector<Violation> violations;

  // -- Mapping sanity -------------------------------------------------
  if (cluster.memory_to_node.size() != directory.node_count) {
    violations.push_back(
        {ViolationKind::DanglingReference,
         util::format("cluster memory map covers %zu memory nodes but the "
                      "directory snapshot has %zu",
                      cluster.memory_to_node.size(), directory.node_count)});
    return violations;  // per-memory-node passes below would misindex
  }
  for (std::size_t m = 0; m < cluster.memory_to_node.size(); ++m) {
    if (cluster.memory_to_node[m] >= cluster.cluster_node_count) {
      violations.push_back(
          {ViolationKind::DanglingReference,
           util::format("memory node %zu maps to unknown cluster node %u", m,
                        cluster.memory_to_node[m]),
           Violation::npos, Violation::npos, Violation::npos, m});
    }
  }
  if (!violations.empty()) {
    return violations;
  }

  // -- Inter-node ownership -------------------------------------------
  for (std::size_t data = 0; data < directory.handle_count(); ++data) {
    std::size_t owner = static_cast<std::size_t>(-1);
    bool double_owner = false;
    std::vector<std::size_t> valid_nodes;  // cluster nodes, deduped
    for (std::size_t m = 0; m < directory.node_count; ++m) {
      const data::ReplicaState state = directory.state(data, m);
      if (state == data::ReplicaState::Invalid) {
        continue;
      }
      const std::size_t node = cluster.memory_to_node[m];
      if (std::find(valid_nodes.begin(), valid_nodes.end(), node) ==
          valid_nodes.end()) {
        valid_nodes.push_back(node);
      }
      if (state == data::ReplicaState::Modified) {
        if (owner != static_cast<std::size_t>(-1) && owner != node &&
            !double_owner) {
          double_owner = true;
          violations.push_back(
              {ViolationKind::CoherenceState,
               util::format("handle %zu owned Modified by two cluster nodes "
                            "(%zu and %zu) — ownership transfer failed to "
                            "revoke the old owner",
                            data, owner, node),
               Violation::npos, Violation::npos, data, m});
        }
        owner = node;
      }
    }
    if (!double_owner && owner != static_cast<std::size_t>(-1) &&
        valid_nodes.size() > 1) {
      violations.push_back(
          {ViolationKind::CoherenceState,
           util::format("handle %zu is Modified on cluster node %zu while "
                        "%zu other cluster node(s) still hold valid "
                        "replicas — a remote read must downgrade the owner "
                        "to Shared",
                        data, owner, valid_nodes.size() - 1),
           Violation::npos, Violation::npos, data, Violation::npos});
    }
  }

  // -- Transfer routes ------------------------------------------------
  for (std::size_t i = 0; i < cluster.transfers.size(); ++i) {
    const ClusterTransferRecord& transfer = cluster.transfers[i];
    if (transfer.src >= cluster.memory_to_node.size() ||
        transfer.dst >= cluster.memory_to_node.size()) {
      violations.push_back(
          {ViolationKind::DanglingReference,
           util::format("transfer %zu references unknown memory node %u", i,
                        std::max(transfer.src, transfer.dst))});
      continue;
    }
    const std::size_t src_node = cluster.memory_to_node[transfer.src];
    const std::size_t dst_node = cluster.memory_to_node[transfer.dst];
    if (src_node == dst_node) {
      continue;  // intra-node: always routable
    }
    const std::vector<bool> reachable = fabric_reachable(
        src_node, cluster.cluster_node_count, cluster.fabric_edges);
    if (!reachable[dst_node]) {
      violations.push_back(
          {ViolationKind::DanglingReference,
           util::format("transfer %zu crosses cluster nodes %zu -> %zu with "
                        "no fabric route between them",
                        i, src_node, dst_node),
           Violation::npos, Violation::npos, Violation::npos, transfer.dst});
    }
  }

  return violations;
}

}  // namespace hetflow::check
