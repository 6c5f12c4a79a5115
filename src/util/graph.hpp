// Directed-graph algorithms over workflow task graphs (depth, width and
// characterization, and the DAG checker): topological order, cycle
// detection, level assignment, weighted critical path, transitive
// reduction, reachability.
//
// Nodes are dense indices 0..n-1; the caller owns any payload mapping.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hetflow::util {

/// Adjacency-list digraph over dense node ids.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count) { resize(node_count); }

  void resize(std::size_t node_count);
  /// Appends one node, returning its id.
  std::size_t add_node();
  /// Adds edge src -> dst. Duplicate edges are allowed (and meaningful for
  /// multiplicity-sensitive algorithms); self-loops are rejected.
  void add_edge(std::size_t src, std::size_t dst);

  std::size_t node_count() const noexcept { return succ_.size(); }
  std::size_t edge_count() const noexcept { return edges_; }
  const std::vector<std::size_t>& successors(std::size_t node) const;
  const std::vector<std::size_t>& predecessors(std::size_t node) const;
  std::size_t in_degree(std::size_t node) const;
  std::size_t out_degree(std::size_t node) const;

  /// Nodes with no predecessors / successors.
  std::vector<std::size_t> sources() const;
  std::vector<std::size_t> sinks() const;

  bool has_cycle() const;

  /// Kahn topological order (deterministic: smallest id first).
  /// Throws InvalidArgument if the graph has a cycle.
  std::vector<std::size_t> topological_order() const;

  /// Level of each node = longest path (in edges) from any source.
  std::vector<std::size_t> levels() const;

  /// Longest path where each node contributes node_weight[node] and each
  /// edge src->dst contributes edge_weight(src, dst). Returns total weight
  /// and writes the path if `path` is non-null. DAG only.
  template <typename EdgeWeightFn>
  double critical_path(const std::vector<double>& node_weight,
                       EdgeWeightFn edge_weight,
                       std::vector<std::size_t>* path = nullptr) const;

  /// Critical path with zero edge weights.
  double critical_path(const std::vector<double>& node_weight,
                       std::vector<std::size_t>* path = nullptr) const;

  /// Set of nodes reachable from `node` (excluding itself unless cyclic).
  std::vector<bool> reachable_from(std::size_t node) const;

  /// Removes edges implied by longer paths. DAG only. Returns the number
  /// of edges removed. Duplicate edges collapse to one.
  std::size_t transitive_reduction();

 private:
  std::vector<std::vector<std::size_t>> succ_;
  std::vector<std::vector<std::size_t>> pred_;
  std::size_t edges_ = 0;

  void check_node(std::size_t node) const;
};

// --- template implementations -------------------------------------------

template <typename EdgeWeightFn>
double Digraph::critical_path(const std::vector<double>& node_weight,
                              EdgeWeightFn edge_weight,
                              std::vector<std::size_t>* path) const {
  const std::vector<std::size_t> order = topological_order();
  std::vector<double> dist(node_count(), 0.0);
  std::vector<std::size_t> best_pred(node_count(), node_count());
  double best = 0.0;
  std::size_t best_node = node_count();
  for (std::size_t node : order) {
    dist[node] += node_weight[node];
    if (dist[node] > best) {
      best = dist[node];
      best_node = node;
    }
    for (std::size_t succ : successors(node)) {
      const double cand = dist[node] + edge_weight(node, succ);
      if (cand > dist[succ]) {
        dist[succ] = cand;
        best_pred[succ] = node;
      }
    }
  }
  if (path != nullptr) {
    path->clear();
    for (std::size_t node = best_node; node != node_count();
         node = best_pred[node]) {
      path->push_back(node);
    }
    std::reverse(path->begin(), path->end());
  }
  return best;
}

}  // namespace hetflow::util
