// Test oracle for sched::TaskGraphView (sched/graph_utils.hpp).
//
// ReferenceGraphView is the general-graph formulation the dense view
// replaced: an id -> index hash map, a util::Digraph over the open tasks,
// edge bytes in a hash map keyed by (parent, child), per-device exec
// estimates, and ranks computed over Digraph::topological_order (Kahn's
// algorithm over a min-heap). It assumes nothing about the order of its
// input, so a differential test against it checks the dense view's
// reliance on ascending-id input. The rank recurrences live here too,
// as free functions over a Digraph.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "perf/transfer_model.hpp"
#include "util/graph.hpp"

namespace hetflow::testing {

/// Upward rank per node: rank(n) = node_weight[n] + max over successors s
/// of (edge_weight(n, s) + rank(s)). The classic HEFT priority. DAG only.
template <typename EdgeWeightFn>
std::vector<double> reference_upward_ranks(
    const util::Digraph& graph, const std::vector<double>& node_weight,
    EdgeWeightFn edge_weight) {
  const std::vector<std::size_t> order = graph.topological_order();
  std::vector<double> rank(graph.node_count(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t node = *it;
    double best = 0.0;
    for (std::size_t succ : graph.successors(node)) {
      best = std::max(best, edge_weight(node, succ) + rank[succ]);
    }
    rank[node] = node_weight[node] + best;
  }
  return rank;
}

/// Downward rank: rank(n) = max over predecessors p of
/// (rank(p) + node_weight[p] + edge_weight(p, n)). DAG only.
template <typename EdgeWeightFn>
std::vector<double> reference_downward_ranks(
    const util::Digraph& graph, const std::vector<double>& node_weight,
    EdgeWeightFn edge_weight) {
  const std::vector<std::size_t> order = graph.topological_order();
  std::vector<double> rank(graph.node_count(), 0.0);
  for (std::size_t node : order) {
    for (std::size_t succ : graph.successors(node)) {
      rank[succ] = std::max(
          rank[succ], rank[node] + node_weight[node] + edge_weight(node, succ));
    }
  }
  return rank;
}

class ReferenceGraphView {
 public:
  /// Builds the view over `tasks` in any order (dependencies to tasks
  /// outside the set are ignored).
  static ReferenceGraphView build(const core::SchedContext& ctx,
                                  const std::vector<core::Task*>& tasks) {
    ReferenceGraphView view;
    view.tasks_ = tasks;
    view.graph_.resize(tasks.size());
    view.mean_exec_.assign(tasks.size(), 0.0);

    std::unordered_map<core::TaskId, std::size_t> index;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      index[tasks[i]->id()] = i;
    }
    const data::DataRegistry& registry = ctx.data_registry();
    for (std::size_t child = 0; child < tasks.size(); ++child) {
      for (core::TaskId parent_id : tasks[child]->dependencies) {
        const auto it = index.find(parent_id);
        if (it == index.end()) {
          continue;  // parent completed in an earlier wave
        }
        const std::size_t parent = it->second;
        view.graph_.add_edge(parent, child);
        // Edge payload: handles the parent writes that the child reads.
        std::uint64_t bytes = 0;
        for (const data::Access& out : tasks[parent]->accesses()) {
          if (!data::is_write(out.mode) && !data::is_redux(out.mode)) {
            continue;
          }
          for (const data::Access& in : tasks[child]->accesses()) {
            if (data::is_read(in.mode) && in.data == out.data) {
              bytes += registry.handle(in.data).bytes;
              break;
            }
          }
        }
        view.edge_bytes_[key(parent, child)] = bytes;
      }
    }

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      double total = 0.0;
      std::size_t count = 0;
      for (const hw::Device& device : ctx.platform().devices()) {
        const double est = ctx.estimate_exec_seconds(*tasks[i], device);
        if (std::isfinite(est)) {
          total += est;
          ++count;
        }
      }
      view.mean_exec_[i] = total / static_cast<double>(count);
    }
    return view;
  }

  const util::Digraph& graph() const noexcept { return graph_; }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Bytes flowing over dependency edge a -> b (0 if none recorded).
  std::uint64_t edge_bytes(std::size_t a, std::size_t b) const {
    const auto it = edge_bytes_.find(key(a, b));
    return it == edge_bytes_.end() ? 0 : it->second;
  }

  std::vector<double> upward_ranks(const hw::Platform& platform) const {
    const perf::TransferModel comm(platform);
    return reference_upward_ranks(
        graph_, mean_exec_, [&](std::size_t a, std::size_t b) {
          return comm.mean_time_s(edge_bytes(a, b));
        });
  }

  std::vector<double> downward_ranks(const hw::Platform& platform) const {
    const perf::TransferModel comm(platform);
    return reference_downward_ranks(
        graph_, mean_exec_, [&](std::size_t a, std::size_t b) {
          return comm.mean_time_s(edge_bytes(a, b));
        });
  }

 private:
  static std::uint64_t key(std::size_t a, std::size_t b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::vector<core::Task*> tasks_;
  util::Digraph graph_;
  std::unordered_map<std::uint64_t, std::uint64_t> edge_bytes_;
  std::vector<double> mean_exec_;
};

}  // namespace hetflow::testing
