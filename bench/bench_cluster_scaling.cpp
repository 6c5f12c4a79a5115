// Cluster scaling — strong and weak scaling of two-level scheduling
// over multi-node clusters, and the locality-aware vs blind placement
// ablation.
//
// Strong scaling: three fixed workflows (montage and cybershake are
// data-heavy — wide stages exchanging hundreds of MB through shared
// files; forkjoin is compute-dominated) run on 2/4/8/16-node clusters
// under both placement policies. The clusters use a deliberately
// bandwidth-constrained fabric (1.25 GB/s, 10 GbE class, vs the
// 100 Gb default) — the ablation targets the data-movement-dominated
// regime, where every needless crossing costs milliseconds. Expected
// shape: locality-aware placement pulls ahead of blind round-robin as
// the node count grows, because blind placement scatters consumers
// away from their producers; on the data-heavy shapes the gap should
// be visible from 8 nodes on. Compute-bound forkjoin is the control —
// placement barely matters there.
//
// Weak scaling: an independent-task bag grows proportionally with the
// cluster (48 tasks per node), so ideal makespan is flat. The wobble
// that remains is gateway staging + scheduler serialization; staying
// within 2x of the 2-node makespan through 16 nodes is the acceptance
// bar for the cluster hot path.
//
// Emits BENCH_cluster.json (schema row "cluster_scaling" in
// tools/bench_diff.py). --smoke caps the grid at 2/4 nodes for CI and
// tags the file "smoke": true, which bench_diff.py refuses to compare
// with a full run.
#include "bench_common.hpp"

#include <cstring>
#include <fstream>

#include "hw/cluster.hpp"
#include "sched/cluster.hpp"
#include "util/json.hpp"

namespace {

using namespace hetflow;

struct Shape {
  const char* name;
  bool data_heavy;  ///< locality is expected to win here at scale
  workflow::Workflow (*make)();
};

workflow::Workflow make_montage_shape() { return workflow::make_montage(64); }
workflow::Workflow make_cybershake_shape() {
  return workflow::make_cybershake(16, 20);
}
workflow::Workflow make_forkjoin_shape() {
  return workflow::make_fork_join(32, 6, 0.5, 1);
}

struct Cell {
  const Shape* shape;
  std::size_t nodes;
  sched::PlacementPolicy placement;
};

const char* placement_name(sched::PlacementPolicy policy) {
  return policy == sched::PlacementPolicy::LocalityAware ? "locality"
                                                         : "blind";
}

core::RunStats run_on_cluster(const workflow::Workflow& wf,
                              std::size_t nodes,
                              sched::PlacementPolicy placement) {
  const hw::Cluster cluster = hw::make_hpc_cluster(nodes, 4, 1, 1.25);
  core::Runtime runtime(
      cluster.platform(),
      std::make_unique<sched::ClusterScheduler>(cluster, "dmda", placement),
      bench::bench_options());
  std::vector<hw::MemoryNodeId> homes;
  for (const hw::ClusterNode& node : cluster.nodes()) {
    homes.push_back(node.gateway);
  }
  workflow::submit_workflow_scattered(runtime, wf,
                                      workflow::CodeletLibrary::standard(),
                                      homes);
  runtime.wait_all();
  return runtime.stats();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::print_experiment_header(
      "Cluster scaling",
      "strong/weak scaling of two-level scheduling; locality vs blind "
      "placement");

  const std::vector<Shape> shapes = {
      {"montage", true, make_montage_shape},
      {"cybershake", true, make_cybershake_shape},
      {"forkjoin", false, make_forkjoin_shape},
  };
  const std::vector<std::size_t> node_counts =
      smoke ? std::vector<std::size_t>{2, 4}
            : std::vector<std::size_t>{2, 4, 8, 16};
  const std::vector<sched::PlacementPolicy> placements = {
      sched::PlacementPolicy::LocalityAware,
      sched::PlacementPolicy::RoundRobin,
  };

  // --- strong scaling grid --------------------------------------------
  std::vector<Cell> cells;
  for (const Shape& shape : shapes) {
    for (std::size_t nodes : node_counts) {
      for (sched::PlacementPolicy placement : placements) {
        cells.push_back({&shape, nodes, placement});
      }
    }
  }
  const std::vector<core::RunStats> stats =
      exec::parallel_map<core::RunStats>(
          cells.size(), bench::jobs(), [&](std::size_t i) {
            const Cell& cell = cells[i];
            return run_on_cluster(cell.shape->make(), cell.nodes,
                                  cell.placement);
          });

  util::Json runs = util::Json::array();
  bool locality_wins_at_scale = true;
  for (const Shape& shape : shapes) {
    std::cout << "shape: " << shape.name
              << (shape.data_heavy ? " (data-heavy)" : " (compute-bound)")
              << '\n';
    util::Table table({"nodes", "placement", "makespan s", "speedup",
                       "moved GB", "transfers"});
    double base = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (cell.shape != &shape) {
        continue;
      }
      const core::RunStats& s = stats[i];
      if (cell.nodes == node_counts.front() &&
          cell.placement == sched::PlacementPolicy::LocalityAware) {
        base = s.makespan_s;
      }
      table.add_row({std::to_string(cell.nodes),
                     placement_name(cell.placement),
                     util::format("%.3f", s.makespan_s),
                     util::format("%.2fx", base / s.makespan_s),
                     util::format("%.2f",
                                  static_cast<double>(
                                      s.transfers.bytes_moved) / 1e9),
                     std::to_string(s.transfers.transfer_count)});
      util::Json run = util::Json::object();
      run["mode"] = "strong";
      run["shape"] = shape.name;
      run["nodes"] = cell.nodes;
      run["placement"] = placement_name(cell.placement);
      run["makespan_s"] = s.makespan_s;
      run["bytes_moved"] = s.transfers.bytes_moved;
      run["transfer_count"] = s.transfers.transfer_count;
      runs.push_back(std::move(run));
    }
    table.print(std::cout);
    std::cout << '\n';

    // Ablation claim: on data-heavy shapes at >= 8 nodes, locality-aware
    // placement must not lose to blind round-robin. Deltas under half a
    // percent are event-ordering noise on a shared structural bound
    // (both policies saturating the same critical path), not a policy
    // signal, so the check carries a small tolerance.
    if (shape.data_heavy) {
      for (std::size_t n = 0; n < node_counts.size(); ++n) {
        if (node_counts[n] < 8) {
          continue;
        }
        double aware = 0.0;
        double blind = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (cells[i].shape != &shape || cells[i].nodes != node_counts[n]) {
            continue;
          }
          (cells[i].placement == sched::PlacementPolicy::LocalityAware
               ? aware
               : blind) = stats[i].makespan_s;
        }
        if (aware > blind * 1.005) {
          locality_wins_at_scale = false;
          std::cout << "!! locality lost to blind on " << shape.name << " at "
                    << node_counts[n] << " nodes (" << aware << " vs "
                    << blind << " s)\n";
        }
      }
    }
  }

  // --- weak scaling ----------------------------------------------------
  std::cout << "weak scaling: bag of 48 tasks/node, ideal = flat makespan\n";
  const std::vector<core::RunStats> weak =
      exec::parallel_map<core::RunStats>(
          node_counts.size(), bench::jobs(), [&](std::size_t i) {
            const std::size_t nodes = node_counts[i];
            return run_on_cluster(
                workflow::make_bag(48 * nodes, 2e9, 8 << 20), nodes,
                sched::PlacementPolicy::LocalityAware);
          });
  util::Table weak_table({"nodes", "tasks", "makespan s", "efficiency"});
  const double weak_base = weak.front().makespan_s;
  bool weak_within_bound = true;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const double efficiency = weak_base / weak[i].makespan_s;
    weak_within_bound = weak_within_bound && weak[i].makespan_s <=
                                                 2.0 * weak_base;
    weak_table.add_row({std::to_string(node_counts[i]),
                        std::to_string(48 * node_counts[i]),
                        util::format("%.3f", weak[i].makespan_s),
                        util::format("%.2f", efficiency)});
    util::Json run = util::Json::object();
    run["mode"] = "weak";
    run["shape"] = "bag";
    run["nodes"] = node_counts[i];
    run["placement"] = "locality";
    run["makespan_s"] = weak[i].makespan_s;
    run["bytes_moved"] = weak[i].transfers.bytes_moved;
    run["transfer_count"] = weak[i].transfers.transfer_count;
    runs.push_back(std::move(run));
  }
  weak_table.print(std::cout);
  std::cout << (weak_within_bound
                    ? "weak scaling within 2x of ideal through "
                    : "!! weak scaling breaches the 2x bound by ")
            << node_counts.back() << " nodes\n";

  util::Json doc = util::Json::object();
  doc["bench"] = "cluster_scaling";
  doc["experiment"] = "cluster_scaling";
  doc["scheduler"] = "cluster:dmda";
  doc["per_node"] = "4 cpus + 1 gpu";
  doc["locality_wins_at_scale"] = locality_wins_at_scale;
  doc["weak_within_2x"] = weak_within_bound;
  doc["smoke"] = smoke;
  doc["runs"] = std::move(runs);
  std::ofstream out("BENCH_cluster.json");
  out << doc.dump_pretty() << '\n';
  std::cout << "wrote BENCH_cluster.json\n";
  return locality_wins_at_scale && weak_within_bound ? 0 : 1;
}
