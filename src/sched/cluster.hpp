// Two-level cluster scheduling: a global placement layer that pins each
// task to one cluster node, plus an unmodified per-node scheduler (any
// policy from sched::make_scheduler) that places it on a device WITHIN
// that node.
//
// The split mirrors production HPC stacks: inter-node placement is a
// locality problem (minimize fabric traffic against node load), while
// intra-node placement is a heterogeneity problem (CPU vs GPU, queue
// depths, DVFS) the existing policies already solve. Each inner
// scheduler sees its node through a narrowing SchedContext whose
// platform() is the original per-node Platform — inner policies iterate
// node-local devices only and never learn the cluster exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "data/distributed.hpp"
#include "hw/cluster.hpp"

namespace hetflow::sched {

/// Global placement policy of the top level.
enum class PlacementPolicy {
  /// Score nodes by fabric transfer time for non-resident inputs (live
  /// MSI residency when available, predicted producer placement
  /// otherwise) plus a node load term. The default.
  LocalityAware,
  /// Ignore data placement entirely — round-robin over usable nodes.
  /// The ablation baseline bench_cluster_scaling compares against.
  RoundRobin,
};

class ClusterScheduler final : public core::Scheduler {
 public:
  static constexpr std::size_t kNoPlacement = static_cast<std::size_t>(-1);

  /// `inner` is any sched::make_scheduler name; one instance is created
  /// per cluster node (seeded seed + node index). The cluster must
  /// outlive the scheduler.
  ClusterScheduler(const hw::Cluster& cluster, const std::string& inner,
                   PlacementPolicy placement = PlacementPolicy::LocalityAware,
                   std::uint64_t seed = 0);
  ~ClusterScheduler() override;

  std::string name() const override;
  bool requires_full_graph() const noexcept override;
  void attach(core::SchedContext& ctx) override;
  void prepare(const std::vector<core::Task*>& all_tasks) override;
  void on_task_ready(core::Task& task) override;
  core::Task* on_device_idle(const hw::Device& device) override;
  bool has_retained_work() const noexcept override;
  void on_task_complete(const core::Task& task) override;
  void on_task_failed(const core::Task& task, hw::DeviceId device) override;

  /// Cluster node `task` was pinned to, or kNoPlacement (test hook).
  std::size_t placement_of(core::TaskId task) const;

 private:
  class NodeContext;
  struct Placement {
    std::size_t node = kNoPlacement;
    double est_s = 0.0;  ///< exec estimate charged to node_load_s_
  };

  /// One read or redux input of the task being placed, resolved once
  /// per task: every candidate node is scored from these facts.
  struct Input {
    std::uint64_t bytes = 0;
    /// [first, last) of replica_nodes_: the cluster nodes holding a
    /// valid replica, ascending.
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t predicted = kNoPlacement;    ///< predicted home
    const std::uint64_t* planned = nullptr;  ///< planned-replica row
  };

  bool node_usable(std::size_t n) const;
  double est_exec_on(const core::Task& task, std::size_t n) const;
  void resolve_inputs(const core::Task& task);
  double transfer_cost_s(std::size_t n) const;
  /// Picks the node and returns its exec estimate through `est`.
  std::size_t choose_node(const core::Task& task, double& est);
  std::size_t place(const core::Task& task);
  const Placement* find_placement(core::TaskId task) const;

  const hw::Cluster* cluster_;
  std::string inner_name_;
  PlacementPolicy policy_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<core::Scheduler>> inners_;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  /// Cluster-grouped view of the runtime's live MSI directory; null when
  /// the attached context exposes no coherence() (locality then degrades
  /// to predicted producer homes only).
  std::unique_ptr<data::DistributedDirectory> directory_;
  /// Indexed by TaskId; node == kNoPlacement for tasks not placed.
  std::vector<Placement> placements_;
  /// Indexed by DataId: where each datum's next value will materialize,
  /// updated as writers are placed — lets consumers chase producers
  /// BEFORE anything runs (kNoPlacement = unknown).
  std::vector<std::size_t> predicted_home_;
  /// Nodes a datum is already bound to reach (producer placed there, or
  /// an earlier consumer will fetch it there), as a bitset of
  /// words_per_datum_ words per DataId. MSI replicates on read, so once
  /// one local consumer pays the fabric hop every later one rides the
  /// replica — without this, locality scoring piles every consumer of a
  /// hot datum onto its producer's node while blind round-robin gets the
  /// amortization for free and wins at scale.
  std::vector<std::uint64_t> planned_replica_;
  std::size_t words_per_datum_ = 0;
  /// Max placed-count spread the locality score may open up between
  /// nodes. Within the cap, data affinity decides; beyond it, the
  /// emptier nodes win regardless — flop estimates underprice real
  /// per-task cost, so unbounded affinity serializes wide stages.
  static constexpr std::uint32_t kBalanceSlack = 1;
  /// Fraction of the fabric hop charged when only a *planned* replica
  /// (another placed-but-not-run consumer's fetch) would cover a node.
  static constexpr double kPlannedReplicaDiscount = 0.5;

  std::vector<double> node_load_s_;  ///< outstanding placed exec seconds
  std::vector<std::uint32_t> node_count_;  ///< tasks placed per node
  std::size_t next_node_ = 0;        ///< round-robin cursor
  // Per-task scratch, kept so placement allocates nothing per task.
  std::vector<std::size_t> candidates_;
  std::vector<double> est_;  ///< per node, for the task being placed
  std::vector<Input> inputs_;
  std::vector<std::size_t> replica_nodes_;
};

/// Factory used by tools: placement "locality" | "blind".
std::unique_ptr<core::Scheduler> make_cluster_scheduler(
    const hw::Cluster& cluster, const std::string& inner,
    const std::string& placement = "locality", std::uint64_t seed = 0);

}  // namespace hetflow::sched
