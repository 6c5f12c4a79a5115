// Cluster placement: the once-per-task input resolution in
// sched::ClusterScheduler against the per-(input, node) scoring it
// replaced (cluster_placement_reference.hpp), over seeded random
// clusters and DAGs, plus the rule that a node without a device for the
// task is never a candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster_placement_reference.hpp"
#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "sched/cluster.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

using testing::ReferenceClusterScheduler;

constexpr std::uint64_t kMiB = 1ULL << 20;

/// `nodes` members of 1 to `max_cpus` CPUs and 0 to `max_gpus` GPUs
/// each (so 1 to max_gpus + 1 memory nodes per member) on a 10 GbE-class
/// full-bisection fabric.
hw::Cluster random_cluster(std::size_t nodes, std::uint64_t seed,
                           std::int64_t max_cpus = 3,
                           std::int64_t max_gpus = 2) {
  util::Rng rng(util::hash_combine(seed, 0xc1));
  hw::ClusterBuilder builder(util::format("random%zu", nodes));
  for (std::size_t n = 0; n < nodes; ++n) {
    builder.add_node(hw::make_hpc_node(
        static_cast<std::size_t>(rng.uniform_int(1, max_cpus)),
        static_cast<std::size_t>(rng.uniform_int(0, max_gpus))));
  }
  builder.connect_all(1.25, 50e-6);
  return builder.build();
}

bool has_gpu(const hw::Cluster& cluster) {
  for (const hw::Device& device : cluster.platform().devices()) {
    if (device.type() == hw::DeviceType::Gpu) {
      return true;
    }
  }
  return false;
}

/// Submits a seeded random DAG: shared handles striped over every memory
/// node, 1-3 distinct accesses per task (Read, ReadWrite, Write, Redux),
/// fresh outputs registered along the way, some zero-byte handles, and a
/// mix of CPU+GPU, CPU-only and (when the cluster has a GPU) GPU-only
/// codelets. The same seed submits the same DAG to any runtime.
void submit_random_dag(core::Runtime& rt, const hw::Cluster& cluster,
                       std::uint64_t seed, std::size_t tasks) {
  util::Rng rng(util::hash_combine(seed, 0xda6));
  const std::size_t memories = cluster.platform().memory_node_count();
  const auto add_handle = [&](std::vector<data::DataId>& handles) {
    const std::uint64_t bytes =
        rng.bernoulli(0.1)
            ? 0
            : static_cast<std::uint64_t>(rng.uniform_int(1, 96)) * kMiB;
    handles.push_back(rt.register_data(
        util::format("d%zu", handles.size()), bytes,
        static_cast<hw::MemoryNodeId>(rng.index(memories))));
    return handles.back();
  };
  std::vector<data::DataId> handles;
  const std::size_t initial = 6 + rng.index(18);
  for (std::size_t i = 0; i < initial; ++i) {
    add_handle(handles);
  }
  const core::CodeletPtr both = testing::cpu_gpu_codelet();
  const core::CodeletPtr cpu = testing::cpu_only_codelet();
  const core::CodeletPtr gpu =
      core::Codelet::make("gpu-only", {{hw::DeviceType::Gpu, 0.8}});
  const bool gpus = has_gpu(cluster);
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<data::Access> accesses;
    const std::size_t count = 1 + rng.index(3);
    for (std::size_t a = 0; a < count; ++a) {
      const data::DataId data = handles[rng.index(handles.size())];
      bool duplicate = false;
      for (const data::Access& access : accesses) {
        duplicate = duplicate || access.data == data;
      }
      if (duplicate) {
        continue;
      }
      const double u = rng.uniform();
      const data::AccessMode mode =
          u < 0.5    ? data::AccessMode::Read
          : u < 0.65 ? data::AccessMode::ReadWrite
          : u < 0.8  ? data::AccessMode::Write
                     : data::AccessMode::Redux;
      accesses.push_back({data, mode});
    }
    if (rng.bernoulli(0.3)) {
      accesses.push_back({add_handle(handles), data::AccessMode::Write});
    }
    const double pick = rng.uniform();
    const core::CodeletPtr& codelet =
        pick < 0.75 ? both : (pick < 0.9 || !gpus ? cpu : gpu);
    rt.submit(util::format("t%zu", t), codelet, rng.uniform(1e8, 4e9),
              accesses);
  }
}

core::NodeFault whole_node_fault(const hw::Cluster& cluster, std::size_t node,
                                 double at, double recover) {
  core::NodeFault fault;
  fault.at = at;
  fault.recover_after = recover;
  fault.devices = cluster.devices_on(node);
  for (std::size_t m = 0; m < cluster.node(node).memory_count; ++m) {
    fault.memory_nodes.push_back(
        static_cast<hw::MemoryNodeId>(cluster.node(node).first_memory + m));
  }
  return fault;
}

struct Scenario {
  std::size_t nodes = 4;
  std::uint64_t seed = 0;
  std::string inner = "dmda";
  sched::PlacementPolicy policy = sched::PlacementPolicy::LocalityAware;
  std::int64_t max_cpus = 3;
  std::int64_t max_gpus = 2;
  std::size_t tasks = 80;
  core::RuntimeOptions options;
};

using Submit = std::function<void(core::Runtime&)>;

/// Runs `submit` on `cluster` under ClusterScheduler and under the
/// reference and requires the same node for every task (and so the same
/// run). Returns the run's stats, for checks that it exercised what it is
/// for.
core::RunStats expect_same_placements(const hw::Cluster& cluster,
                                      const Scenario& scenario,
                                      const Submit& submit) {
  SCOPED_TRACE(util::format("%zu nodes, seed %llu, cluster:%s",
                            cluster.node_count(),
                            static_cast<unsigned long long>(scenario.seed),
                            scenario.inner.c_str()));
  auto owned = std::make_unique<sched::ClusterScheduler>(
      cluster, scenario.inner, scenario.policy, scenario.seed);
  const sched::ClusterScheduler& placed = *owned;
  core::Runtime rt(cluster.platform(), std::move(owned), scenario.options);
  submit(rt);
  rt.wait_all();

  auto reference_owned = std::make_unique<ReferenceClusterScheduler>(
      cluster, scenario.inner, scenario.policy, scenario.seed);
  const ReferenceClusterScheduler& reference = *reference_owned;
  core::Runtime ref_rt(cluster.platform(), std::move(reference_owned),
                       scenario.options);
  submit(ref_rt);
  ref_rt.wait_all();

  EXPECT_EQ(rt.task_count(), ref_rt.task_count());
  std::size_t mismatches = 0;
  for (core::TaskId id = 0;
       id < std::min(rt.task_count(), ref_rt.task_count()); ++id) {
    const std::size_t got = placed.placement_of(id);
    const std::size_t want = reference.placement_of(id);
    if (rt.task(id).state() == core::TaskState::Completed) {
      EXPECT_NE(got, sched::ClusterScheduler::kNoPlacement) << "task " << id;
    }
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "task " << id << " placed on node " << got
                    << ", reference node " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(rt.stats().makespan_s, ref_rt.stats().makespan_s);
  EXPECT_EQ(rt.stats().tasks_completed, ref_rt.stats().tasks_completed);
  return rt.stats();
}

/// The seeded random cluster and DAG of `scenario`.
core::RunStats expect_same_placements(const Scenario& scenario) {
  const hw::Cluster cluster = random_cluster(
      scenario.nodes, scenario.seed, scenario.max_cpus, scenario.max_gpus);
  return expect_same_placements(
      cluster, scenario, [&](core::Runtime& rt) {
        submit_random_dag(rt, cluster, scenario.seed, scenario.tasks);
      });
}

TEST(ClusterPlacement, RandomClustersMatchReference) {
  const char* inners[] = {"dmda", "mct", "heft"};
  for (std::uint64_t seed = 0; seed < 19; ++seed) {
    Scenario scenario;
    scenario.nodes = 2 + seed;  // 2 .. 20
    scenario.seed = seed;
    scenario.inner = inners[seed % 3];
    scenario.tasks = 40 + 6 * seed;
    scenario.options.seed = seed;
    scenario.options.metrics = seed % 2 == 0;
    scenario.options.noise_cv = 0.1;
    expect_same_placements(scenario);
  }
}

TEST(ClusterPlacement, MoreThan64NodesMatchReference) {
  // Two planned-replica words per datum; enough tasks that nodes past
  // bit 63 receive work.
  for (const char* inner : {"dmda", "heft"}) {
    Scenario scenario;
    scenario.nodes = 70;
    scenario.seed = 64;
    scenario.inner = inner;
    scenario.tasks = 400;
    expect_same_placements(scenario);
  }
}

TEST(ClusterPlacement, RoundRobinMatchesReference) {
  Scenario scenario;
  scenario.nodes = 5;
  scenario.seed = 3;
  scenario.policy = sched::PlacementPolicy::RoundRobin;
  expect_same_placements(scenario);
}

TEST(ClusterPlacement, NodeFaultWithRecoveryMatchesReference) {
  // Node 1 fails at t = 2 s and rejoins 0.3 s later: tasks pinned to it
  // are re-placed among the survivors, and completed producers whose
  // outputs died with it are resurrected and placed again.
  for (const char* inner : {"dmda", "mct"}) {
    Scenario scenario;
    scenario.nodes = 6;
    scenario.seed = 11;
    scenario.inner = inner;
    scenario.tasks = 150;
    const hw::Cluster cluster = random_cluster(scenario.nodes, scenario.seed);
    scenario.options.node_faults.push_back(
        whole_node_fault(cluster, 1, 2.0, 0.3));
    const core::RunStats stats = expect_same_placements(scenario);
    EXPECT_EQ(stats.node_failures, 1u);
    EXPECT_GT(stats.tasks_resurrected, 0u);
  }
}

TEST(ClusterPlacement, EarlyNodeFaultOnWorkflowsMatchesReference) {
  // Node 1 fails early, with work queued on it: the orphaned tasks are
  // re-placed at once, some reading outputs whose only replica died and
  // whose producers are being regenerated, so predicted homes decide
  // where they go.
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 2, 1, 1.25);
  Scenario scenario;
  scenario.seed = 5;
  scenario.options.seed = 5;
  scenario.options.node_faults.push_back(
      whole_node_fault(cluster, 1, 0.05, 0.05));
  std::vector<hw::MemoryNodeId> homes;
  for (const hw::ClusterNode& node : cluster.nodes()) {
    homes.insert(homes.begin(), node.gateway);  // reverse node order
  }
  const core::RunStats stats =
      expect_same_placements(cluster, scenario, [&](core::Runtime& rt) {
        const workflow::CodeletLibrary library =
            workflow::CodeletLibrary::standard();
        workflow::submit_workflow_scattered(rt, workflow::make_montage(8),
                                            library, homes);
        workflow::submit_workflow_scattered(
            rt, workflow::make_cybershake(2, 6), library, homes);
        workflow::submit_workflow_scattered(
            rt, workflow::make_random_layered(6, 8, 10.0, 3), library, homes);
      });
  EXPECT_EQ(stats.node_failures, 1u);
  EXPECT_GT(stats.tasks_resurrected, 0u);
}

TEST(ClusterPlacement, BlacklistingMatchesReference) {
  // One CPU and at most one GPU per node, frequent failures and a
  // one-failure trip: whole nodes get quarantined, and at times every
  // node is, so the fallback to all capable nodes places tasks too. The
  // last seed places round-robin.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scenario scenario;
    if (seed == 4) {
      scenario.policy = sched::PlacementPolicy::RoundRobin;
    }
    scenario.nodes = 3;
    scenario.seed = seed;
    scenario.max_cpus = 1;
    scenario.max_gpus = 1;
    scenario.tasks = 60;
    scenario.options.seed = seed;
    scenario.options.failure_model = hw::FailureModel::uniform(3.0);
    scenario.options.failure_policy = core::FailurePolicy::Reschedule;
    scenario.options.retry.max_attempts = 8;
    scenario.options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
    scenario.options.retry.blacklist_after = 1;
    scenario.options.retry.probation_s = 0.3;
    const core::RunStats stats = expect_same_placements(scenario);
    std::uint64_t quarantines = 0;
    for (const core::DeviceRunStats& device : stats.devices) {
      quarantines += device.blacklist_events;
    }
    EXPECT_GT(quarantines, 0u);
  }
}

TEST(ClusterPlacement, NodeWithoutCapableDeviceIsNeverCandidate) {
  // Node 0 has CPUs only. A GPU-only task must run on node 1's GPU
  // under both policies, and CPU tasks still use both nodes.
  hw::ClusterBuilder builder("mixed");
  builder.add_node(hw::make_cpu_only(2));
  builder.add_node(hw::make_hpc_node(2, 1));
  builder.connect_all(1.25, 50e-6);
  const hw::Cluster cluster = builder.build();
  const core::CodeletPtr gpu =
      core::Codelet::make("gpu-only", {{hw::DeviceType::Gpu, 0.8}});
  for (const char* placement : {"locality", "blind"}) {
    SCOPED_TRACE(placement);
    auto owned = sched::make_cluster_scheduler(cluster, "dmda", placement);
    const auto& scheduler = dynamic_cast<const sched::ClusterScheduler&>(*owned);
    core::RuntimeOptions options;
    options.metrics = true;
    core::Runtime rt(cluster.platform(), std::move(owned), options);
    const data::DataId in = rt.register_data("in", 8 * kMiB, 0);
    std::vector<core::TaskId> gpu_tasks;
    std::vector<core::TaskId> cpu_tasks;
    for (int i = 0; i < 4; ++i) {
      gpu_tasks.push_back(rt.submit(util::format("g%d", i), gpu, 2e9,
                                    {{in, data::AccessMode::Read}}));
    }
    for (int i = 0; i < 4; ++i) {
      cpu_tasks.push_back(rt.submit(util::format("c%d", i),
                                    testing::cpu_only_codelet(), 2e9,
                                    {{in, data::AccessMode::Read}}));
    }
    rt.wait_all();
    for (const core::TaskId id : gpu_tasks) {
      EXPECT_EQ(rt.task(id).state(), core::TaskState::Completed);
      EXPECT_EQ(scheduler.placement_of(id), 1u);
      EXPECT_EQ(cluster.platform().device(rt.task(id).device()).type(),
                hw::DeviceType::Gpu);
    }
    std::vector<std::size_t> cpu_nodes;
    for (const core::TaskId id : cpu_tasks) {
      EXPECT_EQ(rt.task(id).state(), core::TaskState::Completed);
      cpu_nodes.push_back(scheduler.placement_of(id));
    }
    EXPECT_NE(std::count(cpu_nodes.begin(), cpu_nodes.end(), 0u), 0);
  }
}

TEST(ClusterPlacement, QuarantineFallbackAdmitsOnlyCapableNodes) {
  // Both nodes are down when the GPU-only tasks are released, so the
  // all-quarantined fallback places them: it must still skip node 0,
  // which has no GPU.
  hw::ClusterBuilder builder("mixed");
  builder.add_node(hw::make_cpu_only(2));
  builder.add_node(hw::make_hpc_node(2, 1));
  builder.connect_all(1.25, 50e-6);
  const hw::Cluster cluster = builder.build();
  const core::CodeletPtr gpu =
      core::Codelet::make("gpu-only", {{hw::DeviceType::Gpu, 0.8}});
  for (const char* placement : {"locality", "blind"}) {
    SCOPED_TRACE(placement);
    auto owned = sched::make_cluster_scheduler(cluster, "dmda", placement);
    const auto& scheduler = dynamic_cast<const sched::ClusterScheduler&>(*owned);
    core::RuntimeOptions options;
    for (std::size_t node = 0; node < 2; ++node) {
      options.node_faults.push_back(whole_node_fault(cluster, node, 0.1, 1.0));
    }
    core::Runtime rt(cluster.platform(), std::move(owned), options);
    std::vector<core::TaskId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(rt.submit(util::format("g%d", i), gpu, 2e9, {}));
      rt.task(ids.back()).set_release_time(0.5);
    }
    rt.wait_all();
    EXPECT_EQ(rt.stats().node_failures, 2u);
    for (const core::TaskId id : ids) {
      EXPECT_EQ(rt.task(id).state(), core::TaskState::Completed);
      EXPECT_EQ(scheduler.placement_of(id), 1u);
      EXPECT_GE(rt.task(id).times().started, 1.1);
    }
  }
}

}  // namespace
}  // namespace hetflow
