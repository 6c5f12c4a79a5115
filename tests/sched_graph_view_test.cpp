// Differential test of sched::TaskGraphView, the dense view HEFT, CPOP,
// PEFT, dmdas and critical-path rank with, against the general-graph
// reference in graph_view_reference.hpp (a util::Digraph, hash maps and
// a min-heap topological order). A probe scheduler hands every open-task
// vector the runtime passes to prepare() to both views and compares, bit
// for bit: the predecessor and successor rows in order, each edge's
// bytes, upward and downward ranks, and the priorities
// prioritize_by_upward_rank sets. The inputs cover every workflow spec
// generator on the HPC node and the workstation, random DAGs mixing
// Read, Write, ReadWrite and Redux accesses (some reading one handle
// twice) over two waves, and the per-node slices cluster:heft plans.
#include "sched/graph_utils.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "graph_view_reference.hpp"
#include "helpers.hpp"
#include "hw/cluster.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/spec.hpp"
#include "workflow/workflow.hpp"

namespace hetflow::sched {
namespace {

using hetflow::testing::ReferenceGraphView;

/// Runs `inner` unchanged; after each prepare() it also hands the open
/// tasks the runtime passed, with the scheduler's context, to `hook`.
class PrepareProbe final : public hetflow::testing::ForwardingScheduler {
 public:
  using Hook = std::function<void(const core::SchedContext&,
                                  const std::vector<core::Task*>&)>;

  PrepareProbe(std::unique_ptr<core::Scheduler> inner, Hook hook)
      : ForwardingScheduler(std::move(inner)), hook_(std::move(hook)) {}

  void prepare(const std::vector<core::Task*>& all_tasks) override {
    inner().prepare(all_tasks);
    hook_(ctx(), all_tasks);
  }

 private:
  Hook hook_;
};

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << label << ": " << what << " of position " << i << " is " << got[i]
        << ", reference " << want[i];
  }
}

/// Builds both views over `tasks` and compares them field by field.
void expect_matches_reference(const core::SchedContext& ctx,
                              const std::vector<core::Task*>& tasks,
                              const std::string& label) {
  const TaskGraphView view = TaskGraphView::build(ctx, tasks);
  const ReferenceGraphView ref = ReferenceGraphView::build(ctx, tasks);
  ASSERT_EQ(view.size(), ref.size()) << label;

  // The view's position order is the reference's min-heap Kahn order.
  std::vector<std::size_t> positions(tasks.size());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  EXPECT_EQ(ref.graph().topological_order(), positions) << label;

  for (std::size_t i = 0; i < view.size(); ++i) {
    std::vector<std::size_t> parents;
    for (const TaskGraphView::Edge& edge : view.predecessors(i)) {
      parents.push_back(edge.task);
      EXPECT_EQ(edge.bytes, ref.edge_bytes(edge.task, i))
          << label << ": edge " << edge.task << " -> " << i;
    }
    EXPECT_EQ(parents, ref.graph().predecessors(i))
        << label << ": parents of position " << i;
    std::vector<std::size_t> children;
    for (const TaskGraphView::Edge& edge : view.successors(i)) {
      children.push_back(edge.task);
      EXPECT_EQ(edge.bytes, ref.edge_bytes(i, edge.task))
          << label << ": edge " << i << " -> " << edge.task;
    }
    EXPECT_EQ(children, ref.graph().successors(i))
        << label << ": children of position " << i;
  }

  const hw::Platform& platform = ctx.platform();
  const std::vector<double> up = ref.upward_ranks(platform);
  expect_same_bits(view.upward_ranks(platform), up, "upward rank", label);
  expect_same_bits(view.downward_ranks(platform),
                   ref.downward_ranks(platform), "downward rank", label);

  // The priorities dmdas and critical-path commit by; the policy's own
  // priorities are put back so the run goes on undisturbed.
  std::vector<double> saved;
  for (const core::Task* task : tasks) {
    saved.push_back(task->priority());
  }
  prioritize_by_upward_rank(ctx, tasks);
  std::vector<double> priorities;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    priorities.push_back(tasks[i]->priority());
    tasks[i]->set_priority(saved[i]);
  }
  expect_same_bits(priorities, up, "priority", label);
}

TEST(GraphViewDifferential, EverySpecGeneratorOnHpcNodeAndWorkstation) {
  const char* const specs[] = {
      "montage:12",        "epigenomics:2,3",    "cybershake:2,4",
      "ligo:8,3",          "sipht:2,3",          "cholesky:4,512",
      "lu:3,512",          "layered:5,4,0.5,3",  "forkjoin:4,3,0.5,2",
      "wavefront:5",       "chain:12",           "bag:12"};
  const std::vector<hw::Platform> platforms = {hw::make_hpc_node(),
                                               hw::make_workstation()};
  const auto lib = workflow::CodeletLibrary::standard();
  for (const hw::Platform& platform : platforms) {
    for (const char* spec : specs) {
      const std::string label = std::string(spec) + " on " + platform.name();
      std::size_t checked = 0;
      core::Runtime rt(
          platform,
          std::make_unique<PrepareProbe>(
              make_scheduler("dmdas"),
              [&](const core::SchedContext& ctx,
                  const std::vector<core::Task*>& tasks) {
                expect_matches_reference(ctx, tasks, label);
                ++checked;
              }));
      workflow::submit_workflow(rt, workflow::make_workflow_from_spec(spec),
                                lib);
      rt.wait_all();
      EXPECT_EQ(checked, 1u) << label;
    }
  }
}

/// Submits `count` tasks over `handles`: each touches one to three
/// distinct handles in a random mode (Read, Write, ReadWrite or Redux),
/// and about one in five reads a handle it already reads once more.
void submit_random_tasks(core::Runtime& rt, util::Rng& rng,
                         const std::vector<data::DataId>& handles,
                         std::size_t count) {
  const core::CodeletPtr codelets[] = {hetflow::testing::cpu_only_codelet(),
                                       hetflow::testing::cpu_gpu_codelet()};
  const data::AccessMode modes[] = {
      data::AccessMode::Read, data::AccessMode::Write,
      data::AccessMode::ReadWrite, data::AccessMode::Redux};
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<data::DataId> picked = handles;
    rng.shuffle(picked);
    picked.resize(1 + rng.index(3));
    std::vector<data::Access> accesses;
    for (const data::DataId handle : picked) {
      accesses.push_back({handle, modes[rng.index(4)]});
    }
    if (accesses.front().mode == data::AccessMode::Read &&
        rng.bernoulli(0.2)) {
      accesses.push_back(accesses.front());
    }
    rt.submit("t", codelets[rng.index(2)], rng.uniform(1e8, 4e9), accesses);
  }
}

class RandomGraphViewDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphViewDifferential, TwoWavesOfMixedAccesses) {
  util::Rng rng(GetParam());
  const hw::Platform platform = hw::make_hpc_node(4, 2, 1);
  std::size_t checked = 0;
  std::size_t earlier_wave_parents = 0;
  core::Runtime rt(
      platform,
      std::make_unique<PrepareProbe>(
          make_scheduler("dmdas"),
          [&](const core::SchedContext& ctx,
              const std::vector<core::Task*>& tasks) {
            ++checked;
            expect_matches_reference(
                ctx, tasks, "seed " + std::to_string(GetParam()) + " wave " +
                                std::to_string(checked));
            for (const core::Task* task : tasks) {
              for (const core::TaskId parent : task->dependencies) {
                earlier_wave_parents += parent < tasks.front()->id();
              }
            }
          }));
  std::vector<data::DataId> handles;
  for (std::size_t h = 0; h < 12; ++h) {
    handles.push_back(rt.register_data("h" + std::to_string(h),
                                       (h + 1) * (std::uint64_t{1} << 20)));
  }
  submit_random_tasks(rt, rng, handles, 60);
  rt.wait_all();
  submit_random_tasks(rt, rng, handles, 60);
  rt.wait_all();
  EXPECT_EQ(checked, 2u);
  EXPECT_GT(earlier_wave_parents, 0u)
      << "the second wave never reached back into the first";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphViewDifferential,
                         ::testing::Values(1ull, 7ull, 99ull, 31337ull));

TEST(GraphViewDifferential, ClusterHeftNodeSlices) {
  const hw::Cluster cluster = hw::make_hpc_cluster(3, 4, 1);
  auto placement = std::make_unique<ClusterScheduler>(cluster, "heft");
  const ClusterScheduler& placed = *placement;
  std::size_t slices = 0;
  core::Runtime rt(
      cluster.platform(),
      std::make_unique<PrepareProbe>(
          std::move(placement),
          [&](const core::SchedContext& ctx,
              const std::vector<core::Task*>& tasks) {
            expect_matches_reference(ctx, tasks, "cluster open tasks");
            // Each node's share, in the submission order the cluster
            // scheduler hands its inner planner.
            std::vector<std::vector<core::Task*>> per_node(
                cluster.node_count());
            for (core::Task* task : tasks) {
              per_node[placed.placement_of(task->id())].push_back(task);
            }
            for (std::size_t n = 0; n < per_node.size(); ++n) {
              expect_matches_reference(ctx, per_node[n],
                                       "slice of node " + std::to_string(n));
              slices += !per_node[n].empty();
            }
          }));
  std::vector<hw::MemoryNodeId> homes;
  for (const hw::ClusterNode& node : cluster.nodes()) {
    homes.push_back(node.gateway);
  }
  workflow::submit_workflow_scattered(
      rt, workflow::make_random_layered(8, 6, 1.0, 1),
      workflow::CodeletLibrary::standard(), homes);
  rt.wait_all();
  EXPECT_GT(slices, 1u) << "every task landed on one node";
}

TEST(GraphViewDifferential, RejectsTasksOutOfIdOrder) {
  const hw::Platform platform = hw::make_workstation();
  bool threw = false;
  core::Runtime rt(
      platform,
      std::make_unique<PrepareProbe>(
          make_scheduler("dmdas"),
          [&](const core::SchedContext& ctx,
              const std::vector<core::Task*>& tasks) {
            const std::vector<core::Task*> reversed(tasks.rbegin(),
                                                    tasks.rend());
            EXPECT_THROW(TaskGraphView::build(ctx, reversed), InternalError);
            threw = true;
          }));
  workflow::submit_workflow(rt, workflow::make_chain(3, 1e9, 1 << 20),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  EXPECT_TRUE(threw);
}

// The rank recurrences of the reference, pinned on hand-computed values.

/// Diamond: 0 -> {1, 2} -> 3.
util::Digraph diamond() {
  util::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

const auto zero_edge = [](std::size_t, std::size_t) { return 0.0; };

TEST(ReferenceRanks, UpwardRanksDiamond) {
  const auto ranks = hetflow::testing::reference_upward_ranks(
      diamond(), {1.0, 5.0, 2.0, 1.0}, zero_edge);
  EXPECT_DOUBLE_EQ(ranks[3], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 6.0);
  EXPECT_DOUBLE_EQ(ranks[2], 3.0);
  EXPECT_DOUBLE_EQ(ranks[0], 7.0);
}

TEST(ReferenceRanks, DownwardRanksDiamond) {
  const auto ranks = hetflow::testing::reference_downward_ranks(
      diamond(), {1.0, 5.0, 2.0, 1.0}, zero_edge);
  EXPECT_DOUBLE_EQ(ranks[0], 0.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 1.0);
  EXPECT_DOUBLE_EQ(ranks[3], 6.0);
}

TEST(ReferenceRanks, UpwardRankIsCriticalPathAtSource) {
  // For a single-source DAG, rank_u(source) == critical path length.
  util::Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const std::vector<double> w = {2.0, 3.0, 7.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(
      hetflow::testing::reference_upward_ranks(g, w, zero_edge)[0],
      g.critical_path(w));
}

}  // namespace
}  // namespace hetflow::sched
