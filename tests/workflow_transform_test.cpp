#include "workflow/transform.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"

namespace hetflow::workflow {
namespace {

TEST(Cluster, MergesPrivateChain) {
  // a -> f1 -> b -> f2 -> c, nothing shared: collapses into one task.
  Workflow w("chain3");
  const auto in = w.add_file("in", 10);
  const auto f1 = w.add_file("f1", 10);
  const auto f2 = w.add_file("f2", 10);
  const auto out = w.add_file("out", 10);
  w.add_task("a", "compute", 1e6, {in}, {f1});
  w.add_task("b", "compute", 2e6, {f1}, {f2});
  w.add_task("c", "compute", 3e6, {f2}, {out});
  ClusterStats stats;
  const Workflow clustered = cluster_linear_chains(w, 1e12, &stats);
  EXPECT_EQ(clustered.task_count(), 1u);
  EXPECT_EQ(stats.merges, 2u);
  EXPECT_EQ(stats.removed(), 2u);
  EXPECT_DOUBLE_EQ(clustered.tasks()[0].flops, 6e6);
  // Workflow inputs/outputs survive; private intermediates are gone.
  EXPECT_EQ(clustered.file_count(), 2u);
}

TEST(Cluster, FlopBudgetLimitsMerging) {
  Workflow w("chain");
  const auto in = w.add_file("in", 10);
  const auto f1 = w.add_file("f1", 10);
  const auto out = w.add_file("out", 10);
  w.add_task("a", "compute", 5e6, {in}, {f1});
  w.add_task("b", "compute", 6e6, {f1}, {out});
  ClusterStats stats;
  const Workflow clustered = cluster_linear_chains(w, 1e7, &stats);
  // 5e6 + 6e6 > 1e7: no merge.
  EXPECT_EQ(clustered.task_count(), 2u);
  EXPECT_EQ(stats.merges, 0u);
}

TEST(Cluster, SharedIntermediateBlocksMerge) {
  // a's output feeds two consumers: a must stay separate.
  Workflow w("fanout");
  const auto in = w.add_file("in", 10);
  const auto mid = w.add_file("mid", 10);
  const auto o1 = w.add_file("o1", 10);
  const auto o2 = w.add_file("o2", 10);
  w.add_task("a", "compute", 1e6, {in}, {mid});
  w.add_task("b", "compute", 1e6, {mid}, {o1});
  w.add_task("c", "compute", 1e6, {mid}, {o2});
  const Workflow clustered = cluster_linear_chains(w, 1e12);
  EXPECT_EQ(clustered.task_count(), 3u);
}

TEST(Cluster, KindFollowsHeavierHalf) {
  Workflow w("kinds");
  const auto in = w.add_file("in", 10);
  const auto mid = w.add_file("mid", 10);
  const auto out = w.add_file("out", 10);
  w.add_task("heavy", "gemm", 9e9, {in}, {mid});
  w.add_task("light", "io", 1e6, {mid}, {out});
  const Workflow clustered = cluster_linear_chains(w, 1e12);
  ASSERT_EQ(clustered.task_count(), 1u);
  EXPECT_EQ(clustered.tasks()[0].kind, "gemm");
}

TEST(Cluster, PreservesSemanticsOnGeneratedWorkflow) {
  const Workflow original = make_epigenomics(2, 4);
  ClusterStats stats;
  const Workflow clustered = cluster_linear_chains(original, 1e12, &stats);
  EXPECT_LT(clustered.task_count(), original.task_count());
  EXPECT_NO_THROW(clustered.validate());
  // Total work is conserved.
  EXPECT_NEAR(clustered.total_flops(), original.total_flops(), 1.0);
  EXPECT_FALSE(clustered.task_graph().has_cycle());
}

TEST(Cluster, ReducesMakespanForTinyTaskChains) {
  // Many 4-stage chains of tiny tasks: per-task overhead dominates, so
  // clustering shrinks the makespan.
  Workflow w("tiny-chains");
  for (int c = 0; c < 64; ++c) {
    std::size_t carry = w.add_file(util::format("in%d", c), 1024);
    for (int s = 0; s < 4; ++s) {
      const std::size_t next =
          w.add_file(util::format("f%d_%d", c, s), 1024);
      w.add_task(util::format("t%d_%d", c, s), "compute", 1e4, {carry},
                 {next});
      carry = next;
    }
  }
  const Workflow clustered = cluster_linear_chains(w, 1e12);
  EXPECT_EQ(clustered.task_count(), 64u);
  const hw::Platform p = hw::make_cpu_only(4);
  const auto lib = CodeletLibrary::standard();
  const double before = run_workflow(p, "mct", w, lib).makespan_s;
  const double after = run_workflow(p, "mct", clustered, lib).makespan_s;
  EXPECT_LT(after, before);
}

TEST(Prune, DropsOnlyDeadFiles) {
  Workflow w("dead");
  const auto used = w.add_file("used", 10);
  w.add_file("dead1", 10);
  w.add_file("dead2", 10);
  const auto out = w.add_file("out", 10);
  w.add_task("t", "compute", 1e6, {used}, {out});
  std::size_t removed = 0;
  const Workflow pruned = prune_dead_files(w, &removed);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(pruned.file_count(), 2u);
  EXPECT_EQ(pruned.task_count(), 1u);
  EXPECT_NO_THROW(pruned.validate());
}

TEST(Prune, NoopWhenAllUsed) {
  const Workflow w = make_montage(8);
  std::size_t removed = 0;
  const Workflow pruned = prune_dead_files(w, &removed);
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(pruned.file_count(), w.file_count());
}

}  // namespace
}  // namespace hetflow::workflow
