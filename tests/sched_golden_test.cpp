// Schedule golden suite: every registered policy runs one seeded
// heterogeneous workflow, and the static planners run as per-node inners
// of a two-node cluster (the partial-graph release path), and dmda runs
// under the dynamic locality placement of a four-node cluster. The
// realized schedule — every trace span plus the makespan — is compared
// byte for byte against the references under tests/golden/schedules/
// (tests/golden/cluster_dmda/ for the locality run, next to its metrics,
// decision log and Chrome trace), so a refactor of the shared scheduling
// mechanics that moves any task, start time or tie-break fails here.
//
// To bless an intentional schedule change, regenerate the references:
//
//   $ HETFLOW_REGEN_GOLDEN=1 ./sched_golden_test && git diff tests/golden/
#include <gtest/gtest.h>

#include <string>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

#ifndef HETFLOW_GOLDEN_DIR
#error "build must define HETFLOW_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace hetflow {
namespace {

std::string schedule_of(const core::Runtime& rt) {
  return util::format("makespan_s,%.17g\n", rt.stats().makespan_s) +
         trace::spans_to_csv(rt.tracer());
}

/// `name` is a path under tests/golden/ without the .csv extension.
void expect_schedule_golden(const std::string& name,
                            const core::Runtime& rt) {
  hetflow::testing::expect_golden_file(
      std::string(HETFLOW_GOLDEN_DIR) + "/" + name + ".csv", schedule_of(rt));
}

TEST(SchedGolden, EveryPolicyOnWorkstation) {
  // A communication-heavy random layered DAG (CCR 10) next to a Montage
  // mosaic, whose CPU-only stages leave the GPU out of some candidate
  // lists; seeded execution noise makes the history model recalibrate
  // the dynamic policies' estimates.
  const hw::Platform p = hw::make_workstation();
  for (const std::string& name : sched::scheduler_names()) {
    core::RuntimeOptions options;
    options.seed = 7;
    options.noise_cv = 0.1;
    core::Runtime rt(p, sched::make_scheduler(name, 7), options);
    const workflow::CodeletLibrary library =
        workflow::CodeletLibrary::standard();
    workflow::submit_workflow(
        rt, workflow::make_random_layered(6, 12, 10.0, 3), library);
    workflow::submit_workflow(rt, workflow::make_montage(8), library);
    rt.wait_all();
    SCOPED_TRACE(name);
    expect_schedule_golden("schedules/" + name, rt);
  }
}

TEST(SchedGolden, StaticInnersOnClusterSlices) {
  // The StaticInnersDrainAcrossNodeSlices shape: cross-slice edges make
  // the per-node plans release ready tasks past a blocked head.
  for (const char* inner : {"heft", "cpop", "peft"}) {
    const hw::Cluster cluster = hw::make_hpc_cluster(2, 4, 1);
    core::Runtime rt(cluster.platform(),
                     sched::make_cluster_scheduler(cluster, inner));
    std::vector<hw::MemoryNodeId> homes;
    for (const hw::ClusterNode& node : cluster.nodes()) {
      homes.push_back(node.gateway);
    }
    workflow::submit_workflow_scattered(
        rt, workflow::make_random_layered(12, 6, 1.0, 1),
        workflow::CodeletLibrary::standard(), homes);
    rt.wait_all();
    SCOPED_TRACE(inner);
    expect_schedule_golden(std::string("schedules/cluster_") + inner, rt);
  }
}

TEST(SchedGolden, DmdaUnderLocalityPlacement) {
  // The dynamic ready-time path: every task is placed when it becomes
  // ready, scored against live replicas, the predicted homes of inputs
  // not materialized anywhere, and the replicas earlier consumers will
  // fetch. Montage's difference stage, CyberShake's syntheses and a
  // transfer-heavy (CCR 10) layered DAG share inputs across nodes.
  // Inputs start striped over the gateways in reverse node order, so live
  // residency, not the load term's round-robin drift, decides where the
  // first stages land. Node 1 fails and rejoins mid-run: consumers of
  // the outputs it lost are placed while their regenerating producers
  // are still pending, which only the predicted homes can score.
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 2, 1, 1.25);
  core::RuntimeOptions options;
  options.seed = 5;
  options.metrics = true;
  core::NodeFault fault;
  fault.at = 0.05;
  fault.recover_after = 0.05;
  fault.devices = cluster.devices_on(1);
  for (std::size_t m = 0; m < cluster.node(1).memory_count; ++m) {
    fault.memory_nodes.push_back(
        static_cast<hw::MemoryNodeId>(cluster.node(1).first_memory + m));
  }
  options.node_faults.push_back(fault);
  core::Runtime rt(cluster.platform(),
                   sched::make_cluster_scheduler(cluster, "dmda", "locality",
                                                 options.seed),
                   options);
  std::vector<hw::MemoryNodeId> homes;
  for (auto node = cluster.nodes().rbegin(); node != cluster.nodes().rend();
       ++node) {
    homes.push_back(node->gateway);
  }
  const workflow::CodeletLibrary library = workflow::CodeletLibrary::standard();
  workflow::submit_workflow_scattered(rt, workflow::make_montage(8), library,
                                      homes);
  workflow::submit_workflow_scattered(rt, workflow::make_cybershake(2, 6),
                                      library, homes);
  workflow::submit_workflow_scattered(
      rt, workflow::make_random_layered(6, 8, 10.0, 3), library, homes);
  rt.wait_all();
  EXPECT_EQ(rt.stats().node_failures, 1u);
  EXPECT_GT(rt.stats().tasks_resurrected, 0u);

  const hw::Platform& p = cluster.platform();
  const std::string dir = std::string(HETFLOW_GOLDEN_DIR) + "/cluster_dmda/";
  expect_schedule_golden("cluster_dmda/schedule", rt);
  hetflow::testing::expect_golden_file(
      dir + "metrics.json", rt.recorder()->metrics().to_json_string());
  hetflow::testing::expect_golden_file(dir + "metrics.csv",
                                       rt.recorder()->metrics().to_csv());
  hetflow::testing::expect_golden_file(dir + "decisions.jsonl",
                                       rt.recorder()->decisions_jsonl(p));
  hetflow::testing::expect_golden_file(
      dir + "chrome_trace.json",
      obs::chrome_trace_json(rt.tracer(), p, rt.recorder()));
}

}  // namespace
}  // namespace hetflow
