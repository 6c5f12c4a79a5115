// Schedule golden suite: every registered policy runs one seeded
// heterogeneous workflow, and the static planners run as per-node inners
// of a two-node cluster (the partial-graph release path). The realized
// schedule — every trace span plus the makespan — is compared byte for
// byte against the references under tests/golden/schedules/, so a
// refactor of the shared scheduling mechanics that moves any task, start
// time or tie-break fails here.
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

void expect_schedule_golden(const std::string& name,
                            const core::Runtime& rt) {
  hetflow::testing::expect_golden_file(
      std::string(HETFLOW_GOLDEN_DIR) + "/schedules/" + name + ".csv",
      schedule_of(rt));
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
    expect_schedule_golden(name, rt);
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
    expect_schedule_golden(std::string("cluster_") + inner, rt);
  }
}

}  // namespace
}  // namespace hetflow
