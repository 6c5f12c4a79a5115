// Golden-trace regression suite: runs three pinned scenarios with the
// observability layer on and compares every serialized artifact —
// metrics snapshot (JSON + CSV), merged Chrome trace, scheduler decision
// log — byte for byte against the reference files checked in under
// tests/golden/. Any drift in an exporter, an instrumentation point, or
// the runtime's event order fails here first.
//
// To bless intentional changes, regenerate the references:
//
//   $ HETFLOW_REGEN_GOLDEN=1 ./obs_golden_test && git diff tests/golden/
#include <gtest/gtest.h>

#include <string>

#include "check/audit.hpp"
#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

#ifndef HETFLOW_GOLDEN_DIR
#error "build must define HETFLOW_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace hetflow {
namespace {

/// Byte-exact comparison of one artifact of `scenario` against its
/// checked-in reference (re-blessed in HETFLOW_REGEN_GOLDEN mode).
void expect_golden(const std::string& scenario, const std::string& file,
                   const std::string& actual) {
  hetflow::testing::expect_golden_file(
      std::string(HETFLOW_GOLDEN_DIR) + "/" + scenario + "/" + file, actual);
}

struct Artifacts {
  std::string metrics_json;
  std::string metrics_csv;
  std::string chrome_trace;
  std::string decisions;
};

Artifacts collect(const hw::Platform& platform, core::Runtime& runtime) {
  Artifacts out;
  out.metrics_json = runtime.recorder()->metrics().to_json_string();
  out.metrics_csv = runtime.recorder()->metrics().to_csv();
  out.chrome_trace =
      obs::chrome_trace_json(runtime.tracer(), platform, runtime.recorder());
  out.decisions = runtime.recorder()->decisions_jsonl(platform);
  return out;
}

void check_scenario(const std::string& scenario, const hw::Platform& platform,
                    core::Runtime& runtime) {
  const Artifacts artifacts = collect(platform, runtime);
  expect_golden(scenario, "metrics.json", artifacts.metrics_json);
  expect_golden(scenario, "metrics.csv", artifacts.metrics_csv);
  expect_golden(scenario, "chrome_trace.json", artifacts.chrome_trace);
  expect_golden(scenario, "decisions.jsonl", artifacts.decisions);
}

TEST(ObsGolden, MontageOnWorkstationWithDmda) {
  // The "clean run" reference: data-aware scheduling, real transfers and
  // prefetches, no failures.
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  core::Runtime rt(p, sched::make_scheduler("dmda"), options);
  workflow::submit_workflow(rt, workflow::make_montage(12),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  check_scenario("montage_dmda", p, rt);
}

TEST(ObsGolden, FaultInjectionOnCpuPairWithMct) {
  // The "faulty run" reference: retries, timeouts-free fail/requeue
  // cycles, and blacklist traffic flow through the event log.
  const hw::Platform p = hw::make_cpu_only(2);
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 7;
  options.failure_model = hw::FailureModel::uniform(3.0);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.max_attempts = 6;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 0.5;
  core::Runtime rt(p, sched::make_scheduler("mct"), options);
  for (int i = 0; i < 12; ++i) {
    rt.submit(util::format("t%d", i), hetflow::testing::cpu_only_codelet(),
              2e9, {});
  }
  rt.wait_all();
  check_scenario("faulty_mct", p, rt);
}

TEST(ObsGolden, NodeFaultDropEvictionAndPrefetchReachEveryCounter) {
  // The "accounting" reference: every counter the runtime publishes is
  // nonzero (see hetflow::testing::submit_accounting_workload).
  const hw::Platform p = hetflow::testing::make_accounting_platform();
  core::Runtime rt(p, sched::make_scheduler("dmda"),
                   hetflow::testing::accounting_options());
  hetflow::testing::submit_accounting_workload(rt);
  rt.wait_all();
  // The references must keep exercising what they exist for.
  const check::CheckReport report = check::audit_run(rt);
  EXPECT_TRUE(report.violations().empty()) << report.summary();
  const obs::MetricsRegistry& m = rt.recorder()->metrics();
  for (const char* name :
       {"tasks_completed", "failed_attempts", "timeouts", "busy_seconds",
        "busy_energy_j", "blacklist_events", "node_failures",
        "tasks_resurrected", "tasks_parked", "data_reseeded", "tasks_lost",
        "fetches", "prefetches", "evictions", "writebacks", "transfers",
        "bytes_transferred"}) {
    EXPECT_GT(m.counter_sum(name), 0.0) << name;
  }
  check_scenario("node_fault_accounting", p, rt);
}

// Sanity on the golden artifacts themselves (run in both modes): the
// Chrome trace must parse as JSON with the Perfetto-required fields, and
// the metrics snapshot must reconcile with RunStats — so a re-blessed
// reference can never be structurally broken.
TEST(ObsGolden, GoldenChromeTraceIsWellFormed) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  core::Runtime rt(p, sched::make_scheduler("dmda"), options);
  workflow::submit_workflow(rt, workflow::make_montage(12),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  const util::Json doc =
      util::Json::parse(obs::chrome_trace_json(rt.tracer(), p, rt.recorder()));
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  std::size_t spans = 0;
  std::size_t metas = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(event.contains("dur"));
    }
    if (ph == "M") {
      ++metas;
    }
    EXPECT_TRUE(event.contains("pid"));
  }
  EXPECT_GE(spans, rt.stats().tasks_completed);
  EXPECT_GT(metas, p.device_count());  // process + devices + xfer tracks

  // Metrics reconcile exactly with the runtime's own accounting.
  const obs::MetricsRegistry& m = rt.recorder()->metrics();
  EXPECT_EQ(m.counter_sum("tasks_completed"),
            static_cast<double>(rt.stats().tasks_completed));
  EXPECT_EQ(m.counter_sum("bytes_transferred"),
            static_cast<double>(rt.stats().transfers.bytes_moved));
}

}  // namespace
}  // namespace hetflow
