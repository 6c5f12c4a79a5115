// The cost-model cache (core/cost_cache.hpp) is a performance feature
// with a correctness contract: every estimate a scheduler sees must be
// bitwise equal to the direct cost formula. MemoOracle (memo_oracle.hpp)
// checks that per call, under every registered scheduler, with and
// without the history model. The single completion engine must also pass
// the full end-of-run audit under every scheduler and under a
// cancel-heavy fault load.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/failure.hpp"
#include "hw/presets.hpp"
#include "memo_oracle.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

/// Every byte-stable artifact one instrumented run can serialize.
struct Artifacts {
  std::string spans_csv;
  std::string metrics_json;
  std::string metrics_csv;
  std::string chrome_trace;
  std::string decisions;

  bool operator==(const Artifacts& other) const {
    return spans_csv == other.spans_csv &&
           metrics_json == other.metrics_json &&
           metrics_csv == other.metrics_csv &&
           chrome_trace == other.chrome_trace &&
           decisions == other.decisions;
  }
};

/// One run, its artifacts and (when the oracle was on) its verdict.
struct Checked {
  Artifacts artifacts;
  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

using Submit = std::function<void(core::Runtime&)>;

void submit_montage(core::Runtime& rt) {
  workflow::submit_workflow(rt, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
}

/// Two montage waves over one codelet library: the second wave's
/// estimates read cache entries filled during the first, after the
/// history model has calibrated those codelets, so a stale entry shows.
void submit_two_waves(core::Runtime& rt) {
  const workflow::CodeletLibrary lib = workflow::CodeletLibrary::standard();
  workflow::submit_workflow(rt, workflow::make_montage(10), lib);
  rt.wait_all();
  workflow::submit_workflow(rt, workflow::make_montage(10), lib);
}

/// 40 independent CPU/GPU tasks: with a high GPU fault rate this drives
/// quarantine, probation and recovery.
void submit_independent(core::Runtime& rt) {
  for (int i = 0; i < 40; ++i) {
    rt.submit(util::format("t%d", i), hetflow::testing::cpu_gpu_codelet(),
              4e9, {});
  }
}

/// Runs `submit` on the workstation under `scheduler`, wrapped in the
/// MemoOracle unless `with_oracle` is false. options.metrics must be on.
Checked run_checked(const std::string& scheduler,
                    const core::RuntimeOptions& options,
                    const Submit& submit = submit_montage,
                    bool with_oracle = true) {
  const hw::Platform p = hw::make_workstation();
  std::unique_ptr<core::Scheduler> policy =
      sched::make_scheduler(scheduler, options.seed);
  testing::MemoOracle* oracle = nullptr;
  if (with_oracle) {
    auto wrapped = std::make_unique<testing::MemoOracle>(std::move(policy));
    oracle = wrapped.get();
    policy = std::move(wrapped);
  }
  core::Runtime rt(p, std::move(policy), options);
  if (oracle != nullptr) {
    oracle->bind(rt, options.use_history_model);
  }
  submit(rt);
  rt.wait_all();
  Checked out;
  out.artifacts.spans_csv = trace::spans_to_csv(rt.tracer());
  out.artifacts.metrics_json = rt.recorder()->metrics().to_json_string();
  out.artifacts.metrics_csv = rt.recorder()->metrics().to_csv();
  out.artifacts.chrome_trace =
      obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
  out.artifacts.decisions = rt.recorder()->decisions_jsonl(p);
  if (oracle != nullptr) {
    out.checks = oracle->checks();
    out.mismatches = oracle->mismatches();
    out.first_mismatch = oracle->first_mismatch();
  }
  return out;
}

core::RuntimeOptions noisy_options(std::uint64_t seed, bool use_history) {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = seed;
  // Noise makes every recorded duration differ from the estimate, so the
  // history model recalibrates continuously — the hardest case for the
  // cache's generation-based invalidation.
  options.noise_cv = 0.2;
  options.use_history_model = use_history;
  return options;
}

/// Policies that never ask for a cost estimate (a central queue, random
/// or cyclic placement); every other registered scheduler must be checked.
bool estimate_free(const std::string& scheduler) {
  return scheduler == "eager" || scheduler == "random" ||
         scheduler == "round-robin";
}

/// The oracle sweep: for EVERY registered scheduler, every estimate the
/// policy asks for is bitwise equal to the direct formula, and wrapping
/// the policy in the oracle leaves every serialized artifact unchanged
/// (the oracle observed the same run a plain one makes).
void expect_oracle_clean_sweep(bool use_history, std::uint64_t seed) {
  for (const std::string& scheduler : sched::scheduler_names()) {
    const core::RuntimeOptions options = noisy_options(seed, use_history);
    const Checked checked =
        run_checked(scheduler, options, submit_two_waves);
    EXPECT_EQ(checked.mismatches, 0u)
        << scheduler << ": " << checked.first_mismatch;
    if (!estimate_free(scheduler)) {
      EXPECT_GT(checked.checks, 0u) << scheduler;
    }
    const Checked plain =
        run_checked(scheduler, options, submit_two_waves, false);
    EXPECT_TRUE(plain.artifacts == checked.artifacts) << scheduler;
    EXPECT_FALSE(plain.artifacts.spans_csv.empty()) << scheduler;
  }
}

TEST(CostMemoization, EstimatesMatchDirectFormulaAcrossAllSchedulers) {
  expect_oracle_clean_sweep(/*use_history=*/true, 7);
}

// History model off: only the analytic path (peak_gflops * efficiency
// denominator, launch overhead, DVFS scaling) is exercised, so a
// regression localizes to the static terms.
TEST(CostMemoization, EstimatesMatchDirectFormulaOnStaticModelOnly) {
  expect_oracle_clean_sweep(/*use_history=*/false, 11);
}

// History recalibration refreshes the cache: record() bumps the model
// generation after every completion, and a stale entry would serve a
// pre-calibration estimate the oracle rejects (submit_two_waves). The
// run must also agree with itself.
TEST(CostMemoization, HistoryRecalibrationInvalidatesBetweenDecisions) {
  const core::RuntimeOptions options = noisy_options(3, true);
  const Checked first = run_checked("dmdas", options, submit_two_waves);
  const Checked second = run_checked("dmdas", options, submit_two_waves);
  EXPECT_TRUE(first.artifacts == second.artifacts);
  EXPECT_GT(first.checks, 0u);
  EXPECT_EQ(first.mismatches, 0u) << first.first_mismatch;
}

// Fault injection stacks retries on top of the cache; the estimates
// must keep matching when they feed the retry/requeue machinery, not
// just the happy path.
TEST(CostMemoization, EstimatesMatchDirectFormulaUnderFaultInjection) {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 13;
  options.noise_cv = 0.3;
  options.failure_model = hw::FailureModel::uniform(0.3);
  const Checked checked = run_checked("dmda", options);
  EXPECT_NE(checked.artifacts.metrics_json.find("failed_attempts"),
            std::string::npos);
  EXPECT_GT(checked.checks, 0u);
  EXPECT_EQ(checked.mismatches, 0u) << checked.first_mismatch;
}

// The single completion engine under full audit: every scheduler
// finishes a generated workflow with the end-of-run validator (race
// detector, coherence and trace invariants) live.
TEST(CompletionEngine, ValidateCleanSweepAcrossAllSchedulers) {
  for (const std::string& scheduler : sched::scheduler_names()) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.seed = 5;
    options.noise_cv = 0.1;
    options.validate = true;
    options.metrics = true;
    core::Runtime rt(p, sched::make_scheduler(scheduler), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    ASSERT_NO_THROW(rt.wait_all()) << scheduler;
    EXPECT_EQ(rt.stats().tasks_completed, wf.tasks().size()) << scheduler;
  }
}

// Cancel-heavy fault run: with a per-attempt timeout every dispatch
// arms a watchdog that the completion path cancels (one carcass per
// successful attempt), and the fail-silent hang fraction makes the race
// go the other way too — the watchdog fires and cancels the hung
// completion event. The full audit (validate) plus exact completion
// counts prove no cancelled event delivered and no task was lost; a
// second identical run proves the path is self-reproducible.
TEST(CompletionEngine, CancelHeavyFaultRunValidatesCleanAndReproduces) {
  const auto run = [] {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.validate = true;
    options.seed = 29;
    options.noise_cv = 0.3;
    options.failure_model = hw::FailureModel::uniform(10.0);
    options.failure_model.set_hang_fraction(0.3);
    options.failure_policy = core::FailurePolicy::Reschedule;
    options.retry.max_attempts = 500;
    options.retry.timeout_s = 5.0;  // generous: successes finish inside it
    options.retry.backoff_base_s = 0.01;
    options.retry.blacklist_after = 3;
    options.retry.probation_s = 1.0;
    core::Runtime rt(p, sched::make_scheduler("dmda"), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    rt.wait_all();
    EXPECT_EQ(rt.stats().tasks_completed, wf.tasks().size());
    EXPECT_GT(rt.stats().timeouts, 0u);
    return trace::spans_to_csv(rt.tracer()) +
           rt.recorder()->metrics().to_json_string();
  };
  EXPECT_EQ(run(), run());
}

// Explicit invalidation hook: invalidate_cost_cache() mid-stream must be
// harmless when the platform is unchanged (the refilled cache holds the
// same values), proven by comparing against an uninterrupted run.
TEST(CostMemoization, ExplicitInvalidationIsTransparent) {
  const auto run = [](bool poke) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.seed = 23;
    core::Runtime rt(p, sched::make_scheduler("mct"), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    if (poke) {
      rt.invalidate_cost_cache();
    }
    rt.wait_all();
    return trace::spans_to_csv(rt.tracer());
  };
  EXPECT_EQ(run(true), run(false));
}

// No cached term depends on device health, so the memo survives every
// health transition: through quarantine, probation and recovery each
// estimate must still match the direct formula bit for bit.
TEST(CostMemoization, EstimatesMatchDirectFormulaUnderBlacklisting) {
  core::RuntimeOptions options = noisy_options(19, true);
  options.failure_model.set_rate(hw::DeviceType::Gpu, 60.0);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.max_attempts = 500;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 2.0;
  const Checked checked = run_checked("dmda", options, submit_independent);
  EXPECT_NE(checked.artifacts.metrics_json.find("blacklist"),
            std::string::npos);
  EXPECT_GT(checked.checks, 0u);
  EXPECT_EQ(checked.mismatches, 0u) << checked.first_mismatch;
}

}  // namespace
}  // namespace hetflow
