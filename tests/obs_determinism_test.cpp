// Determinism of the observability layer under host parallelism and
// checkpoint/restart: metrics snapshots, decision logs, and Chrome
// traces are a function of (workload, seed) alone — never of the number
// of worker threads, and never of whether a campaign was interrupted.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "exec/thread_pool.hpp"
#include "hw/failure.hpp"
#include "hw/presets.hpp"
#include "memo_oracle.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "util/strings.hpp"
#include "workflow/campaign.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

/// Everything one instrumented run serializes, ready to compare bytes.
struct Artifacts {
  std::string metrics_json;
  std::string metrics_csv;
  std::string chrome_trace;
  std::string decisions;

  bool operator==(const Artifacts& other) const {
    return metrics_json == other.metrics_json &&
           metrics_csv == other.metrics_csv &&
           chrome_trace == other.chrome_trace &&
           decisions == other.decisions;
  }
};

/// One cell of the determinism grid: an instrumented run of a generated
/// workflow with noise and fault injection live (the hardest case for
/// byte-stability). With `oracle_checks` non-null the scheduler runs
/// wrapped in the MemoOracle, every cost estimate must match the direct
/// formula, and the number of estimates checked is stored there.
Artifacts run_cell(const std::string& scheduler, std::uint64_t seed,
                   std::uint64_t* oracle_checks = nullptr) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = seed;
  options.noise_cv = 0.2;
  options.failure_model = hw::FailureModel::uniform(0.3);
  std::unique_ptr<core::Scheduler> policy = sched::make_scheduler(scheduler);
  testing::MemoOracle* oracle = nullptr;
  if (oracle_checks != nullptr) {
    auto wrapped = std::make_unique<testing::MemoOracle>(std::move(policy));
    oracle = wrapped.get();
    policy = std::move(wrapped);
  }
  core::Runtime rt(p, std::move(policy), options);
  if (oracle != nullptr) {
    oracle->bind(rt, options.use_history_model);
  }
  workflow::submit_workflow(rt, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  Artifacts out;
  out.metrics_json = rt.recorder()->metrics().to_json_string();
  out.metrics_csv = rt.recorder()->metrics().to_csv();
  out.chrome_trace = obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
  out.decisions = rt.recorder()->decisions_jsonl(p);
  if (oracle != nullptr) {
    EXPECT_EQ(oracle->mismatches(), 0u)
        << scheduler << " seed " << seed << ": " << oracle->first_mismatch();
    *oracle_checks = oracle->checks();
  }
  return out;
}

// Property: a grid of (scheduler x seed) cells run serially and run on
// an 8-worker pool produce byte-identical observability artifacts —
// the sweep-engine guarantee extended to the whole obs layer.
TEST(ObsDeterminism, ArtifactsAreByteIdenticalAcrossJobCounts) {
  struct Cell {
    std::string scheduler;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const char* scheduler : {"mct", "dmda", "dmdas", "work-stealing"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      cells.push_back({scheduler, seed});
    }
  }

  const auto run_grid = [&](std::size_t jobs) {
    return exec::parallel_map<Artifacts>(
        cells.size(), jobs, [&](std::size_t i) {
          return run_cell(cells[i].scheduler, cells[i].seed);
        });
  };

  const std::vector<Artifacts> serial = run_grid(1);
  for (const Artifacts& artifacts : serial) {
    EXPECT_FALSE(artifacts.metrics_json.empty());
    EXPECT_FALSE(artifacts.decisions.empty());
  }
  const std::vector<Artifacts> pooled = run_grid(8);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(pooled[i] == serial[i])
        << cells[i].scheduler << " seed " << cells[i].seed;
  }
}

// Repeating the same instrumented run in-process reproduces the same
// bytes (no hidden global state leaks between Runtime instances).
TEST(ObsDeterminism, RepeatedRunsReproduceTheSameBytes) {
  const Artifacts first = run_cell("dmda", 11);
  const Artifacts second = run_cell("dmda", 11);
  EXPECT_TRUE(first == second);
}

// Cross-property: a serial grid run under the memo oracle (every cost
// estimate checked bitwise against the direct formula) serializes the
// same bytes as a plain grid on an 8-worker pool — memoization, name
// interning, the oracle decorator and host parallelism together leave
// no fingerprint in any artifact.
TEST(ObsDeterminism, MemoizedPooledGridMatchesDirectSerialGrid) {
  struct Cell {
    std::string scheduler;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const char* scheduler : {"mct", "dmda", "dmdas", "work-stealing"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      cells.push_back({scheduler, seed});
    }
  }
  std::vector<Artifacts> oracle_serial;
  oracle_serial.reserve(cells.size());
  std::uint64_t checks = 0;
  for (const Cell& cell : cells) {
    std::uint64_t cell_checks = 0;
    oracle_serial.push_back(run_cell(cell.scheduler, cell.seed, &cell_checks));
    checks += cell_checks;
  }
  EXPECT_GT(checks, 0u);
  const std::vector<Artifacts> memo_pooled = exec::parallel_map<Artifacts>(
      cells.size(), 8,
      [&](std::size_t i) { return run_cell(cells[i].scheduler, cells[i].seed); });
  ASSERT_EQ(memo_pooled.size(), oracle_serial.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(memo_pooled[i] == oracle_serial[i])
        << cells[i].scheduler << " seed " << cells[i].seed;
  }
}

/// A cancel-heavy fault run: tight per-attempt timeouts race the
/// watchdog against every completion, so each task churns slab slots in
/// the EventQueue (schedule + cancel of whichever event loses), and
/// retries with jittered backoff re-enter the queue repeatedly.
Artifacts run_cancel_heavy_cell(const std::string& scheduler,
                                std::uint64_t seed, std::uint64_t* timeouts) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = seed;
  options.noise_cv = 0.6;  // fat tail: some attempts blow the budget
  options.failure_model = hw::FailureModel::uniform(0.2);
  options.retry.max_attempts = 6;
  options.retry.timeout_s = 0.05;
  options.retry.backoff_base_s = 0.01;
  options.retry.backoff_jitter = 0.5;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  core::Runtime rt(p, sched::make_scheduler(scheduler), options);
  workflow::submit_workflow(rt, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  if (timeouts != nullptr) {
    *timeouts = rt.stats().timeouts;
  }
  Artifacts out;
  out.metrics_json = rt.recorder()->metrics().to_json_string();
  out.metrics_csv = rt.recorder()->metrics().to_csv();
  out.chrome_trace = obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
  out.decisions = rt.recorder()->decisions_jsonl(p);
  return out;
}

// Property: the slab event queue's slot recycling (cancel -> free-list
// -> reuse with a bumped generation) leaves no trace in any serialized
// artifact — a cancel-heavy run is byte-reproducible per seed, serial
// or on an 8-worker pool.
TEST(ObsDeterminism, CancelHeavyFaultRunsAreByteIdentical) {
  struct Cell {
    std::string scheduler;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const char* scheduler : {"eager", "dmda", "work-stealing"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      cells.push_back({scheduler, seed});
    }
  }
  std::uint64_t total_timeouts = 0;
  std::vector<Artifacts> serial;
  serial.reserve(cells.size());
  for (const Cell& cell : cells) {
    std::uint64_t cell_timeouts = 0;
    serial.push_back(
        run_cancel_heavy_cell(cell.scheduler, cell.seed, &cell_timeouts));
    total_timeouts += cell_timeouts;
  }
  // The configuration must actually exercise the watchdog-cancel path,
  // or the property above is vacuously true.
  EXPECT_GT(total_timeouts, 0u);

  const std::vector<Artifacts> pooled = exec::parallel_map<Artifacts>(
      cells.size(), 8, [&](std::size_t i) {
        return run_cancel_heavy_cell(cells[i].scheduler, cells[i].seed,
                                     nullptr);
      });
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(pooled[i] == serial[i])
        << cells[i].scheduler << " seed " << cells[i].seed;
  }
}

// A campaign killed mid-flight and resumed from its checkpoint must end
// with the same metrics snapshot and decision log as one that was never
// interrupted: resume replays the completed simulation batches into a
// fresh runtime, so the recorder sees the identical event sequence.
TEST(ObsDeterminism, CampaignMetricsSurviveCheckpointResume) {
  const hw::Platform platform = hw::make_workstation();
  // Noiseless surface with an unreachable target (excess 0), so every
  // variant runs the full budget and the round counts line up exactly.
  const workflow::ResponseSurface surface(
      workflow::ResponseSurface::Kind::Quadratic, 0.0);
  workflow::CampaignConfig config;
  config.max_evaluations = 48;
  config.batch_size = 8;
  config.target_excess = 0.0;
  config.seed = 5;
  config.metrics = true;

  const workflow::CampaignResult uninterrupted = workflow::run_campaign(
      platform, surface, workflow::SearchStrategy::Surrogate, config);
  ASSERT_FALSE(uninterrupted.metrics_json.empty());
  ASSERT_FALSE(uninterrupted.decision_log.empty());

  const std::string checkpoint =
      ::testing::TempDir() + "/obs_campaign_checkpoint.json";
  workflow::CampaignConfig sliced = config;
  sliced.checkpoint_path = checkpoint;
  sliced.max_rounds = 2;  // simulate a kill after two rounds
  const workflow::CampaignResult slice = workflow::run_campaign(
      platform, surface, workflow::SearchStrategy::Surrogate, sliced);
  ASSERT_EQ(slice.rounds, 2u);

  const workflow::CampaignResult resumed =
      workflow::resume_campaign(platform, checkpoint);
  EXPECT_EQ(resumed.rounds, uninterrupted.rounds);
  EXPECT_DOUBLE_EQ(resumed.best_value, uninterrupted.best_value);
  EXPECT_EQ(resumed.metrics_json, uninterrupted.metrics_json);
  EXPECT_EQ(resumed.decision_log, uninterrupted.decision_log);
}

// The metrics flag itself round-trips through the checkpoint: a resumed
// campaign with metrics off stays off (and produces no snapshots).
TEST(ObsDeterminism, MetricsOffCampaignResumesWithoutSnapshots) {
  const hw::Platform platform = hw::make_workstation();
  const workflow::ResponseSurface surface(
      workflow::ResponseSurface::Kind::Quadratic, 0.0);
  workflow::CampaignConfig config;
  config.max_evaluations = 32;
  config.batch_size = 8;
  config.seed = 3;
  config.checkpoint_path =
      ::testing::TempDir() + "/obs_campaign_nometrics.json";
  config.max_rounds = 1;
  const workflow::CampaignResult slice = workflow::run_campaign(
      platform, surface, workflow::SearchStrategy::Grid, config);
  ASSERT_GE(slice.rounds, 1u);
  const workflow::CampaignResult resumed =
      workflow::resume_campaign(platform, config.checkpoint_path);
  EXPECT_TRUE(resumed.metrics_json.empty());
  EXPECT_TRUE(resumed.decision_log.empty());
}

}  // namespace
}  // namespace hetflow
