// Serve determinism properties: the per-tenant latency table is a pure
// function of (config, script) — byte-identical across host parallelism
// and across kill-and-resume through the checkpoint machinery.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "hw/presets.hpp"
#include "serve/engine.hpp"

namespace hetflow::serve {
namespace {

ServeConfig test_config() {
  ServeConfig config;
  config.audit = true;
  config.batch_limit = 8;
  config.admission.max_pending = 24;
  config.admission.defer_cap = 8;
  config.admission.policy = BackpressurePolicy::Defer;
  return config;
}

/// A script with enough texture to catch ordering bugs: three tenants
/// across two priority tiers, mixed shapes, interleaved batches, enough
/// volume to trip deferral.
ServeScript mixed_script() {
  return parse_script(
      "{\"op\":\"tenant\",\"name\":\"a\",\"weight\":2}\n"
      "{\"op\":\"tenant\",\"name\":\"b\"}\n"
      "{\"op\":\"tenant\",\"name\":\"c\",\"priority\":1}\n"
      "{\"op\":\"submit\",\"tenant\":0,\"tasks\":4,\"count\":8}\n"
      "{\"op\":\"submit\",\"tenant\":1,\"shape\":\"fanout\",\"tasks\":6,"
      "\"count\":8}\n"
      "{\"op\":\"submit\",\"tenant\":2,\"shape\":\"diamond\",\"tasks\":5,"
      "\"count\":8}\n"
      "{\"op\":\"batch\"}\n"
      "{\"op\":\"submit\",\"tenant\":0,\"tasks\":3,\"count\":6}\n"
      "{\"op\":\"submit\",\"tenant\":2,\"tasks\":2,\"count\":6}\n"
      "{\"op\":\"batch\"}\n"
      "{\"op\":\"drain\"}\n");
}

std::string run_once(const ServeScript& script) {
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, test_config());
  run_script(engine, script);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
  return engine.latency_csv();
}

std::string temp_path(const char* tag) {
  const auto* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "hetflow_serve_" + info->name() + "_" +
         tag + ".json";
}

TEST(ServeDeterminism, LatencyCsvIsByteIdenticalAcrossJobCounts) {
  const ServeScript script = mixed_script();
  // Replica determinism: each replica owns engine + platform outright, so
  // --jobs 1 and --jobs 8 must produce the same bytes in every replica.
  const auto run_replicas = [&](std::size_t jobs) {
    return exec::parallel_map<std::string>(
        8, jobs, [&](std::size_t) { return run_once(script); });
  };
  const std::vector<std::string> serial = run_replicas(1);
  const std::vector<std::string> parallel = run_replicas(8);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_NE(serial[0].find("p99_latency_s"), std::string::npos);
  EXPECT_NE(serial[0].find(",a,"), std::string::npos);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], serial[0]) << "replica " << i;
    EXPECT_EQ(parallel[i], serial[0]) << "replica " << i;
  }
}

TEST(ServeDeterminism, SameSeedSameBytesDifferentConfigDifferentClock) {
  const ServeScript script = mixed_script();
  EXPECT_EQ(run_once(script), run_once(script));
  ServeConfig other = test_config();
  other.seed = 7;
  other.batch_limit = 3;  // different batching => different latencies
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, other);
  run_script(engine, script);
  EXPECT_NE(engine.latency_csv(), run_once(script));
}

TEST(ServeDeterminism, KillAndResumeReproducesTheUninterruptedBytes) {
  const ServeScript script = mixed_script();
  const std::string uninterrupted = run_once(script);

  // Run with a checkpoint after every batch, killed after the first
  // batch op; a fresh engine resumes from the file and finishes.
  const std::string path = temp_path("ckpt");
  const hw::Platform platform = hw::make_workstation();
  ServeEngine first(platform, test_config());
  const ScriptRunResult partial = run_script(first, script, 0, path, 1);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_GT(first.total_pending(), 0u);  // work genuinely in flight

  const hw::Platform platform2 = hw::make_workstation();
  ServeEngine resumed(platform2, test_config());
  const std::size_t start_op = ServeEngine::load_checkpoint(path, resumed);
  EXPECT_GT(start_op, 0u);
  EXPECT_EQ(resumed.batches_run(), 1u);
  EXPECT_EQ(resumed.total_pending(), first.total_pending());
  run_script(resumed, script, start_op);
  EXPECT_EQ(resumed.latency_csv(), uninterrupted);
  EXPECT_TRUE(resumed.audit_report().passed())
      << resumed.audit_report().summary();
  std::remove(path.c_str());
}

TEST(ServeDeterminism, KillAndResumeReproducesTheUninterruptedMetrics) {
  // The snapshot is built from the checkpointed ledgers, so it covers the
  // batches run before the kill as well as those after the resume. Kill
  // points: after the first batch op, and inside the drain.
  const ServeScript script = mixed_script();
  const hw::Platform platform = hw::make_workstation();
  ServeEngine straight(platform, test_config());
  run_script(straight, script);
  const std::string uninterrupted = straight.metrics_json();
  ASSERT_NE(uninterrupted.find("serve_deferred"), std::string::npos)
      << uninterrupted;
  ASSERT_NE(uninterrupted.find("serve_device_seconds"), std::string::npos)
      << uninterrupted;

  for (const std::size_t kill_after : {1u, 3u}) {
    const std::string path = temp_path("metrics");
    ServeEngine first(platform, test_config());
    ASSERT_TRUE(run_script(first, script, 0, path, kill_after).stopped_early);
    ServeEngine resumed(platform, test_config());
    run_script(resumed, script, ServeEngine::load_checkpoint(path, resumed));
    EXPECT_EQ(resumed.metrics_json(), uninterrupted)
        << "killed after " << kill_after << " batches";
    std::remove(path.c_str());
  }
}

TEST(ServeDeterminism, MidDrainCheckpointResumesIdempotently) {
  // Killing inside the drain loop stores the drain op itself; resuming
  // re-enters it over the emptier queues and must converge on the same
  // final table.
  const ServeScript script = mixed_script();
  const std::string uninterrupted = run_once(script);
  const std::string path = temp_path("mid_drain");
  const hw::Platform platform = hw::make_workstation();
  ServeEngine first(platform, test_config());
  // 3 batch ops: the 2 explicit ones plus the first inside the drain —
  // the kill lands mid-drain with work still pending.
  const ScriptRunResult partial = run_script(first, script, 0, path, 3);
  ASSERT_TRUE(partial.stopped_early);
  ASSERT_GT(first.total_pending(), 0u);

  const hw::Platform platform2 = hw::make_workstation();
  ServeEngine resumed(platform2, test_config());
  const std::size_t start_op = ServeEngine::load_checkpoint(path, resumed);
  run_script(resumed, script, start_op);
  EXPECT_EQ(resumed.latency_csv(), uninterrupted);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetflow::serve
