// ServeEngine behavior: admission + fair-share + batched execution on
// one shared platform, with the fairness auditor live on every run
// (the serve acceptance bar: checkers pass on every serve test).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hw/presets.hpp"
#include "serve/engine.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hetflow::serve {
namespace {

ServeConfig audited_config() {
  ServeConfig config;
  config.audit = true;
  return config;
}

JobSpec small_job(JobShape shape = JobShape::Chain,
                  std::uint32_t tasks = 3) {
  JobSpec job;
  job.shape = shape;
  job.tasks = tasks;
  job.flops = 1e9;
  job.bytes = 1 << 16;
  return job;
}

TEST(ServeEngine, ServesTwoTenantsToCompletionAndPassesAudit) {
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, audited_config());
  TenantSpec heavy;
  heavy.weight = 2.0;
  const TenantId a = engine.add_tenant(heavy);
  const TenantId b = engine.add_tenant({});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.submit(a, small_job()).decision,
              AdmissionDecision::Admitted);
    EXPECT_EQ(engine.submit(b, small_job(JobShape::Fanout, 6)).decision,
              AdmissionDecision::Admitted);
  }
  EXPECT_EQ(engine.total_pending(), 10u);
  engine.run_until_drained();
  EXPECT_EQ(engine.total_pending(), 0u);
  EXPECT_EQ(engine.stats(a).completed, 5u);
  EXPECT_EQ(engine.stats(b).completed, 5u);
  EXPECT_EQ(engine.stats(a).tasks_completed, 15u);
  EXPECT_EQ(engine.stats(b).tasks_completed, 30u);
  EXPECT_GT(engine.clock(), 0.0);
  EXPECT_EQ(engine.stats(a).latency.count(), 5u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, AllJobShapesExecuteIncludingDegenerateSizes) {
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, audited_config());
  const TenantId t = engine.add_tenant({});
  engine.submit(t, small_job(JobShape::Chain, 1));
  engine.submit(t, small_job(JobShape::Fanout, 2));
  engine.submit(t, small_job(JobShape::Diamond, 2));
  engine.submit(t, small_job(JobShape::Diamond, 6));
  engine.run_until_drained();
  EXPECT_EQ(engine.stats(t).completed, 4u);
  EXPECT_EQ(engine.stats(t).tasks_completed, 1u + 2u + 2u + 6u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, BacklogCapRejectsPerTenant) {
  ServeConfig config = audited_config();
  config.backlog_cap = 2;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  const TenantId t = engine.add_tenant({});
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Admitted);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Admitted);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Rejected);
  EXPECT_EQ(engine.stats(t).rejected, 1u);
  engine.run_until_drained();
  EXPECT_EQ(engine.stats(t).completed, 2u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, DeferredJobsDrainFifoAndComplete) {
  ServeConfig config = audited_config();
  config.backlog_cap = 8;
  config.admission.max_pending = 2;
  config.admission.defer_cap = 2;
  config.admission.policy = BackpressurePolicy::Defer;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  const TenantId t = engine.add_tenant({});
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Admitted);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Admitted);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Deferred);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Deferred);
  EXPECT_EQ(engine.submit(t, small_job()).decision,
            AdmissionDecision::Rejected);  // overflow full
  EXPECT_EQ(engine.overflow_size(), 2u);
  EXPECT_EQ(engine.total_pending(), 4u);
  engine.run_until_drained();
  engine.note_drained();
  EXPECT_EQ(engine.overflow_size(), 0u);
  EXPECT_EQ(engine.stats(t).completed, 4u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, PriorityTierCompletesInEarlierBatch) {
  ServeConfig config = audited_config();
  config.batch_limit = 2;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  TenantSpec urgent;
  urgent.priority = 3;
  const TenantId lo = engine.add_tenant({});
  const TenantId hi = engine.add_tenant(urgent);
  engine.submit(lo, small_job());
  engine.submit(lo, small_job());
  engine.submit(hi, small_job());
  engine.submit(hi, small_job());
  const BatchResult first = engine.run_batch();
  EXPECT_EQ(first.released, 2u);
  EXPECT_EQ(engine.stats(hi).completed, 2u);
  EXPECT_EQ(engine.stats(lo).completed, 0u);
  engine.run_until_drained();
  EXPECT_EQ(engine.stats(lo).completed, 2u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, WeightedFairShareAlternatesByDeficit) {
  // Equal-cost jobs, batch_limit 1: the release order must follow the
  // weighted deficit — the weight-2 tenant gets roughly two releases for
  // every one of the weight-1 tenant once consumption accrues.
  ServeConfig config = audited_config();
  config.batch_limit = 1;
  config.max_in_flight = 1;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  TenantSpec heavy;
  heavy.weight = 2.0;
  const TenantId a = engine.add_tenant(heavy);
  const TenantId b = engine.add_tenant({});
  for (int i = 0; i < 6; ++i) {
    engine.submit(a, small_job());
    engine.submit(b, small_job());
  }
  // After 9 single-job batches, the 2:1 entitlement puts ~6 of tenant a
  // and ~3 of tenant b through (exact split depends on identical costs;
  // the audit enforces the rule exactly, the counts sanity-check it).
  for (int i = 0; i < 9; ++i) {
    engine.run_batch();
  }
  EXPECT_GT(engine.stats(a).completed, engine.stats(b).completed);
  engine.run_until_drained();
  EXPECT_EQ(engine.stats(a).completed, 6u);
  EXPECT_EQ(engine.stats(b).completed, 6u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, MetricsAndValidationRunsStayClean) {
  ServeConfig config = audited_config();
  config.validate = true;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  TenantSpec named;
  named.name = "lab-x";
  const TenantId t = engine.add_tenant(named);
  engine.submit(t, small_job());
  engine.run_until_drained();
  const std::string metrics = engine.metrics_json();
  EXPECT_NE(metrics.find("serve_admitted"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("lab-x"), std::string::npos) << metrics;
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

/// "name{tenant=...}" -> value for every counter of a serve snapshot.
std::map<std::string, double> serve_counters(const std::string& json) {
  std::map<std::string, double> out;
  const util::Json doc = util::Json::parse(json);
  for (const util::Json& entry : doc.at("metrics").as_array()) {
    EXPECT_EQ(entry.at("kind").as_string(), "counter");
    out[entry.at("name").as_string() + "{tenant=" +
        entry.at("labels").at("tenant").as_string() + "}"] =
        entry.at("value").as_number();
  }
  return out;
}

TEST(ServeEngine, MetricsSnapshotMatchesTenantLedgers) {
  // Small caps so every admission outcome occurs: tenant "solo" is
  // admitted, deferred and rejected; the two tenants named "shared"
  // publish one series holding the sum of their ledgers; "late", in a
  // lower priority tier, is deferred, rejected and then moved from the
  // overflow into its backlog, but never released (no submit-time
  // admission, no completions); "idle" never submits.
  ServeConfig config = audited_config();
  config.batch_limit = 3;
  config.backlog_cap = 3;
  config.max_in_flight = 2;
  config.admission.max_pending = 6;
  config.admission.defer_cap = 2;
  config.admission.policy = BackpressurePolicy::Defer;
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, config);
  TenantSpec spec;
  spec.name = "solo";
  const TenantId solo = engine.add_tenant(spec);
  spec.name = "shared";
  const TenantId shared_a = engine.add_tenant(spec);
  const TenantId shared_b = engine.add_tenant(spec);
  spec.name = "late";
  spec.priority = -1;
  const TenantId late = engine.add_tenant(spec);
  spec.name = "idle";
  engine.add_tenant(spec);
  for (int i = 0; i < 5; ++i) {  // 3 admitted, 2 rejected (backlog cap)
    engine.submit(solo, small_job());
  }
  engine.submit(shared_a, small_job(JobShape::Fanout, 4));
  engine.submit(shared_a, small_job(JobShape::Fanout, 4));
  engine.submit(shared_b, small_job(JobShape::Diamond, 4));
  engine.submit(shared_b, small_job());  // pending at cap 6: deferred
  engine.submit(late, small_job());      // deferred
  engine.submit(late, small_job());      // overflow full: rejected
  engine.run_batch();
  engine.submit(solo, small_job());
  engine.submit(late, small_job());  // overflow still full: rejected
  engine.run_batch();  // drains the overflow first

  EXPECT_GT(engine.stats(solo).rejected, 0u);
  EXPECT_GT(engine.stats(shared_b).deferred, 0u);
  EXPECT_GT(engine.stats(late).deferred, 0u);
  EXPECT_GT(engine.stats(late).rejected, 0u);
  EXPECT_EQ(engine.stats(late).admitted, 1u);
  EXPECT_EQ(engine.stats(late).completed, 0u);
  EXPECT_GT(engine.stats(shared_a).completed, 0u);
  EXPECT_GT(engine.stats(shared_b).completed, 0u);

  // Expected series: the ledgers summed per name, in tenant-id order,
  // each present once nonzero (completions and device-seconds once
  // anything completed).
  std::map<std::string, double> expected;
  std::map<std::string, std::uint64_t> completed;
  for (TenantId t = 0; t < engine.tenant_count(); ++t) {
    const TenantStats& stats = engine.stats(t);
    const std::string labels = "{tenant=" + engine.spec(t).name + "}";
    const auto add = [&](const std::string& name, double value) {
      if (value > 0.0) {
        expected[name + labels] += value;
      }
    };
    add("serve_admitted", static_cast<double>(stats.submitted -
                                              stats.deferred -
                                              stats.rejected));
    add("serve_deferred", static_cast<double>(stats.deferred));
    add("serve_rejected", static_cast<double>(stats.rejected));
    if (stats.completed > 0) {
      expected["serve_completed" + labels] +=
          static_cast<double>(stats.completed);
      expected["serve_device_seconds" + labels] += stats.device_seconds;
    }
  }
  const std::map<std::string, double> actual =
      serve_counters(engine.metrics_json());
  EXPECT_EQ(actual, expected);

  // Spelled out for the series the rules above are easiest to get wrong.
  const TenantStats& a = engine.stats(shared_a);
  const TenantStats& b = engine.stats(shared_b);
  EXPECT_EQ(actual.at("serve_admitted{tenant=shared}"), 3.0);
  EXPECT_EQ(actual.at("serve_deferred{tenant=shared}"), 1.0);
  EXPECT_EQ(actual.at("serve_completed{tenant=shared}"),
            static_cast<double>(a.completed + b.completed));
  EXPECT_EQ(actual.at("serve_device_seconds{tenant=shared}"),
            0.0 + a.device_seconds + b.device_seconds);
  EXPECT_EQ(actual.at("serve_rejected{tenant=solo}"), 2.0);
  EXPECT_EQ(actual.at("serve_deferred{tenant=late}"), 1.0);
  EXPECT_EQ(actual.count("serve_admitted{tenant=late}"), 0u);
  EXPECT_EQ(actual.count("serve_completed{tenant=late}"), 0u);
  EXPECT_EQ(actual.count("serve_device_seconds{tenant=late}"), 0u);
  EXPECT_EQ(actual.count("serve_admitted{tenant=idle}"), 0u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(ServeEngine, StaticSchedulersAreRejectedAtConstruction) {
  ServeConfig config;
  config.scheduler = "heft";
  const hw::Platform platform = hw::make_workstation();
  EXPECT_THROW(ServeEngine(platform, config), util::Error);
}

TEST(ServeEngine, RunScriptDrivesTheFullProtocol) {
  const ServeScript script = parse_script(
      "{\"op\":\"tenant\",\"name\":\"a\",\"weight\":2}\n"
      "{\"op\":\"tenant\",\"name\":\"b\"}\n"
      "{\"op\":\"submit\",\"tenant\":0,\"tasks\":4,\"count\":3}\n"
      "{\"op\":\"submit\",\"tenant\":1,\"shape\":\"diamond\",\"tasks\":5,"
      "\"count\":3}\n"
      "{\"op\":\"batch\"}\n"
      "{\"op\":\"drain\"}\n");
  const hw::Platform platform = hw::make_workstation();
  ServeEngine engine(platform, audited_config());
  const ScriptRunResult result = run_script(engine, script);
  EXPECT_EQ(result.ops_applied, script.size());
  EXPECT_FALSE(result.stopped_early);
  EXPECT_GE(result.batches, 1u);
  EXPECT_EQ(engine.total_pending(), 0u);
  EXPECT_EQ(engine.stats(0).completed, 3u);
  EXPECT_EQ(engine.stats(1).completed, 3u);
  EXPECT_TRUE(engine.audit_report().passed())
      << engine.audit_report().summary();
}

TEST(FairnessMonitorSeeded, DetectsRuleViolations) {
  // The monitor is only trustworthy if it actually fires: feed it biased
  // event sequences and expect each violation class.
  {
    FairnessMonitor monitor;  // fair-share: wrong tenant released
    monitor.add_tenant(1.0, 0, 4);
    monitor.add_tenant(1.0, 0, 4);
    monitor.on_admit(0);
    monitor.on_admit(1);
    monitor.begin_batch();
    monitor.on_release(1);  // rule says tenant 0 (id tie-break)
    EXPECT_EQ(monitor.report().count(check::ViolationKind::FairShare), 1u);
  }
  {
    FairnessMonitor monitor;  // admission-wedge: pending but no release
    monitor.add_tenant(1.0, 0, 4);
    monitor.on_admit(0);
    monitor.begin_batch();
    monitor.end_batch(0, 1);
    EXPECT_EQ(monitor.report().count(check::ViolationKind::AdmissionWedge),
              1u);
  }
  {
    FairnessMonitor monitor;  // accounting: engine and runtime disagree
    monitor.reconcile_batch(3, 4, 1.0, 1.0);
    monitor.reconcile_batch(2, 2, 1.0, 2.0);
    EXPECT_EQ(
        monitor.report().count(check::ViolationKind::TenantAccounting), 2u);
  }
}

}  // namespace
}  // namespace hetflow::serve
