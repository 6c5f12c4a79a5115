// Cross-layer properties of the observability exports, checked for
// every instrumented scheduling policy:
//
//   1. The Chrome trace reconciles with RunStats: per device, the summed
//      durations of the exported "X" spans equal busy_seconds.
//   2. The metrics snapshot reconciles with RunStats — bitwise for the
//      second-valued counters, which wait_all() publishes from the stats
//      fields themselves — across waves and under node faults.
//   3. The decision log tells the truth: the LAST logged decision for
//      each task names the device the task actually ran on, as recorded
//      by the hetflow-verify audit snapshot.
//   4. Every export is a fixed point of Json::parse + dump: the streamed
//      Chrome trace, decision log, metrics snapshot and audit file come
//      out exactly as the Json DOM would write them, checked at the
//      scale the benchmark exports (a 16-node cluster run that emits
//      every EventKind).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hpp"
#include "check/audit_file.hpp"
#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

constexpr const char* kSchedulers[] = {"mct", "dmda", "dmdas",
                                       "work-stealing"};

/// An instrumented run of a generated workflow; noise keeps exec times
/// irregular so accidental reconciliations can't pass. (Runtime is not
/// movable — the scheduler context points back into it — so it lives on
/// the heap.)
std::unique_ptr<core::Runtime> make_run(
    const hw::Platform& platform, std::unique_ptr<core::Scheduler> scheduler) {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 13;
  options.noise_cv = 0.15;
  auto runtime = std::make_unique<core::Runtime>(
      platform, std::move(scheduler), options);
  workflow::submit_workflow(*runtime, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
  runtime->wait_all();
  return runtime;
}

std::unique_ptr<core::Runtime> make_run(const hw::Platform& platform,
                                        const std::string& scheduler) {
  return make_run(platform, sched::make_scheduler(scheduler));
}

TEST(ObsProperty, ChromeTraceSpanTimeEqualsRunStatsBusyTime) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    const util::Json doc = util::Json::parse(
        obs::chrome_trace_json(rt.tracer(), p, rt.recorder()));
    std::map<std::int64_t, double> span_seconds;
    for (const util::Json& event : doc.at("traceEvents").as_array()) {
      if (event.at("ph").as_string() != "X") {
        continue;
      }
      const auto tid =
          static_cast<std::int64_t>(event.at("tid").as_number());
      if (tid >= 1000) {
        continue;  // transfer tracks are not device busy time
      }
      span_seconds[tid] += event.at("dur").as_number() / 1e6;
    }
    for (hw::DeviceId d = 0; d < p.device_count(); ++d) {
      const double busy = rt.stats().devices[d].busy_seconds;
      // The trace round-trips timestamps through microseconds, so allow
      // only float noise proportional to the magnitude.
      EXPECT_NEAR(span_seconds[d], busy, 1e-9 * (1.0 + busy))
          << scheduler << " device " << p.device(d).name();
    }
  }
}

/// Every counter the runtime publishes at the end of wait_all() equals
/// the stats field it is published from — bitwise for the second-valued
/// ones — and the per-node and per-route tallies sum to the aggregates.
void expect_counters_match_stats(const core::Runtime& rt,
                                 const std::string& what) {
  const hw::Platform& p = rt.platform();
  const obs::MetricsRegistry& m = rt.recorder()->metrics();
  const core::RunStats& stats = rt.stats();
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  std::uint64_t assigned = 0;
  std::uint64_t retries = 0;
  for (const core::DeviceRunStats& device : stats.devices) {
    const std::string& name = p.device(device.device).name();
    const obs::Labels labels = {{"device", name}};
    EXPECT_EQ(m.counter_value("tasks_scheduled",
                              {{"device", name},
                               {"scheduler", rt.scheduler().name()}}),
              count(device.tasks_assigned))
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("retry_attempts", labels),
              count(device.retries))
        << what << " device " << name;
    // A retry follows a failed attempt on the same device.
    EXPECT_LE(device.retries, device.failed_attempts)
        << what << " device " << name;
    assigned += device.tasks_assigned;
    retries += device.retries;
    EXPECT_EQ(m.counter_value("tasks_completed", labels),
              count(device.tasks_completed))
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("failed_attempts", labels),
              count(device.failed_attempts))
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("timeouts", labels), count(device.timeouts))
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("blacklist_events", labels),
              count(device.blacklist_events))
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("busy_seconds", labels), device.busy_seconds)
        << what << " device " << name;
    EXPECT_EQ(m.counter_value("busy_energy_j", labels), device.busy_energy_j)
        << what << " device " << name;
  }
  EXPECT_EQ(m.counter_sum("tasks_scheduled"), count(assigned)) << what;
  EXPECT_EQ(m.counter_sum("retry_attempts"), count(retries)) << what;
  EXPECT_EQ(m.counter_sum("failed_attempts"), count(stats.failed_attempts))
      << what;
  EXPECT_EQ(m.counter_sum("timeouts"), count(stats.timeouts)) << what;
  EXPECT_EQ(m.counter_sum("blacklist_events"), count(stats.blacklist_events))
      << what;

  EXPECT_EQ(m.counter_sum("node_failures"), count(stats.node_failures))
      << what;
  EXPECT_EQ(m.counter_sum("tasks_resurrected"),
            count(stats.tasks_resurrected))
      << what;
  EXPECT_EQ(m.counter_sum("tasks_parked"), count(stats.tasks_parked)) << what;
  EXPECT_EQ(m.counter_sum("data_reseeded"), count(stats.data_reseeded))
      << what;
  EXPECT_EQ(m.counter_sum("tasks_lost"), count(stats.tasks_lost)) << what;

  const std::vector<data::DataManagerStats>& nodes = rt.data().node_stats();
  ASSERT_EQ(nodes.size(), p.memory_node_count());
  data::DataManagerStats summed;
  for (hw::MemoryNodeId node = 0; node < nodes.size(); ++node) {
    const std::string& name = p.memory_node(node).name();
    const obs::Labels labels = {{"node", name}};
    EXPECT_EQ(m.counter_value("fetches", labels), count(nodes[node].fetches))
        << what << " node " << name;
    EXPECT_EQ(m.counter_value("prefetches", labels),
              count(nodes[node].prefetches))
        << what << " node " << name;
    EXPECT_EQ(m.counter_value("evictions", labels),
              count(nodes[node].evictions))
        << what << " node " << name;
    EXPECT_EQ(m.counter_value("writebacks", labels),
              count(nodes[node].writebacks))
        << what << " node " << name;
    summed.fetches += nodes[node].fetches;
    summed.prefetches += nodes[node].prefetches;
    summed.evictions += nodes[node].evictions;
    summed.writebacks += nodes[node].writebacks;
  }
  EXPECT_EQ(summed.fetches, stats.data.fetches) << what;
  EXPECT_EQ(summed.prefetches, stats.data.prefetches) << what;
  EXPECT_EQ(summed.evictions, stats.data.evictions) << what;
  EXPECT_EQ(summed.writebacks, stats.data.writebacks) << what;
  EXPECT_EQ(m.counter_sum("fetches"), count(stats.data.fetches)) << what;
  EXPECT_EQ(m.counter_sum("prefetches"), count(stats.data.prefetches))
      << what;
  EXPECT_EQ(m.counter_sum("evictions"), count(stats.data.evictions)) << what;
  EXPECT_EQ(m.counter_sum("writebacks"), count(stats.data.writebacks))
      << what;

  data::RouteStats routes;
  for (hw::MemoryNodeId src = 0; src < nodes.size(); ++src) {
    for (hw::MemoryNodeId dst = 0; dst < nodes.size(); ++dst) {
      const data::RouteStats& route = rt.data().transfers().route_stats(src, dst);
      const obs::Labels labels = {{"src", p.memory_node(src).name()},
                                  {"dst", p.memory_node(dst).name()}};
      EXPECT_EQ(m.counter_value("transfers", labels), count(route.transfers))
          << what << " route " << src << "->" << dst;
      EXPECT_EQ(m.counter_value("bytes_transferred", labels),
                count(route.bytes))
          << what << " route " << src << "->" << dst;
      routes.transfers += route.transfers;
      routes.bytes += route.bytes;
    }
  }
  EXPECT_EQ(routes.transfers, stats.transfers.transfer_count) << what;
  EXPECT_EQ(routes.bytes, stats.transfers.bytes_moved) << what;
  EXPECT_EQ(m.counter_sum("transfers"), count(stats.transfers.transfer_count))
      << what;
  EXPECT_EQ(m.counter_sum("bytes_transferred"),
            count(stats.transfers.bytes_moved))
      << what;
}

TEST(ObsProperty, MetricsSnapshotReconcilesWithRunStats) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    expect_counters_match_stats(rt, scheduler);
    EXPECT_EQ(rt.recorder()->metrics().counter_sum("tasks_completed"),
              static_cast<double>(rt.stats().tasks_completed))
        << scheduler;
    // No fault injection in this run, so every task passes through the
    // scheduler exactly once.
    EXPECT_EQ(rt.recorder()->metrics().counter_sum("tasks_scheduled"),
              static_cast<double>(rt.stats().tasks_completed))
        << scheduler;
  }

  // Node fault with resurrection, parking and reseeding, Drop losses,
  // timeouts, eviction, write-back and prefetch (every counter nonzero),
  // then a second wave on the survivors: publishing must assign the
  // running totals, not add them to the first wave's.
  const hw::Platform accounting = hetflow::testing::make_accounting_platform();
  core::Runtime rt(accounting, sched::make_scheduler("dmda"),
                   hetflow::testing::accounting_options());
  hetflow::testing::submit_accounting_workload(rt);
  rt.wait_all();
  ASSERT_GT(rt.stats().node_failures, 0u);
  ASSERT_GT(rt.stats().tasks_lost, 0u);
  ASSERT_GT(rt.recorder()->metrics().counter_sum("retry_attempts"), 0.0);
  expect_counters_match_stats(rt, "accounting wave 1");
  const core::CodeletPtr codelet = hetflow::testing::cpu_gpu_codelet();
  for (int i = 0; i < 6; ++i) {
    const data::DataId d =
        rt.register_data(util::format("wave2_%d", i), 8 << 20);
    rt.submit(util::format("wave2_%d", i), codelet, 4e9,
              {{d, data::AccessMode::Write}});
  }
  rt.wait_all();
  expect_counters_match_stats(rt, "accounting wave 2");
}

/// The last logged decision per task names the device the audit says
/// the task ran on.
void expect_last_winner_ran_the_task(const core::Runtime& rt,
                                     const std::string& scheduler) {
  // Last decision per task wins: pull-mode policies log both the
  // enqueue-time and the hand-off decision.
  std::map<std::uint64_t, hw::DeviceId> logged;
  for (const obs::SchedDecision& d : rt.recorder()->decisions()) {
    logged[d.task] = d.winner;
  }
  ASSERT_FALSE(logged.empty()) << scheduler;

  const check::AuditRecord audit = check::snapshot_audit(rt);
  std::size_t checked = 0;
  for (const check::TaskRecord& task : audit.run.tasks) {
    if (!task.completed) {
      continue;
    }
    const auto it = logged.find(task.id);
    ASSERT_NE(it, logged.end())
        << scheduler << " never logged a decision for task " << task.id;
    EXPECT_EQ(static_cast<std::uint32_t>(it->second), task.device)
        << scheduler << " decision log winner disagrees with the audit "
        << "for task " << task.id << " (" << task.name << ")";
    ++checked;
  }
  EXPECT_EQ(checked, rt.stats().tasks_completed) << scheduler;
}

TEST(ObsProperty, LastDecisionWinnerIsTheDeviceTheTaskRanOn) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    expect_last_winner_ran_the_task(*make_run(p, scheduler), scheduler);
  }
  // Inner policies under cluster placement log through a per-node view
  // whose device ids start at 0 on every node; the log must carry the
  // flat ids the tasks ran on.
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 2, 1);
  for (const char* inner : {"dmda", "work-stealing"}) {
    expect_last_winner_ran_the_task(
        *make_run(cluster.platform(),
                  sched::make_cluster_scheduler(cluster, inner)),
        std::string("cluster:") + inner);
  }
}

TEST(ObsProperty, EveryDecisionRecordsFiniteCandidatePredictions) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    for (const obs::SchedDecision& d : rt.recorder()->decisions()) {
      EXPECT_FALSE(d.candidates.empty()) << scheduler;
      EXPECT_FALSE(d.reason.empty()) << scheduler;
      bool winner_is_candidate = false;
      for (const obs::DecisionCandidate& c : d.candidates) {
        EXPECT_TRUE(std::isfinite(c.predicted_finish_s)) << scheduler;
        if (c.single_device) {
          winner_is_candidate = winner_is_candidate || c.device == d.winner;
          continue;
        }
        // A class row names its class by the lowest member and scores
        // every member.
        const hw::DeviceClass& members =
            p.device_classes()[p.class_of(c.device)];
        EXPECT_EQ(members.front(), c.device) << scheduler;
        winner_is_candidate =
            winner_is_candidate ||
            std::count(members.begin(), members.end(), d.winner) == 1;
      }
      EXPECT_TRUE(winner_is_candidate)
          << scheduler << " chose a device it never scored (task " << d.task
          << ")";
    }
  }
}

/// `text` must come back byte for byte from `reparsed`; on a mismatch,
/// report the first differing offset with some context instead of two
/// multi-megabyte strings.
void expect_same_bytes(std::string_view text, std::string_view reparsed,
                       const std::string& what) {
  if (text == reparsed) {
    return;
  }
  const auto diff = static_cast<std::size_t>(
      std::mismatch(text.begin(), text.end(), reparsed.begin(),
                    reparsed.end())
          .first -
      text.begin());
  const std::size_t from = diff < 60 ? 0 : diff - 60;
  ADD_FAILURE() << what << " is not a fixed point of Json::parse + dump: "
                << "first difference at byte " << diff << " of "
                << text.size() << "\n  export:  ..."
                << text.substr(from, 120) << "\n  re-dump: ..."
                << reparsed.substr(from, 120);
}

TEST(ObsProperty, ExportsAreFixedPointsOfJsonParseAndDumpAtScale) {
  // 16 nodes, cluster:dmda with prefetch, transient fail-stop and
  // fail-silent failures caught by a watchdog, one flaky GPU that is
  // blacklisted and put on probation, and a three-attempt Drop budget.
  const hw::Cluster cluster = hw::make_hpc_cluster(16, 4, 1);
  const hw::Platform& p = cluster.platform();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 5;
  options.enable_prefetch = true;
  options.failure_model = hw::FailureModel::uniform(0.01);
  options.failure_model.set_device_rate(cluster.devices_on(3).back(), 20.0);
  options.failure_model.set_hang_fraction(0.3);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.timeout_s = 60.0;
  options.retry.max_attempts = 3;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 0.5;
  core::Runtime rt(p,
                   sched::make_cluster_scheduler(cluster, "dmda", "locality",
                                                 options.seed),
                   options);
  std::vector<hw::MemoryNodeId> homes;
  for (const hw::ClusterNode& node : cluster.nodes()) {
    homes.push_back(node.gateway);
  }
  workflow::submit_workflow_scattered(rt, workflow::make_montage(5000),
                                      workflow::CodeletLibrary::standard(),
                                      homes);
  rt.wait_all();
  ASSERT_GE(rt.task_count(), 20000u);

  const obs::Recorder& recorder = *rt.recorder();
  std::set<obs::EventKind> kinds;
  for (const obs::Event& event : recorder.events()) {
    kinds.insert(event.kind);
  }
  for (obs::EventKind kind :
       {obs::EventKind::Transfer, obs::EventKind::Prefetch,
        obs::EventKind::Retry, obs::EventKind::Timeout,
        obs::EventKind::Blacklist, obs::EventKind::Probation,
        obs::EventKind::Decision, obs::EventKind::Abandon}) {
    EXPECT_EQ(kinds.count(kind), 1u)
        << "the run emitted no " << obs::to_string(kind) << " event";
  }

  const std::string chrome = obs::chrome_trace_json(rt.tracer(), p, &recorder);
  expect_same_bytes(chrome, util::Json::parse(chrome).dump(), "Chrome trace");

  const std::string decisions = recorder.decisions_jsonl(p);
  ASSERT_FALSE(decisions.empty());
  ASSERT_EQ(decisions.back(), '\n');
  std::size_t lines = 0;
  for (std::size_t begin = 0; begin < decisions.size(); ++lines) {
    const std::size_t end = decisions.find('\n', begin);
    const std::string_view line(decisions.data() + begin, end - begin);
    expect_same_bytes(line, util::Json::parse(line).dump(),
                      "decision-log line " + std::to_string(lines + 1));
    begin = end + 1;
  }
  EXPECT_EQ(lines, recorder.decisions().size());

  const std::string metrics = recorder.metrics().to_json_string();
  ASSERT_EQ(metrics.back(), '\n');
  const std::string_view metrics_doc(metrics.data(), metrics.size() - 1);
  expect_same_bytes(metrics_doc, util::Json::parse(metrics_doc).dump_pretty(),
                    "metrics snapshot");

  const std::string audit = check::to_audit_json(check::snapshot_audit(rt));
  expect_same_bytes(audit, util::Json::parse(audit).dump_pretty(),
                    "audit file");
}

}  // namespace
}  // namespace hetflow
