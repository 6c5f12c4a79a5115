// Unit tests for the observability primitives: the metrics registry
// (keying, kinds, reconciliation sums, snapshot determinism), the
// recorder's event/decision sinks, and the decision-log JSONL shape.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "obs/recorder.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hetflow::obs {
namespace {

TEST(Metrics, KeyBuildsPrometheusStyleNames) {
  EXPECT_EQ(MetricsRegistry::key("tasks", {}), "tasks");
  EXPECT_EQ(MetricsRegistry::key(
                "tasks", {{"device", "gpu0"}, {"scheduler", "dmda"}}),
            "tasks{device=gpu0,scheduler=dmda}");
}

TEST(Metrics, CounterAccumulatesPerLabelSet) {
  MetricsRegistry registry;
  registry.counter("tasks", {{"device", "cpu0"}}).inc();
  registry.counter("tasks", {{"device", "cpu0"}}).inc();
  registry.counter("tasks", {{"device", "gpu0"}}).inc(3.0);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_DOUBLE_EQ(registry.counter_value("tasks", {{"device", "cpu0"}}), 2.0);
  EXPECT_DOUBLE_EQ(registry.counter_value("tasks", {{"device", "gpu0"}}), 3.0);
  EXPECT_DOUBLE_EQ(registry.counter_sum("tasks"), 5.0);
  EXPECT_DOUBLE_EQ(registry.counter_sum("absent"), 0.0);
  EXPECT_DOUBLE_EQ(registry.counter_value("tasks", {{"device", "dsp0"}}), 0.0);
}

TEST(Metrics, CounterSumIgnoresOtherKindsAndPrefixes) {
  MetricsRegistry registry;
  registry.counter("busy", {{"device", "cpu0"}}).inc(1.5);
  registry.gauge("busy_peak").set(100.0);        // different name
  registry.counter("busy_total").inc(7.0);       // prefix, not same name
  EXPECT_DOUBLE_EQ(registry.counter_sum("busy"), 1.5);
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), InvalidArgument);
  EXPECT_THROW(registry.time_weighted("x"), InvalidArgument);
}

TEST(Metrics, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  registry.gauge("makespan_s").set(1.0);
  registry.gauge("makespan_s").set(2.5);
  const util::Json doc = registry.to_json();
  const auto& entries = doc.at("metrics").as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].at("value").as_number(), 2.5);
  EXPECT_EQ(entries[0].at("kind").as_string(), "gauge");
}

TEST(Metrics, TimeWeightedMeanIntegratesThePiecewiseSignal) {
  TimeWeighted tw;
  EXPECT_FALSE(tw.observed());
  tw.update(0.0, 2.0);   // value 2 on [0, 1)
  tw.update(1.0, 4.0);   // value 4 on [1, 3)
  tw.update(3.0, 0.0);
  EXPECT_TRUE(tw.observed());
  EXPECT_DOUBLE_EQ(tw.last(), 0.0);
  EXPECT_DOUBLE_EQ(tw.min(), 0.0);
  EXPECT_DOUBLE_EQ(tw.max(), 4.0);
  // (2*1 + 4*2) / 3
  EXPECT_DOUBLE_EQ(tw.mean(), 10.0 / 3.0);
  EXPECT_EQ(tw.updates(), 3u);
}

TEST(Metrics, TimeWeightedSingleUpdateMeanIsTheValue) {
  TimeWeighted tw;
  tw.update(5.0, 3.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 3.0);
}

TEST(Metrics, SnapshotsAreOrderIndependent) {
  // Two registries touched in opposite orders serialize identically —
  // the property behind jobs-count-independent golden snapshots.
  MetricsRegistry a;
  a.counter("tasks", {{"device", "cpu0"}}).inc();
  a.counter("bytes", {{"src", "ram"}, {"dst", "vram"}}).inc(64.0);
  a.gauge("makespan_s").set(1.5);

  MetricsRegistry b;
  b.gauge("makespan_s").set(1.5);
  b.counter("bytes", {{"src", "ram"}, {"dst", "vram"}}).inc(64.0);
  b.counter("tasks", {{"device", "cpu0"}}).inc();

  EXPECT_EQ(a.to_json_string(), b.to_json_string());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Metrics, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.counter("tasks", {{"device", "cpu0"}}).inc(2.0);
  registry.time_weighted("depth").update(0.0, 1.0);
  const util::Json doc = registry.to_json();
  const auto& entries = doc.at("metrics").as_array();
  ASSERT_EQ(entries.size(), 2u);
  // "depth" < "tasks{...}" lexicographically.
  EXPECT_EQ(entries[0].at("name").as_string(), "depth");
  EXPECT_EQ(entries[0].at("kind").as_string(), "time_weighted");
  EXPECT_TRUE(entries[0].contains("mean"));
  EXPECT_TRUE(entries[0].contains("updates"));
  EXPECT_EQ(entries[1].at("name").as_string(), "tasks");
  EXPECT_EQ(entries[1].at("labels").at("device").as_string(), "cpu0");
}

TEST(Metrics, CsvHasHeaderAndOneRowPerEntry) {
  MetricsRegistry registry;
  registry.counter("tasks").inc();
  registry.gauge("makespan_s").set(0.5);
  const std::string csv = registry.to_csv();
  EXPECT_NE(csv.find("name,labels,kind,value,min,max,mean,updates"),
            std::string::npos);
  EXPECT_NE(csv.find("tasks"), std::string::npos);
  EXPECT_NE(csv.find("makespan_s"), std::string::npos);
}

TEST(Recorder, DecisionsMirrorAsInstantEvents) {
  Recorder recorder;
  SchedDecision decision;
  decision.task = 42;
  decision.task_name = "gemm";
  decision.time = 1.25;
  decision.scheduler = "dmda";
  decision.candidates.push_back({0, 2.0, 5.0, false});
  decision.candidates.push_back({1, 1.5, 9.0, true});
  decision.winner = 1;
  decision.reason = "min completion";
  recorder.add_decision(std::move(decision));
  ASSERT_EQ(recorder.decisions().size(), 1u);
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.events()[0].kind, EventKind::Decision);
  EXPECT_EQ(recorder.events()[0].device, 1);
  EXPECT_EQ(recorder.events()[0].task, 42u);
  EXPECT_DOUBLE_EQ(recorder.events()[0].time, 1.25);
}

TEST(Recorder, DecisionJsonlResolvesDeviceNames) {
  const hw::Platform p = hw::make_workstation();
  Recorder recorder;
  SchedDecision decision;
  decision.task = 7;
  decision.task_name = "fft";
  decision.time = 0.5;
  decision.scheduler = "mct";
  decision.candidates.push_back({0, 1.0, 2.0, false});
  decision.winner = 0;
  decision.reason = "min completion (data-blind)";
  recorder.add_decision(std::move(decision));
  const std::string jsonl = recorder.decisions_jsonl(p);
  // One line, parseable, device ids resolved to names.
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(jsonl.find('\n'), jsonl.size() - 1);
  const util::Json line = util::Json::parse(jsonl);
  EXPECT_EQ(line.at("task").as_number(), 7.0);
  EXPECT_EQ(line.at("sched").as_string(), "mct");
  EXPECT_EQ(line.at("winner").as_string(), p.device(0).name());
  ASSERT_EQ(line.at("candidates").size(), 1u);
  EXPECT_EQ(line.at("candidates").as_array()[0].at("device").as_string(),
            p.device(0).name());
}

}  // namespace
}  // namespace hetflow::obs
