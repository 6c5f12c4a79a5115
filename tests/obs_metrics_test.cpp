// Unit tests for the observability primitives: the metrics registry
// (keying, kinds, reconciliation sums, snapshot determinism), the
// recorder's event/decision sinks, and the decision-log JSONL shape.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "obs/device_series.hpp"
#include "obs/recorder.hpp"
#include "sched/registry.hpp"
#include "util/strings.hpp"
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
  const util::Json doc = util::Json::parse(registry.to_json_string());
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
  const util::Json doc = util::Json::parse(registry.to_json_string());
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

TEST(Metrics, LabelsGivenOutOfOrderAreWrittenSorted) {
  // Label names are JsonWriter keys computed at run time; the snapshot
  // sorts them (a repeated name keeps its last value), so an
  // out-of-order, repeated and non-ASCII label set writes without
  // tripping the key-order check, in the DOM's order.
  MetricsRegistry registry;
  registry
      .counter("bytes", {{"zone", "1"},
                         {"\xc3\xa9t\"at", "x"},
                         {"dst", "vram"},
                         {"zone", "2"},
                         {"ab", "y"}})
      .inc(64.0);
  const std::string text = registry.to_json_string();
  const util::Json doc = util::Json::parse(text);
  EXPECT_EQ(doc.dump_pretty() + "\n", text);
  const util::Json& labels = doc.at("metrics").as_array().at(0).at("labels");
  EXPECT_EQ(labels.dump(),
            "{\"ab\":\"y\",\"dst\":\"vram\",\"zone\":\"2\","
            "\"\xc3\xa9t\\\"at\":\"x\"}");
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

TEST(Metrics, ReferencesStayValidAsTheRegistryGrows) {
  MetricsRegistry registry;
  Counter& tasks = registry.counter("tasks", {{"device", "cpu0"}});
  TimeWeighted& depth = registry.time_weighted("depth");
  tasks.inc();
  // Keys sorting before, between and after the two held entries.
  for (int i = 0; i < 10000; ++i) {
    registry.counter(util::format("%c%05d", "aet"[i % 3], i)).inc();
  }
  ASSERT_EQ(registry.size(), 10002u);
  tasks.inc(2.0);
  depth.update(0.0, 4.0);
  EXPECT_EQ(&registry.counter("tasks", {{"device", "cpu0"}}), &tasks);
  EXPECT_DOUBLE_EQ(registry.counter_value("tasks", {{"device", "cpu0"}}), 3.0);
  const std::string csv = registry.to_csv();
  EXPECT_NE(csv.find("\ntasks,device=cpu0,counter,3,"), std::string::npos);
  EXPECT_NE(csv.find("\ndepth,,time_weighted,4,4,4,4,1"), std::string::npos);
}

TEST(DeviceSeries, MatchesLookupsByName) {
  // The handles update the same entries the (name, labels) lookups
  // address, so the snapshots are byte-identical.
  const hw::Platform p = hw::make_workstation();
  MetricsRegistry by_handle;
  DeviceSeries series(by_handle, p, "dmda");
  series.task_queued(1, 0.0, 1);
  series.task_queued(1, 0.5, 2);
  series.queue_changed(1, 1.0, 1);
  series.retry(1);
  series.retry(1);
  MetricsRegistry by_name;
  const Labels device = {{"device", p.device(1).name()}};
  const Labels scheduled = {{"device", p.device(1).name()},
                            {"scheduler", "dmda"}};
  by_name.counter("tasks_scheduled", scheduled).inc();
  by_name.time_weighted("queue_depth", device).update(0.0, 1.0);
  by_name.counter("tasks_scheduled", scheduled).inc();
  by_name.time_weighted("queue_depth", device).update(0.5, 2.0);
  by_name.time_weighted("queue_depth", device).update(1.0, 1.0);
  by_name.counter("retry_attempts", device).inc();
  by_name.counter("retry_attempts", device).inc();
  EXPECT_EQ(by_handle.to_csv(), by_name.to_csv());
  EXPECT_EQ(by_handle.to_json_string(), by_name.to_json_string());
}

TEST(DeviceSeries, DeviceWithoutTasksRegistersNoSeries) {
  // CPU-only tasks on the workstation: the GPU never receives one.
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  core::Runtime rt(p, sched::make_scheduler("dmda"), options);
  for (int i = 0; i < 6; ++i) {
    rt.submit(util::format("t%d", i), hetflow::testing::cpu_only_codelet(),
              1e9, {});
  }
  rt.wait_all();
  const std::string csv = rt.recorder()->metrics().to_csv();
  for (const hw::Device& device : p.devices()) {
    const std::string labels = "device=" + device.name();
    const bool gpu = device.type() == hw::DeviceType::Gpu;
    for (const char* name : {"tasks_scheduled", "queue_depth"}) {
      EXPECT_EQ(csv.find(std::string("\n") + name + "," + labels) ==
                    std::string::npos,
                gpu)
          << name << " " << device.name();
    }
  }
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
