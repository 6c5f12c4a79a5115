#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "util/strings.hpp"
#include "sched/eager.hpp"
#include "sched/mct.hpp"

namespace hetflow::core {
namespace {

using hetflow::testing::cpu_gpu_codelet;
using hetflow::testing::cpu_only_codelet;

TEST(Runtime, RequiresScheduler) {
  const hw::Platform p = hw::make_cpu_only(2);
  EXPECT_THROW(Runtime(p, nullptr), util::InternalError);
}

TEST(Runtime, SingleTaskExecutes) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  const TaskId id = rt.submit("t0", cpu_only_codelet(), 6e9, {});
  rt.wait_all();
  const Task& t = rt.task(id);
  EXPECT_EQ(t.state(), TaskState::Completed);
  // 6e9 flops / (12 GFLOPS * 0.5) = 1.0 s + 1 us launch overhead.
  EXPECT_NEAR(rt.stats().makespan_s, 1.0, 1e-4);
  EXPECT_EQ(rt.stats().tasks_completed, 1u);
}

TEST(Runtime, ZeroFlopsTaskCompletesInstantly) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  rt.submit("noop", cpu_only_codelet(), 0.0, {});
  rt.wait_all();
  EXPECT_LT(rt.stats().makespan_s, 1e-3);  // only launch overhead
}

TEST(Runtime, UnrunnableCodeletRejectedAtSubmit) {
  const hw::Platform p = hw::make_cpu_only(2);  // no GPU
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  const CodeletPtr gpu_only =
      Codelet::make("gpu", {{hw::DeviceType::Gpu, 0.9}});
  EXPECT_THROW(rt.submit("t", gpu_only, 1e9, {}), util::InvalidArgument);
}

TEST(Runtime, WorkingSetLargerThanEveryDeviceMemoryRejectedAtSubmit) {
  // 75 GiB of inputs: more than host DRAM (64 GiB) and the GPU's HBM
  // (16 GiB), so no device can ever hold the task's working set.
  constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;
  const hw::Platform p = hw::make_workstation();
  for (const std::string& name : sched::scheduler_names()) {
    Runtime rt(p, sched::make_scheduler(name));
    const data::DataId host = rt.register_data("host", 60 * kGiB, 0);
    const data::DataId hbm = rt.register_data("hbm", 15 * kGiB, 1);
    try {
      rt.submit("huge", cpu_gpu_codelet(), 1e9,
                {{host, data::AccessMode::Read},
                 {hbm, data::AccessMode::Read}});
      ADD_FAILURE() << name << ": submit accepted a task no device fits";
    } catch (const util::InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("'huge'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(75 * kGiB)), std::string::npos)
          << what;
    }
    rt.wait_all();  // the rejected task left nothing behind
    EXPECT_EQ(rt.task_count(), 0u) << name;
  }
}

TEST(Runtime, UnregisteredDataRejected) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  EXPECT_THROW(
      rt.submit("t", cpu_only_codelet(), 1e9, {{5, data::AccessMode::Read}}),
      util::InternalError);
}

TEST(Runtime, IndependentTasksRunInParallel) {
  const hw::Platform p = hw::make_cpu_only(4);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  for (int i = 0; i < 4; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 6e9, {});
  }
  rt.wait_all();
  // 4 x 1 s of work on 4 cores: makespan ~1 s, not ~4 s.
  EXPECT_NEAR(rt.stats().makespan_s, 1.0, 0.01);
  EXPECT_EQ(rt.stats().tasks_completed, 4u);
}

TEST(Runtime, GpuOffloadBeatsCpuForDenseWork) {
  const hw::Platform p = hw::make_workstation();
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  rt.submit("dense", cpu_gpu_codelet(0.5, 0.8), 32e9, {});
  rt.wait_all();
  // GPU: 32e9/(400e9*0.8) = 0.1 s. CPU would need 6.4 s.
  EXPECT_LT(rt.stats().makespan_s, 0.2);
  const auto gpus = p.devices_of_type(hw::DeviceType::Gpu);
  EXPECT_EQ(rt.stats().devices[gpus[0]].tasks_completed, 1u);
}

TEST(Runtime, MakespanRespectsChainSerialization) {
  const hw::Platform p = hw::make_cpu_only(4);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("acc", 1024);
  for (int i = 0; i < 3; ++i) {
    rt.submit(util::format("link%d", i), cpu_only_codelet(), 6e9,
              {{d, data::AccessMode::ReadWrite}});
  }
  rt.wait_all();
  // RW chain serializes: ~3 s even with 4 cores.
  EXPECT_NEAR(rt.stats().makespan_s, 3.0, 0.01);
}

TEST(Runtime, StatsAccounting) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  rt.submit("a", cpu_only_codelet(), 6e9, {});
  rt.submit("b", cpu_only_codelet(), 6e9, {});
  rt.wait_all();
  const RunStats& stats = rt.stats();
  EXPECT_EQ(stats.tasks_completed, 2u);
  EXPECT_EQ(stats.failed_attempts, 0u);
  EXPECT_NEAR(stats.total_busy_seconds(), 2.0, 0.01);
  EXPECT_GT(stats.busy_energy_j(), 0.0);
  EXPECT_GT(stats.idle_energy_j(), 0.0);
  EXPECT_GT(stats.total_energy_j(), stats.busy_energy_j());
  EXPECT_NEAR(stats.mean_utilization(), 1.0, 0.01);
  EXPECT_GT(stats.edp(), 0.0);
  const std::string summary = stats.summary(p);
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("cpu0"), std::string::npos);
}

TEST(Runtime, ZeroMakespanSummaryRendersWithoutInfNan) {
  // An empty/instant run has makespan 0 — the per-device util% column
  // must degrade to 0.0 instead of emitting inf/nan.
  const hw::Platform p = hw::make_cpu_only(2);
  RunStats stats;
  stats.devices.resize(p.device_count());
  for (hw::DeviceId id = 0; id < p.device_count(); ++id) {
    stats.devices[id].device = id;
  }
  stats.devices[0].busy_seconds = 1.0;  // degenerate: busy but no makespan
  EXPECT_DOUBLE_EQ(stats.mean_utilization(), 0.0);
  const std::string summary = stats.summary(p);
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_EQ(summary.find("inf"), std::string::npos);
  EXPECT_EQ(summary.find("nan"), std::string::npos);
}

TEST(Runtime, TimesAreOrdered) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  const auto d = rt.register_data("x", 1024);
  const TaskId a = rt.submit("a", cpu_only_codelet(), 1e9,
                             {{d, data::AccessMode::Write}});
  const TaskId b = rt.submit("b", cpu_only_codelet(), 1e9,
                             {{d, data::AccessMode::Read}});
  rt.wait_all();
  const TaskTimes& ta = rt.task(a).times();
  const TaskTimes& tb = rt.task(b).times();
  EXPECT_LE(ta.submitted, ta.ready);
  EXPECT_LE(ta.ready, ta.started);
  EXPECT_LT(ta.started, ta.completed);
  // b could only become ready once a finished.
  EXPECT_GE(tb.ready, ta.completed - 1e-12);
}

TEST(Runtime, TraceRecordsExecutions) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  rt.submit("a", cpu_only_codelet(), 1e9, {});
  rt.submit("b", cpu_only_codelet(), 1e9, {});
  rt.wait_all();
  EXPECT_EQ(rt.tracer().spans().size(), 2u);
  hetflow::testing::expect_no_device_overlap(rt.tracer(), p);
}

TEST(Runtime, TraceCanBeDisabled) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options;
  options.record_trace = false;
  Runtime rt(p, std::make_unique<sched::EagerScheduler>(), options);
  rt.submit("a", cpu_only_codelet(), 1e9, {});
  rt.wait_all();
  EXPECT_TRUE(rt.tracer().spans().empty());
}

TEST(Runtime, NoiseIsDeterministicPerSeed) {
  const hw::Platform p = hw::make_cpu_only(2);
  RuntimeOptions options;
  options.noise_cv = 0.3;
  options.seed = 99;
  double first_makespan = 0.0;
  for (int run = 0; run < 2; ++run) {
    Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
    for (int i = 0; i < 6; ++i) {
      rt.submit(util::format("t%d", i), cpu_only_codelet(), 2e9, {});
    }
    rt.wait_all();
    if (run == 0) {
      first_makespan = rt.stats().makespan_s;
    } else {
      EXPECT_DOUBLE_EQ(rt.stats().makespan_s, first_makespan);
    }
  }
  // A different seed gives a different makespan.
  options.seed = 100;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 6; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 2e9, {});
  }
  rt.wait_all();
  EXPECT_NE(rt.stats().makespan_s, first_makespan);
}

TEST(Runtime, NoisePreservesMeanRoughly) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options;
  options.noise_cv = 0.2;
  Runtime rt(p, std::make_unique<sched::EagerScheduler>(), options);
  for (int i = 0; i < 200; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 6e9, {});
  }
  rt.wait_all();
  // 200 x ~1 s serialized on one core.
  EXPECT_NEAR(rt.stats().makespan_s, 200.0, 10.0);
}

TEST(Runtime, HistoryModelCalibratesOverRun) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const CodeletPtr codelet = cpu_only_codelet();
  for (int i = 0; i < 5; ++i) {
    rt.submit(util::format("t%d", i), codelet, 1e9, {});
  }
  rt.wait_all();
  EXPECT_TRUE(rt.history().calibrated(codelet->id(), hw::DeviceType::Cpu));
}

TEST(Runtime, HistoryModelCanBeDisabled) {
  const hw::Platform p = hw::make_cpu_only(2);
  RuntimeOptions options;
  options.use_history_model = false;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  const CodeletPtr codelet = cpu_only_codelet();
  for (int i = 0; i < 5; ++i) {
    rt.submit(util::format("t%d", i), codelet, 1e9, {});
  }
  rt.wait_all();
  EXPECT_FALSE(rt.history().calibrated(codelet->id(), hw::DeviceType::Cpu));
}

TEST(Runtime, MultipleWavesAccumulate) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  rt.submit("w1", cpu_only_codelet(), 6e9, {});
  const double first = rt.wait_all();
  rt.submit("w2", cpu_only_codelet(), 6e9, {});
  const double second = rt.wait_all();
  EXPECT_GT(second, first);
  EXPECT_EQ(rt.stats().tasks_completed, 2u);
}

TEST(Runtime, WaitAllOnEmptyRuntimeIsNoop) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  EXPECT_DOUBLE_EQ(rt.wait_all(), 0.0);
  EXPECT_EQ(rt.stats().tasks_completed, 0u);
}

TEST(Runtime, TaskAccessorBounds) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  EXPECT_THROW(rt.task(0), util::InternalError);
}

TEST(Runtime, PrioritySubmitStoresPriority) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::EagerScheduler>());
  const TaskId id = rt.submit("p", cpu_only_codelet(), 1e9, {}, 7.5);
  EXPECT_DOUBLE_EQ(rt.task(id).priority(), 7.5);
}

TEST(Runtime, TransfersAccountedInStats) {
  const hw::Platform p = hw::make_workstation();
  Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("big", 64ull << 20);  // home = host
  // Force GPU execution: GPU-only codelet reading host-resident data.
  const CodeletPtr gpu_only =
      Codelet::make("gpu", {{hw::DeviceType::Gpu, 0.9}});
  rt.submit("t", gpu_only, 1e9, {{d, data::AccessMode::Read}});
  rt.wait_all();
  EXPECT_EQ(rt.stats().transfers.transfer_count, 1u);
  EXPECT_EQ(rt.stats().transfers.bytes_moved, 64ull << 20);
  EXPECT_EQ(rt.stats().data.fetches, 1u);
}

}  // namespace
}  // namespace hetflow::core
