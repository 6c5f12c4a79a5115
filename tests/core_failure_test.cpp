// Fault injection and retry policies.
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "sched/mct.hpp"
#include "util/strings.hpp"

namespace hetflow::core {
namespace {

using hetflow::testing::cpu_only_codelet;

RuntimeOptions failing_options(double rate, FailurePolicy policy,
                               std::uint64_t seed = 42) {
  RuntimeOptions options;
  options.failure_model = hw::FailureModel::uniform(rate);
  options.failure_policy = policy;
  options.seed = seed;
  return options;
}

TEST(Failure, TasksEventuallyCompleteWithRetrySame) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(1.0, FailurePolicy::RetrySameDevice));
  for (int i = 0; i < 20; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 20u);
  EXPECT_GT(rt.stats().failed_attempts, 0u);
}

TEST(Failure, TasksEventuallyCompleteWithReschedule) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(1.0, FailurePolicy::Reschedule));
  for (int i = 0; i < 20; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 20u);
  EXPECT_GT(rt.stats().failed_attempts, 0u);
}

TEST(Failure, FailedAttemptsInflateMakespan) {
  const hw::Platform p = hw::make_cpu_only(2);
  double clean_makespan = 0.0;
  {
    Runtime rt(p, std::make_unique<sched::MctScheduler>());
    for (int i = 0; i < 10; ++i) {
      rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
    }
    rt.wait_all();
    clean_makespan = rt.stats().makespan_s;
  }
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(1.5, FailurePolicy::RetrySameDevice));
  for (int i = 0; i < 10; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
  }
  rt.wait_all();
  EXPECT_GT(rt.stats().makespan_s, clean_makespan);
}

TEST(Failure, FailedSpansAppearInTrace) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(2.0, FailurePolicy::RetrySameDevice, 7));
  for (int i = 0; i < 10; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
  }
  rt.wait_all();
  std::size_t failed_spans = 0;
  std::size_t exec_spans = 0;
  for (const trace::Span& span : rt.tracer().spans()) {
    if (span.kind == trace::SpanKind::FailedExec) {
      ++failed_spans;
    } else if (span.kind == trace::SpanKind::Exec) {
      ++exec_spans;
    }
  }
  EXPECT_EQ(exec_spans, 10u);
  EXPECT_EQ(failed_spans, rt.stats().failed_attempts);
  EXPECT_GT(failed_spans, 0u);
  hetflow::testing::expect_no_device_overlap(rt.tracer(), p);
}

TEST(Failure, FailedEnergyIsCharged) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime clean_rt(p, std::make_unique<sched::MctScheduler>());
  clean_rt.submit("t", cpu_only_codelet(), 6e9, {});
  clean_rt.wait_all();

  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(0.8, FailurePolicy::RetrySameDevice, 3));
  rt.submit("t", cpu_only_codelet(), 6e9, {});
  rt.wait_all();
  if (rt.stats().failed_attempts > 0) {
    EXPECT_GT(rt.stats().busy_energy_j(), clean_rt.stats().busy_energy_j());
  }
}

TEST(Failure, MaxAttemptsAborts) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options =
      failing_options(10000.0, FailurePolicy::RetrySameDevice);
  options.max_attempts = 5;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  rt.submit("doomed", cpu_only_codelet(), 6e9, {});
  EXPECT_THROW(rt.wait_all(), util::Error);
}

TEST(Failure, DependentsWaitForSuccessfulCompletion) {
  const hw::Platform p = hw::make_cpu_only(2);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(1.0, FailurePolicy::Reschedule, 11));
  const auto d = rt.register_data("d", 1024);
  const TaskId w =
      rt.submit("w", cpu_only_codelet(), 5e9, {{d, data::AccessMode::Write}});
  const TaskId r =
      rt.submit("r", cpu_only_codelet(), 1e9, {{d, data::AccessMode::Read}});
  rt.wait_all();
  EXPECT_EQ(rt.task(r).state(), TaskState::Completed);
  EXPECT_GE(rt.task(r).times().started,
            rt.task(w).times().completed - 1e-12);
}

TEST(Failure, DeterministicAcrossRuns) {
  const hw::Platform p = hw::make_cpu_only(3);
  double makespans[2];
  std::size_t failures[2];
  for (int run = 0; run < 2; ++run) {
    Runtime rt(p, std::make_unique<sched::MctScheduler>(),
               failing_options(0.7, FailurePolicy::Reschedule, 123));
    for (int i = 0; i < 30; ++i) {
      rt.submit(util::format("t%d", i), cpu_only_codelet(), 2e9, {});
    }
    rt.wait_all();
    makespans[run] = rt.stats().makespan_s;
    failures[run] = rt.stats().failed_attempts;
  }
  EXPECT_DOUBLE_EQ(makespans[0], makespans[1]);
  EXPECT_EQ(failures[0], failures[1]);
}

TEST(Failure, AttemptsCounted) {
  const hw::Platform p = hw::make_cpu_only(1);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(1.0, FailurePolicy::RetrySameDevice, 5));
  const TaskId id = rt.submit("t", cpu_only_codelet(), 6e9, {});
  rt.wait_all();
  EXPECT_GE(rt.task(id).attempts(), 1u);
  EXPECT_EQ(rt.task(id).state(), TaskState::Completed);
}

class FailureRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(FailureRateSweep, AllWorkCompletesUnderAnyRate) {
  const hw::Platform p = hw::make_cpu_only(4);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(),
             failing_options(GetParam(), FailurePolicy::Reschedule, 31));
  for (int i = 0; i < 25; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 1e9, {});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 25u);
}

INSTANTIATE_TEST_SUITE_P(Rates, FailureRateSweep,
                         ::testing::Values(0.0, 0.1, 1.0, 5.0));

// --- RetryPolicy: backoff ---------------------------------------------------

TEST(Retry, BackoffDelayGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.backoff_base_s = 1.0;
  policy.backoff_factor = 2.0;
  policy.backoff_max_s = 10.0;
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(3), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(4), 8.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(5), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(50), 10.0);
}

TEST(Retry, ZeroBaseMeansImmediateRetry) {
  RetryPolicy policy;  // defaults: backoff_base_s = 0
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(3), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay_s(3, rng), 0.0);
}

TEST(Retry, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.backoff_base_s = 2.0;
  policy.backoff_jitter = 0.5;
  util::Rng a(99);
  util::Rng b(99);
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const double base = policy.backoff_delay_s(attempt);
    const double da = policy.backoff_delay_s(attempt, a);
    const double db = policy.backoff_delay_s(attempt, b);
    EXPECT_DOUBLE_EQ(da, db);
    EXPECT_GE(da, base);
    EXPECT_LT(da, base * 1.5);
  }
}

TEST(Retry, BackoffDelaysRetriesInSimulatedTime) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions immediate = failing_options(2.0, FailurePolicy::RetrySameDevice, 7);
  RuntimeOptions delayed = immediate;
  delayed.retry.backoff_base_s = 0.5;
  delayed.retry.backoff_jitter = 0.25;

  double makespans[2];
  std::size_t failures[2];
  int idx = 0;
  for (const RuntimeOptions& options : {immediate, delayed}) {
    Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
    for (int i = 0; i < 10; ++i) {
      rt.submit(util::format("t%d", i), cpu_only_codelet(), 3e9, {});
    }
    rt.wait_all();
    makespans[idx] = rt.stats().makespan_s;
    failures[idx] = rt.stats().failed_attempts;
    ++idx;
  }
  // Same seed, same failure draws — backoff only inserts idle gaps.
  ASSERT_GT(failures[0], 0u);
  EXPECT_GT(makespans[1], makespans[0]);
}

TEST(Retry, BackoffRunsAreDeterministic) {
  const hw::Platform p = hw::make_cpu_only(3);
  double makespans[2];
  for (int run = 0; run < 2; ++run) {
    RuntimeOptions options = failing_options(1.0, FailurePolicy::Reschedule, 17);
    options.retry.backoff_base_s = 0.2;
    options.retry.backoff_jitter = 0.5;
    Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
    for (int i = 0; i < 20; ++i) {
      rt.submit(util::format("t%d", i), cpu_only_codelet(), 2e9, {});
    }
    rt.wait_all();
    makespans[run] = rt.stats().makespan_s;
  }
  EXPECT_DOUBLE_EQ(makespans[0], makespans[1]);
}

// --- RetryPolicy: per-attempt timeout --------------------------------------

TEST(Retry, TimeoutKillsSlowTaskAndDropsIt) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options;  // no fault injection: only the watchdog fires
  options.retry.timeout_s = 0.1;
  options.retry.max_attempts = 3;
  options.retry.on_exhausted = ExhaustionPolicy::Drop;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  // Short task finishes well inside the deadline; long task can never.
  const TaskId quick = rt.submit("quick", cpu_only_codelet(), 1e8, {});
  const TaskId slow = rt.submit("slow", cpu_only_codelet(), 1e12, {});
  rt.wait_all();
  EXPECT_EQ(rt.task(quick).state(), TaskState::Completed);
  EXPECT_EQ(rt.task(slow).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.stats().tasks_completed, 1u);
  EXPECT_EQ(rt.stats().tasks_lost, 1u);
  EXPECT_EQ(rt.stats().timeouts, 3u);
  EXPECT_EQ(rt.stats().failed_attempts, 3u);
  hetflow::testing::expect_no_device_overlap(rt.tracer(), p);
}

TEST(Retry, TimeoutExhaustionAbortsByDefault) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options;
  options.retry.timeout_s = 0.1;
  options.retry.max_attempts = 2;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  rt.submit("slow", cpu_only_codelet(), 1e12, {});
  EXPECT_THROW(rt.wait_all(), util::Error);
}

TEST(Retry, TimeoutBudgetLeavesFastTasksAlone) {
  const hw::Platform p = hw::make_cpu_only(2);
  RuntimeOptions options;
  options.retry.timeout_s = 1e6;  // generous: nothing should trip
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 12; ++i) {
    rt.submit(util::format("t%d", i), cpu_only_codelet(), 2e9, {});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 12u);
  EXPECT_EQ(rt.stats().timeouts, 0u);
  EXPECT_EQ(rt.stats().failed_attempts, 0u);
}

TEST(Retry, RetryMaxAttemptsOverridesRuntimeBudget) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options =
      failing_options(10000.0, FailurePolicy::RetrySameDevice);
  options.max_attempts = 1000;  // legacy budget would retry for a while
  options.retry.max_attempts = 4;
  options.retry.on_exhausted = ExhaustionPolicy::Drop;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  const TaskId id = rt.submit("doomed", cpu_only_codelet(), 6e9, {});
  rt.wait_all();  // Drop: the run completes instead of throwing
  EXPECT_EQ(rt.task(id).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.task(id).attempts(), 4u);
  EXPECT_EQ(rt.stats().tasks_lost, 1u);
}

// --- ExhaustionPolicy::Drop cascade ----------------------------------------

TEST(Retry, DropAbandonsDependentSubtree) {
  const hw::Platform p = hw::make_cpu_only(2);
  RuntimeOptions options;
  options.retry.timeout_s = 0.1;
  options.retry.max_attempts = 2;
  options.retry.on_exhausted = ExhaustionPolicy::Drop;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  const auto d = rt.register_data("d", 1 << 20);
  const TaskId w = rt.submit("w", cpu_only_codelet(), 1e12,
                             {{d, data::AccessMode::Write}});
  const TaskId r1 = rt.submit("r1", cpu_only_codelet(), 1e8,
                              {{d, data::AccessMode::Read}});
  const TaskId r2 = rt.submit("r2", cpu_only_codelet(), 1e8,
                              {{d, data::AccessMode::Read}});
  const TaskId free_task = rt.submit("free", cpu_only_codelet(), 1e8, {});
  rt.wait_all();
  EXPECT_EQ(rt.task(w).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.task(r1).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.task(r2).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.task(free_task).state(), TaskState::Completed);
  EXPECT_EQ(rt.stats().tasks_lost, 3u);
  EXPECT_EQ(rt.stats().tasks_completed, 1u);
}

TEST(Retry, SubmitAgainstAbandonedProducerIsAbandoned) {
  const hw::Platform p = hw::make_cpu_only(1);
  RuntimeOptions options;
  options.retry.timeout_s = 0.1;
  options.retry.max_attempts = 1;
  options.retry.on_exhausted = ExhaustionPolicy::Drop;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  const auto d = rt.register_data("d", 1024);
  rt.submit("w", cpu_only_codelet(), 1e12, {{d, data::AccessMode::Write}});
  rt.wait_all();
  // A later wave depending on the lost producer is lost too, not stuck.
  const TaskId late = rt.submit("late", cpu_only_codelet(), 1e8,
                                {{d, data::AccessMode::Read}});
  rt.wait_all();
  EXPECT_EQ(rt.task(late).state(), TaskState::Abandoned);
  EXPECT_EQ(rt.stats().tasks_lost, 2u);
}

// --- Device blacklisting ----------------------------------------------------

RuntimeOptions gpu_flaky_options(std::uint64_t seed) {
  RuntimeOptions options;
  options.failure_model.set_rate(hw::DeviceType::Gpu, 60.0);
  options.failure_policy = FailurePolicy::Reschedule;
  options.seed = seed;
  options.max_attempts = 500;
  return options;
}

TEST(Retry, BlacklistQuarantinesFlakyDevice) {
  const hw::Platform p = hw::make_workstation();
  RuntimeOptions options = gpu_flaky_options(9);
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 2.0;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 40; ++i) {
    rt.submit(util::format("t%d", i),
              hetflow::testing::cpu_gpu_codelet(), 4e9, {});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 40u);
  EXPECT_GT(rt.stats().blacklist_events, 0u);
  std::size_t per_device = 0;
  for (const DeviceRunStats& d : rt.stats().devices) {
    per_device += d.blacklist_events;
  }
  EXPECT_EQ(per_device, rt.stats().blacklist_events);
  // Quarantine is lifted when the run drains: validate mode requires an
  // empty event queue, and the next wave must be schedulable everywhere.
  EXPECT_TRUE(rt.event_queue().empty());
  for (const hw::Device& device : p.devices()) {
    EXPECT_FALSE(rt.health().blacklisted(device.id()));
  }
}

TEST(Retry, NodeFaultOnQuarantinedDeviceIsNotASecondQuarantine) {
  // The GPU is quarantined by its first failure and stays out; the node
  // fault that later takes it only extends that quarantine, so the run
  // total must still equal the per-device counts.
  const hw::Platform p = hw::make_workstation();
  const hw::DeviceId gpu = p.devices_of_type(hw::DeviceType::Gpu).front();
  RuntimeOptions options = gpu_flaky_options(9);
  options.retry.blacklist_after = 1;
  options.retry.probation_s = 1e6;
  NodeFault fault;
  fault.at = 0.3;
  fault.devices = {gpu};
  options.node_faults.push_back(fault);
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 40; ++i) {
    rt.submit(util::format("t%d", i),
              hetflow::testing::cpu_gpu_codelet(), 4e9, {});
  }
  rt.wait_all();
  ASSERT_EQ(rt.stats().node_failures, 1u);
  EXPECT_EQ(rt.stats().devices[gpu].blacklist_events, 1u);
  std::uint64_t per_device = 0;
  for (const DeviceRunStats& d : rt.stats().devices) {
    per_device += d.blacklist_events;
  }
  EXPECT_EQ(rt.stats().blacklist_events, per_device);
}

TEST(Retry, BlacklistReducesFailedAttemptsOnFlakyDevice) {
  const hw::Platform p = hw::make_workstation();
  std::size_t failed_without = 0;
  std::size_t failed_with = 0;
  {
    Runtime rt(p, std::make_unique<sched::MctScheduler>(),
               gpu_flaky_options(21));
    for (int i = 0; i < 40; ++i) {
      rt.submit(util::format("t%d", i),
                hetflow::testing::cpu_gpu_codelet(), 4e9, {});
    }
    rt.wait_all();
    failed_without = rt.stats().failed_attempts;
  }
  {
    RuntimeOptions options = gpu_flaky_options(21);
    options.retry.blacklist_after = 2;
    options.retry.probation_s = 50.0;
    Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
    for (int i = 0; i < 40; ++i) {
      rt.submit(util::format("t%d", i),
                hetflow::testing::cpu_gpu_codelet(), 4e9, {});
    }
    rt.wait_all();
    failed_with = rt.stats().failed_attempts;
    EXPECT_GT(rt.stats().blacklist_events, 0u);
  }
  EXPECT_LT(failed_with, failed_without);
}

TEST(Retry, BlacklistValidatesCleanly) {
  const hw::Platform p = hw::make_workstation();
  RuntimeOptions options = gpu_flaky_options(33);
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 100.0;  // timer outlives the run
  options.validate = true;
  Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 20; ++i) {
    rt.submit(util::format("t%d", i),
              hetflow::testing::cpu_gpu_codelet(), 4e9, {});
  }
  EXPECT_NO_THROW(rt.wait_all());
}

TEST(Retry, StaticSchedulerRejectsBlacklisting) {
  const hw::Platform p = hw::make_workstation();
  RuntimeOptions options;
  options.retry.blacklist_after = 2;
  EXPECT_THROW(Runtime(p, sched::make_scheduler("heft"), options),
               util::Error);
}

TEST(Retry, DeviceHealthStateMachine) {
  DeviceHealth health(2);
  EXPECT_FALSE(health.blacklisted(0));
  // Two strikes with blacklist_after=3: still healthy.
  EXPECT_FALSE(health.note_failure(0, 3, 10.0));
  EXPECT_FALSE(health.note_failure(0, 3, 10.0));
  EXPECT_FALSE(health.blacklisted(0));
  // A success resets the streak (no state transition while Healthy).
  EXPECT_FALSE(health.note_success(0));
  EXPECT_FALSE(health.note_failure(0, 3, 10.0));
  EXPECT_FALSE(health.note_failure(0, 3, 10.0));
  // Third consecutive strike quarantines.
  EXPECT_TRUE(health.note_failure(0, 3, 10.0));
  EXPECT_TRUE(health.blacklisted(0));
  EXPECT_DOUBLE_EQ(health.blacklisted_until(0), 10.0);
  EXPECT_EQ(health.blacklist_events(0), 1u);
  // Probation: one failure re-quarantines immediately.
  health.end_blacklist(0);
  EXPECT_FALSE(health.blacklisted(0));
  EXPECT_TRUE(health.note_failure(0, 3, 20.0));
  EXPECT_EQ(health.blacklist_events(0), 2u);
  // ...but a success during probation restores full health — and
  // reports the Probation -> Healthy transition to the caller.
  health.end_blacklist(0);
  EXPECT_TRUE(health.note_success(0));
  EXPECT_FALSE(health.note_failure(0, 3, 30.0));
  // Device 1 is independent.
  EXPECT_FALSE(health.blacklisted(1));
}

}  // namespace
}  // namespace hetflow::core
