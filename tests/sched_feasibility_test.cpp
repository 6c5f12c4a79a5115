// The feasibility rule (core::can_run) as every policy sees it.
//
//   1. A workflow Runtime::submit accepts runs under every registered
//      policy: 24 tasks, each reading its own 20 GiB file, fit the
//      workstation's 64 GiB host DRAM but not its 16 GiB GPU, so every
//      policy must keep them off the GPU, cluster placement included
//      (where all files on one node still overfill the other's host).
//   2. The pull policies' class buckets (sched/class_buckets.hpp) hand
//      an idle device exactly the task the single-queue scan they
//      replaced would: eager the oldest it can run, critical-path the
//      highest-ranked, on seeded random platforms, codelets and working
//      sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/codelets.hpp"

namespace hetflow {
namespace {

constexpr std::uint64_t kGiB = 1024ULL * 1024ULL * 1024ULL;

/// Submits 24 independent `generic` tasks, each reading its own 20 GiB
/// file, homed in turn on the memory nodes `homes`, runs them and
/// expects each to complete on a CPU.
void expect_big_inputs_stay_on_the_host(
    const hw::Platform& platform, std::unique_ptr<core::Scheduler> sched,
    const std::string& label,
    const std::vector<hw::MemoryNodeId>& homes = {0}) {
  SCOPED_TRACE(label);
  core::Runtime rt(platform, std::move(sched));
  const core::CodeletPtr generic =
      workflow::CodeletLibrary::standard().get("generic");
  for (int i = 0; i < 24; ++i) {
    const data::DataId file =
        rt.register_data(util::format("file%d", i), 20 * kGiB,
                         homes[static_cast<std::size_t>(i) % homes.size()]);
    rt.submit(util::format("read%d", i), generic, 1e9,
              {{file, data::AccessMode::Read}});
  }
  ASSERT_NO_THROW(rt.wait_all());
  EXPECT_EQ(rt.stats().tasks_completed, 24u);
  for (core::TaskId id = 0; id < 24; ++id) {
    EXPECT_EQ(platform.device(rt.task(id).device()).type(),
              hw::DeviceType::Cpu)
        << "task " << id << " ran on "
        << platform.device(rt.task(id).device()).name();
  }
}

TEST(Feasibility, WorkingSetsBeyondTheGpuRunUnderEveryPolicy) {
  const hw::Platform workstation = hw::make_workstation();
  for (const std::string& name : sched::scheduler_names()) {
    expect_big_inputs_stay_on_the_host(
        workstation, sched::make_scheduler(name, 1), name);
  }
}

hw::Cluster two_workstations() {
  hw::ClusterBuilder builder("two-workstations");
  builder.add_node(hw::make_workstation());
  builder.add_node(hw::make_workstation());
  builder.connect_all(12.5, 50e-6);
  return builder.build();
}

TEST(Feasibility, ClusterEagerKeepsWorkingSetsOnTheHosts) {
  // Each node's host holds half the files, so locality placement needs
  // no 20 GiB fabric copies.
  const hw::Cluster cluster = two_workstations();
  expect_big_inputs_stay_on_the_host(
      cluster.platform(), sched::make_cluster_scheduler(cluster, "eager"),
      "cluster:eager, files on both nodes",
      {cluster.node(0).first_memory, cluster.node(1).first_memory});
}

// Disabled: with every file on node 0, node 1's CPUs each fetch a 20 GiB
// input and the fourth copy overfills its 64 GiB host, because nothing
// makes a task whose inputs cannot be made resident wait for room
// (DataManager::ensure_capacity throws ResourceExhausted; the FOUND line
// on it in CHANGES.md). Enable it with that admission.
TEST(Feasibility, DISABLED_ClusterEagerWithEveryFileOnOneNode) {
  const hw::Cluster cluster = two_workstations();
  expect_big_inputs_stay_on_the_host(
      cluster.platform(), sched::make_cluster_scheduler(cluster, "eager"),
      "cluster:eager, files on node 0", {cluster.node(0).first_memory});
}

// ---------------------------------------------------------------------------
// Class buckets against the single-queue scan
// ---------------------------------------------------------------------------

/// The one context query the pull policies make outside the rule:
/// platform(). Nothing else may be asked.
class PlatformOnlyContext final : public core::SchedContext {
 public:
  explicit PlatformOnlyContext(const hw::Platform& platform)
      : platform_(&platform) {}

  const hw::Platform& platform() const override { return *platform_; }
  sim::SimTime now() const override { return unused<sim::SimTime>(); }
  const data::DataRegistry& data_registry() const override {
    return unused<const data::DataRegistry&>();
  }
  double estimate_exec_seconds(const core::Task&, const hw::Device&,
                               std::optional<std::size_t>) const override {
    return unused<double>();
  }
  sim::SimTime device_available_at(const hw::Device&) const override {
    return unused<sim::SimTime>();
  }
  sim::SimTime estimate_data_ready(const core::Task&, const hw::Device&,
                                   sim::SimTime) const override {
    return unused<sim::SimTime>();
  }
  std::uint64_t missing_input_bytes(const core::Task&,
                                    const hw::Device&) const override {
    return unused<std::uint64_t>();
  }
  sim::SimTime estimate_completion(
      const core::Task&, const hw::Device&,
      std::optional<std::size_t>) const override {
    return unused<sim::SimTime>();
  }
  double estimate_energy(const core::Task&, const hw::Device&,
                         std::optional<std::size_t>) const override {
    return unused<double>();
  }
  std::size_t queue_length(const hw::Device&) const override {
    return unused<std::size_t>();
  }
  std::size_t busy_device_count() const override {
    return unused<std::size_t>();
  }
  void assign(core::Task&, const hw::Device&,
              std::optional<std::size_t>) override {
    unused<int>();
  }

 private:
  template <typename T>
  [[noreturn]] static T unused() {
    throw InternalError("pull policy asked the context for an estimate");
  }

  const hw::Platform* platform_;
};

/// The scan the buckets replaced: one queue in arrival order (eager) or
/// rank order (critical-path), searched from the front for the first
/// task the idle device can run.
class ScanReference {
 public:
  ScanReference(const hw::Platform& platform, bool by_rank)
      : platform_(&platform), by_rank_(by_rank) {}

  void push(core::Task* task) { queue_.push_back(task); }

  core::Task* pull(const hw::Device& device) {
    auto pick = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (core::can_run(**it, device, *platform_) &&
          (pick == queue_.end() || !by_rank_ || ranks_above(**it, **pick))) {
        pick = it;
        if (!by_rank_) {
          break;
        }
      }
    }
    if (pick == queue_.end()) {
      return nullptr;
    }
    core::Task* task = *pick;
    queue_.erase(pick);
    return task;
  }

  bool empty() const { return queue_.empty(); }

 private:
  /// CriticalPathScheduler's order: higher priority, then lower id.
  static bool ranks_above(const core::Task& a, const core::Task& b) {
    if (a.priority() != b.priority()) {
      return a.priority() > b.priority();
    }
    return a.id() < b.id();
  }

  const hw::Platform* platform_;
  bool by_rank_;
  std::vector<core::Task*> queue_;
};

/// A node with every device type, two GPUs sharing one 16 GiB pool and
/// one on a 32 GiB pool, so memory splits the GPUs into classes that
/// a working set can tell apart.
hw::Platform mixed_node() {
  hw::PlatformBuilder builder("mixed");
  const hw::MemoryNodeId host = builder.add_memory_node("host", 64 * kGiB);
  const hw::MemoryNodeId small = builder.add_memory_node("small", 16 * kGiB);
  const hw::MemoryNodeId large = builder.add_memory_node("large", 32 * kGiB);
  const hw::MemoryNodeId fpga = builder.add_memory_node("fpga", 8 * kGiB);
  for (int i = 0; i < 3; ++i) {
    builder.add_device(util::format("cpu%d", i), hw::DeviceType::Cpu, 50.0,
                       host);
  }
  builder.add_device("gpu0", hw::DeviceType::Gpu, 5000.0, small);
  builder.add_device("gpu1", hw::DeviceType::Gpu, 5000.0, small);
  builder.add_device("gpu2", hw::DeviceType::Gpu, 5000.0, large);
  builder.add_device("fpga0", hw::DeviceType::Fpga, 500.0, fpga);
  builder.add_link(host, small, 16.0, 1e-6);
  builder.add_link(host, large, 16.0, 1e-6);
  builder.add_link(host, fpga, 8.0, 1e-6);
  return builder.build();
}

void expect_buckets_match_the_scan(const std::string& policy, bool by_rank) {
  const hw::Platform platform = mixed_node();
  const std::vector<core::CodeletPtr> codelets = {
      core::Codelet::make("cpu", {{hw::DeviceType::Cpu, 0.5}}),
      core::Codelet::make("gpu", {{hw::DeviceType::Gpu, 0.5}}),
      core::Codelet::make("cpu-gpu", {{hw::DeviceType::Cpu, 0.5},
                                      {hw::DeviceType::Gpu, 0.5}}),
      core::Codelet::make("any", {{hw::DeviceType::Cpu, 0.5},
                                  {hw::DeviceType::Gpu, 0.5},
                                  {hw::DeviceType::Fpga, 0.5}}),
      core::Codelet::make("fpga", {{hw::DeviceType::Fpga, 0.5}})};
  const std::uint64_t working_sets[] = {0, 4 * kGiB, 12 * kGiB, 20 * kGiB,
                                        40 * kGiB};
  util::Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(util::format("%s trial %d", policy.c_str(), trial));
    std::unique_ptr<core::Scheduler> sched = sched::make_scheduler(policy, 1);
    PlatformOnlyContext ctx(platform);
    sched->attach(ctx);
    ScanReference scan(platform, by_rank);
    std::deque<core::Task> tasks;
    std::size_t pulled = 0;
    for (int step = 0; step < 400; ++step) {
      if (rng.uniform() < 0.55) {
        core::Task& task = tasks.emplace_back(
            tasks.size(), "t", codelets[rng.index(codelets.size())], 1e9,
            std::span<const data::Access>{});
        task.set_working_set_bytes(working_sets[rng.index(5)]);
        // Few distinct ranks, so ties fall to the task id.
        task.set_priority(static_cast<double>(rng.uniform_int(0, 3)));
        sched->on_task_ready(task);
        scan.push(&task);
        continue;
      }
      const hw::Device& device =
          platform.device(static_cast<hw::DeviceId>(
              rng.index(platform.device_count())));
      core::Task* want = scan.pull(device);
      core::Task* got = sched->on_device_idle(device);
      ASSERT_EQ(got, want) << "step " << step << " on " << device.name();
      pulled += got != nullptr ? 1 : 0;
      EXPECT_EQ(sched->has_retained_work(), !scan.empty());
    }
    EXPECT_GT(pulled, 50u);
  }
}

TEST(Feasibility, EagerBucketsPickWhatTheFifoScanPicked) {
  expect_buckets_match_the_scan("eager", /*by_rank=*/false);
}

TEST(Feasibility, CriticalPathBucketsPickWhatThePriorityScanPicked) {
  expect_buckets_match_the_scan("critical-path", /*by_rank=*/true);
}

}  // namespace
}  // namespace hetflow
