// Differential test of the class walk in sched::assign_min_completion
// (sched/placement.hpp) against the per-device loop it replaced
// (placement_reference.hpp). Both must pick the same device and, with a
// recorder on, write the same decision record, on random platforms built
// from near-duplicate devices (one class-key field apart), with
// quarantined members, the all-quarantined fallback pass, and data-
// dominated ties in which a lower-id member with a later availability
// ties the class representative.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "helpers.hpp"
#include "hw/failure.hpp"
#include "hw/presets.hpp"
#include "obs/recorder.hpp"
#include "perf/energy_model.hpp"
#include "placement_reference.hpp"
#include "sched/placement.hpp"
#include "util/rng.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

using hetflow::testing::reference_min_completion;
using hetflow::testing::ReferenceDecision;

constexpr std::uint64_t kGiB = 1024ULL * 1024ULL * 1024ULL;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when `got` matches the reference decision row for row, else a
/// description of the first difference.
std::string diff_decision(const obs::SchedDecision& got,
                          const ReferenceDecision& want) {
  if (got.winner != want.winner) {
    return util::format("winner %u, reference %u", got.winner, want.winner);
  }
  if (got.candidates.size() != want.candidates.size()) {
    return util::format("%zu candidates, reference %zu",
                        got.candidates.size(), want.candidates.size());
  }
  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    const obs::DecisionCandidate& a = got.candidates[i];
    const obs::DecisionCandidate& b = want.candidates[i];
    if (a.device != b.device || !same_bits(a.predicted_finish_s,
                                           b.predicted_finish_s) ||
        !same_bits(a.predicted_energy_j, b.predicted_energy_j) ||
        a.quarantined != b.quarantined ||
        a.single_device != b.single_device) {
      return util::format(
          "row %zu: class of %u finish %.17g energy %.17g q%zu, "
          "reference class of %u finish %.17g energy %.17g q%zu",
          i, a.device, a.predicted_finish_s, a.predicted_energy_j,
          a.quarantined.size(), b.device, b.predicted_finish_s,
          b.predicted_energy_j, b.quarantined.size());
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// ModelContext: runtime state the test sets directly
// ---------------------------------------------------------------------------

/// Per-device and per-memory-node state a ModelContext estimates from.
struct ModelState {
  std::vector<sim::SimTime> avail;  ///< device_available_at, per device
  std::vector<bool> quarantined;    ///< device_blacklisted, per device
  /// Per memory node: the task's one input must cross a link busy until
  /// link_busy[node], then take transfer_s[node] seconds. A negative
  /// transfer_s means the input is already resident there.
  std::vector<sim::SimTime> link_busy;
  std::vector<double> transfer_s;
};

/// A SchedContext over a fixed ModelState. Its estimates have the
/// runtime's structure: exec from the codelet's analytic model on the
/// device's class-key fields, data ready as max(earliest, max(earliest,
/// link_busy) + transfer) — a chain of max and + like
/// TransferEngine::walk_route — and completion max(avail, ready(avail)) +
/// exec. It logs the exec and completion estimates asked of it, in
/// order, and counts the energy estimates apart.
class ModelContext final : public core::SchedContext {
 public:
  ModelContext(const hw::Platform& platform, ModelState state)
      : platform_(&platform), state_(std::move(state)) {}

  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  /// Exec ('x') and completion ('c') estimates since reset(), in order.
  const std::vector<std::pair<char, hw::DeviceId>>& calls() const noexcept {
    return calls_;
  }
  std::uint64_t estimates() const noexcept { return calls_.size(); }
  std::uint64_t energy_estimates() const noexcept { return energy_; }
  std::optional<hw::DeviceId> assigned() const noexcept { return assigned_; }
  void reset() {
    calls_.clear();
    energy_ = 0;
    assigned_.reset();
  }

  const hw::Platform& platform() const override { return *platform_; }
  sim::SimTime now() const override { return 0.0; }
  const data::DataRegistry& data_registry() const override {
    return registry_;
  }
  double estimate_exec_seconds(
      const core::Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    calls_.emplace_back('x', device.id());
    return exec(task, device, dvfs);
  }
  sim::SimTime device_available_at(const hw::Device& device) const override {
    return state_.avail[device.id()];
  }
  sim::SimTime estimate_data_ready(const core::Task& task,
                                   const hw::Device& device,
                                   sim::SimTime earliest) const override {
    (void)task;
    const hw::MemoryNodeId node = device.memory_node();
    if (state_.transfer_s[node] < 0.0) {
      return earliest;
    }
    return std::max(earliest, std::max(earliest, state_.link_busy[node]) +
                                  state_.transfer_s[node]);
  }
  std::uint64_t missing_input_bytes(const core::Task& task,
                                    const hw::Device& device) const override {
    (void)task;
    (void)device;
    return 0;
  }
  sim::SimTime estimate_completion(
      const core::Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    calls_.emplace_back('c', device.id());
    const double seconds = exec(task, device, dvfs);
    if (!std::isfinite(seconds)) {
      return kInf;
    }
    const sim::SimTime avail = device_available_at(device);
    return std::max(avail, estimate_data_ready(task, device, avail)) +
           seconds;
  }
  double estimate_energy(const core::Task& task, const hw::Device& device,
                         std::optional<std::size_t> dvfs) const override {
    ++energy_;
    const double seconds = exec(task, device, dvfs);
    if (!std::isfinite(seconds)) {
      return kInf;
    }
    return perf::EnergyModel::task_energy_j(
        device, dvfs.value_or(device.nominal_dvfs_index()), seconds);
  }
  bool device_blacklisted(const hw::Device& device) const override {
    return state_.quarantined[device.id()];
  }
  obs::Recorder* recorder() const noexcept override { return recorder_; }
  std::size_t queue_length(const hw::Device& device) const override {
    (void)device;
    return 0;
  }
  std::size_t busy_device_count() const override { return 0; }
  void assign(core::Task& task, const hw::Device& device,
              std::optional<std::size_t> dvfs) override {
    (void)task;
    (void)dvfs;
    assigned_ = device.id();
  }

 private:
  static double exec(const core::Task& task, const hw::Device& device,
                     std::optional<std::size_t> dvfs) {
    if (!task.codelet().supports(device.type())) {
      return kInf;
    }
    const std::size_t index = dvfs.value_or(device.nominal_dvfs_index());
    return device.launch_overhead_s() +
           task.codelet().compute_seconds(device, task.flops()) *
               device.time_scale(index);
  }

  const hw::Platform* platform_;
  ModelState state_;
  data::DataRegistry registry_;
  obs::Recorder* recorder_ = nullptr;
  mutable std::vector<std::pair<char, hw::DeviceId>> calls_;
  mutable std::uint64_t energy_ = 0;
  std::optional<hw::DeviceId> assigned_;
};

/// Runs the reference and the class walk on `ctx` with the recorder off
/// and on, and expects the same winner and decision record, and the walk
/// to make the same exec and completion estimates, in the same order,
/// either way (plus one energy estimate per logged row with the
/// recorder). Returns the reference decision, or nullopt (after a failed
/// expectation) when the task fits no device. `class_estimates` /
/// `reference_estimates` accumulate the estimate calls of the
/// recorder-off runs.
std::optional<ReferenceDecision> expect_same_placement(
    ModelContext& ctx, core::Task& task, bool data_aware,
    std::uint64_t* class_estimates = nullptr,
    std::uint64_t* reference_estimates = nullptr) {
  ctx.set_recorder(nullptr);
  ctx.reset();
  const std::optional<ReferenceDecision> want =
      reference_min_completion(ctx, task, data_aware);
  EXPECT_TRUE(want.has_value());
  if (!want) {
    return std::nullopt;
  }
  if (reference_estimates != nullptr) {
    *reference_estimates += ctx.estimates();
  }
  ctx.reset();
  sched::assign_min_completion(ctx, task, "dmda", "min completion",
                               data_aware);
  EXPECT_EQ(ctx.assigned(), want->winner) << "recorder off";
  EXPECT_EQ(ctx.energy_estimates(), 0u) << "recorder off";
  if (class_estimates != nullptr) {
    *class_estimates += ctx.estimates();
  }
  const std::vector<std::pair<char, hw::DeviceId>> unlogged = ctx.calls();

  obs::Recorder recorder;
  ctx.set_recorder(&recorder);
  const std::optional<ReferenceDecision> logged =
      reference_min_completion(ctx, task, data_aware);
  ctx.reset();
  sched::assign_min_completion(ctx, task, "dmda", "min completion",
                               data_aware);
  ctx.set_recorder(nullptr);
  EXPECT_EQ(ctx.assigned(), want->winner) << "recorder on";
  EXPECT_TRUE(ctx.calls() == unlogged)
      << "the recorder changed the walk's estimates";
  EXPECT_EQ(recorder.decisions().size(), 1u);
  if (recorder.decisions().size() == 1) {
    EXPECT_EQ(ctx.energy_estimates(),
              recorder.decisions().front().candidates.size());
  }
  if (logged && recorder.decisions().size() == 1) {
    const obs::SchedDecision& got = recorder.decisions().front();
    EXPECT_EQ(got.scheduler, "dmda");
    EXPECT_EQ(got.reason, "min completion");
    EXPECT_EQ(diff_decision(got, *logged), "");
  }
  return want;
}

core::CodeletPtr cpu_gpu_codelet() {
  return core::Codelet::make(
      "cpu-gpu", {{hw::DeviceType::Cpu, 1.0}, {hw::DeviceType::Gpu, 1.0}});
}

std::vector<hw::DvfsState> dvfs_table(double busy_watts) {
  return {hw::DvfsState{1.0, busy_watts / 2, 1.0},
          hw::DvfsState{2.0, busy_watts, 2.0}};
}

/// One device to add: every DeviceClass key field.
struct DeviceSpec {
  hw::DeviceType type = hw::DeviceType::Cpu;
  double gflops = 10.0;
  double launch_s = 0.0;
  hw::MemoryNodeId node = 0;
  double busy_watts = 20.0;
};

/// Adds `specs` in order to a builder whose memory nodes are already in.
hw::Platform build(hw::PlatformBuilder& builder,
                   const std::vector<DeviceSpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DeviceSpec& s = specs[i];
    builder.add_device(util::format("d%zu", i), s.type, s.gflops, s.node,
                       s.launch_s);
    builder.with_dvfs(dvfs_table(s.busy_watts), 1);
  }
  return builder.build();
}

/// Random device specs drawn so that many devices share a class and
/// others sit one key field (DVFS table, launch overhead, memory node)
/// away from an earlier device. Speeds and overheads are multiples of a
/// half so estimates add up exactly and ties are common. Device 0 is a
/// CPU on node 0, so every task has somewhere to run.
std::vector<DeviceSpec> random_specs(util::Rng& rng,
                                     hw::MemoryNodeId node_count) {
  const auto pick = [&](std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(0, hi));
  };
  std::vector<DeviceSpec> specs{DeviceSpec{}};
  const std::size_t count = 2 + pick(8);
  while (specs.size() < count) {
    DeviceSpec spec = specs[pick(static_cast<std::int64_t>(specs.size()) - 1)];
    switch (pick(5)) {
      case 0:
      case 1:
        break;  // an exact copy: same class
      case 2:
        spec.busy_watts += 10.0;  // DVFS table only
        break;
      case 3:
        spec.launch_s += 0.5;  // launch overhead only
        break;
      case 4:
        spec.node = static_cast<hw::MemoryNodeId>(
            (spec.node + 1 + pick(node_count - 2)) % node_count);
        break;  // memory node only
      default:
        spec.type = pick(3) == 0 ? hw::DeviceType::Fpga  // no codelet impl
                                 : hw::DeviceType::Gpu;
        spec.gflops = pick(1) == 0 ? 10.0 : 20.0;
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Hand-built cases
// ---------------------------------------------------------------------------

/// Two identical CPUs and a GPU; node 0 holds the CPUs, node 1 the GPU.
hw::Platform two_cpus_one_gpu() {
  hw::PlatformBuilder builder("two-cpus-one-gpu");
  builder.add_memory_node("host", 64 * kGiB);
  builder.add_memory_node("vram", 16 * kGiB);
  builder.add_link(0, 1, 16.0, 1e-6);
  return build(builder, {DeviceSpec{}, DeviceSpec{},
                         DeviceSpec{hw::DeviceType::Gpu, 10.0, 0.0, 1}});
}

TEST(ClassWalk, DataDominatedTiePicksTheLowerIdMember) {
  // cpu0 frees up at 2 and cpu1 at 1, but the input reaches host memory
  // only at 5 + 1: both finish at 6 + exec. The per-device loop keeps
  // cpu0, the first of the equal minima, although cpu1 is the class's
  // earliest-available member. The GPU frees up at 4 and its input is
  // stuck until 10.
  const hw::Platform platform = two_cpus_one_gpu();
  ASSERT_EQ(platform.device_classes().size(), 2u);
  ModelContext ctx(platform, ModelState{{2.0, 1.0, 4.0},
                                        {false, false, false},
                                        {5.0, 10.0},
                                        {1.0, 1.0}});
  core::Task task(0, "t", cpu_gpu_codelet(), 1e10, {});
  const auto want = expect_same_placement(ctx, task, /*data_aware=*/true);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(want->winner, 0u);

  // Data-blind scoring has no tie here: cpu1 wins on availability.
  const auto blind = expect_same_placement(ctx, task, /*data_aware=*/false);
  ASSERT_TRUE(blind.has_value());
  EXPECT_EQ(blind->winner, 1u);
}

TEST(ClassWalk, SkipsMembersThatCannotTie) {
  // cpu0 frees up at 9, past cpu1's whole completion (1 + 1): it is
  // not estimated; the GPU is, and wins.
  const hw::Platform platform = two_cpus_one_gpu();
  ModelContext ctx(platform, ModelState{{9.0, 1.0, 0.0},
                                        {false, false, false},
                                        {0.0, 0.0},
                                        {-1.0, -1.0}});
  core::Task task(0, "t", cpu_gpu_codelet(), 1e10, {});
  const auto want = expect_same_placement(ctx, task, /*data_aware=*/true);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(want->winner, 2u);
  ctx.reset();
  sched::assign_min_completion(ctx, task, "dmda", "min completion", true);
  // One completion per class, plus the CPU class's exec for the bound.
  EXPECT_EQ(ctx.estimates(), 3u);
}

TEST(ClassWalk, QuarantinedRepresentativeIsPassedOver) {
  // cpu1 is the earliest-available CPU but quarantined: cpu0 stands for
  // the class, and the GPU (busy until 3) loses to it.
  const hw::Platform platform = two_cpus_one_gpu();
  ModelContext ctx(platform, ModelState{{1.5, 0.0, 3.0},
                                        {false, true, false},
                                        {0.0, 0.0},
                                        {-1.0, -1.0}});
  core::Task task(0, "t", cpu_gpu_codelet(), 1e10, {});
  for (const bool data_aware : {true, false}) {
    const auto want = expect_same_placement(ctx, task, data_aware);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(want->winner, 0u);
  }
}

TEST(ClassWalk, AllQuarantinedFallsBackToEveryDevice) {
  const hw::Platform platform = two_cpus_one_gpu();
  ModelContext ctx(platform, ModelState{{2.0, 1.0, 4.0},
                                        {true, true, true},
                                        {0.0, 0.0},
                                        {-1.0, -1.0}});
  core::Task task(0, "t", cpu_gpu_codelet(), 1e10, {});
  const auto want = expect_same_placement(ctx, task, /*data_aware=*/true);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(want->winner, 1u);

  obs::Recorder recorder;
  ctx.set_recorder(&recorder);
  sched::assign_min_completion(ctx, task, "dmda", "min completion", true);
  ASSERT_EQ(recorder.decisions().size(), 1u);
  const std::vector<obs::DecisionCandidate>& rows =
      recorder.decisions().front().candidates;
  ASSERT_EQ(rows.size(), platform.device_classes().size());
  for (std::size_t c = 0; c < rows.size(); ++c) {
    EXPECT_EQ(rows[c].quarantined, platform.device_classes()[c]);
  }
}

TEST(ClassWalk, NoEligibleDeviceThrows) {
  const hw::Platform platform = two_cpus_one_gpu();
  ModelContext ctx(platform, ModelState{{0.0, 0.0, 0.0},
                                        {false, false, false},
                                        {0.0, 0.0},
                                        {-1.0, -1.0}});
  core::Task task(0, "t",
                  core::Codelet::make("fpga-only",
                                      {{hw::DeviceType::Fpga, 1.0}}),
                  1e10, {});
  EXPECT_THROW(
      sched::assign_min_completion(ctx, task, "dmda", "x", true),
      InternalError);
}

TEST(ClassWalk, HpcNodeIdleScoresOncePerClass) {
  // 16 identical cores and four GPUs, each on its own memory node.
  const hw::Platform platform = hw::make_hpc_node(16, 4);
  ModelState state;
  state.avail.assign(platform.device_count(), 0.0);
  state.quarantined.assign(platform.device_count(), false);
  state.link_busy.assign(platform.memory_node_count(), 0.0);
  state.transfer_s.assign(platform.memory_node_count(), -1.0);
  ModelContext ctx(platform, state);
  core::Task task(0, "t", cpu_gpu_codelet(), 1e10, {});
  std::uint64_t walk = 0;
  std::uint64_t reference = 0;
  expect_same_placement(ctx, task, /*data_aware=*/true, &walk, &reference);
  EXPECT_EQ(reference, 20u);
  EXPECT_EQ(walk, platform.device_classes().size());
}

// ---------------------------------------------------------------------------
// Random platforms and states
// ---------------------------------------------------------------------------

TEST(ClassWalk, MatchesThePerDeviceLoopOnRandomPlatforms) {
  util::Rng rng(20261017);
  std::uint64_t walk = 0;
  std::uint64_t reference = 0;
  std::size_t later_member_wins = 0;
  std::size_t fallbacks = 0;
  const auto codelet = cpu_gpu_codelet();
  for (int trial = 0; trial < 3000; ++trial) {
    const auto node_count = static_cast<hw::MemoryNodeId>(
        2 + rng.uniform_int(0, 1));
    hw::PlatformBuilder builder(util::format("random-%d", trial));
    for (hw::MemoryNodeId n = 0; n < node_count; ++n) {
      builder.add_memory_node(util::format("m%u", n), 64 * kGiB);
      if (n > 0) {
        builder.add_link(0, n, 16.0, 1e-6);
      }
    }
    const hw::Platform platform =
        build(builder, random_specs(rng, node_count));

    ModelState state;
    const bool all_quarantined = rng.uniform() < 0.1;
    for (std::size_t d = 0; d < platform.device_count(); ++d) {
      state.avail.push_back(0.5 * static_cast<double>(rng.uniform_int(0, 6)));
      state.quarantined.push_back(all_quarantined || rng.uniform() < 0.25);
    }
    for (hw::MemoryNodeId n = 0; n < node_count; ++n) {
      state.link_busy.push_back(0.5 *
                                static_cast<double>(rng.uniform_int(0, 8)));
      state.transfer_s.push_back(
          rng.uniform() < 0.3
              ? -1.0
              : 0.5 * static_cast<double>(rng.uniform_int(0, 2)));
    }
    ModelContext ctx(platform, state);
    core::Task task(static_cast<core::TaskId>(trial), "t", codelet, 1e10, {});
    const bool data_aware = trial % 3 != 0;
    const auto want =
        expect_same_placement(ctx, task, data_aware, &walk, &reference);
    if (!want) {
      continue;
    }

    // Tally the paths the class walk must get right.
    bool fallback = true;
    for (const hw::Device& d : platform.devices()) {
      if (!state.quarantined[d.id()] && codelet->supports(d.type())) {
        fallback = false;
      }
    }
    fallbacks += fallback ? 1 : 0;
    for (const hw::DeviceClass& members : platform.device_classes()) {
      if (std::find(members.begin(), members.end(), want->winner) ==
          members.end()) {
        continue;
      }
      for (const hw::DeviceId id : members) {
        if ((fallback || !state.quarantined[id]) &&
            state.avail[id] < state.avail[want->winner]) {
          ++later_member_wins;
          break;
        }
      }
    }
  }
  EXPECT_GT(later_member_wins, 10u) << "no data-dominated ties exercised";
  EXPECT_GT(fallbacks, 10u) << "no all-quarantined fallbacks exercised";
  EXPECT_LT(walk, reference);
}

// ---------------------------------------------------------------------------
// Real runtimes
// ---------------------------------------------------------------------------

/// mct (data-blind) or dmda (data-aware) that asks the reference loop,
/// before each placement, what it would choose, and counts every
/// placement and decision record that differs.
class CheckedMinCompletion final : public core::Scheduler {
 public:
  explicit CheckedMinCompletion(bool data_aware) : data_aware_(data_aware) {}

  std::string name() const override { return data_aware_ ? "dmda" : "mct"; }

  void on_task_ready(core::Task& task) override {
    const std::optional<ReferenceDecision> want =
        reference_min_completion(ctx(), task, data_aware_);
    sched::assign_min_completion(ctx(), task, data_aware_ ? "dmda" : "mct",
                                 "min completion", data_aware_);
    ++placements_;
    std::string diff;
    if (!want) {
      diff = "reference found no device";
    } else if (task.device() != want->winner) {
      diff = util::format("placed on %u, reference %u", task.device(),
                          want->winner);
    } else if (ctx().recorder() != nullptr) {
      diff = diff_decision(ctx().recorder()->decisions().back(), *want);
    }
    if (!diff.empty() && first_diff_.empty()) {
      first_diff_ = util::format("task '%s': ",
                                 std::string(task.name()).c_str()) +
                    diff;
    }
  }

  std::size_t placements() const noexcept { return placements_; }
  const std::string& first_diff() const noexcept { return first_diff_; }

 private:
  bool data_aware_;
  std::size_t placements_ = 0;
  std::string first_diff_;
};

/// A host with CPUs and up to three accelerator memory nodes, its
/// devices in random order: exact copies, near-duplicates one key field
/// apart, GPUs sharing a memory node.
hw::Platform random_machine(util::Rng& rng, int index) {
  hw::PlatformBuilder builder(util::format("machine-%d", index));
  const auto nodes = static_cast<hw::MemoryNodeId>(2 + rng.uniform_int(0, 2));
  builder.add_memory_node("host", 64 * kGiB);
  for (hw::MemoryNodeId n = 1; n < nodes; ++n) {
    builder.add_memory_node(util::format("acc%u", n), 32 * kGiB);
    builder.add_link(0, n, 16.0, 5e-6);
  }
  std::vector<DeviceSpec> specs;
  const DeviceSpec cpu{hw::DeviceType::Cpu, 12.0, 1e-6, 0, 15.0};
  const DeviceSpec gpu{hw::DeviceType::Gpu, 400.0, 8e-6, 1, 250.0};
  for (std::int64_t i = 1 + rng.uniform_int(1, 5); i > 0; --i) {
    specs.push_back(cpu);
  }
  specs.push_back(DeviceSpec{cpu.type, cpu.gflops, cpu.launch_s, 0, 20.0});
  specs.push_back(DeviceSpec{cpu.type, cpu.gflops, 2e-6, 0, cpu.busy_watts});
  for (hw::MemoryNodeId n = 1; n < nodes; ++n) {
    for (std::int64_t i = rng.uniform_int(1, 2); i > 0; --i) {
      specs.push_back(DeviceSpec{gpu.type, gpu.gflops, gpu.launch_s, n,
                                 gpu.busy_watts});
    }
  }
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1],
              specs[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  return build(builder, specs);
}

TEST(ClassWalk, MatchesThePerDeviceLoopInRealRuntimes) {
  util::Rng rng(17);
  const workflow::CodeletLibrary library = workflow::CodeletLibrary::standard();
  for (int machine = 0; machine < 6; ++machine) {
    const hw::Platform platform = random_machine(rng, machine);
    for (const bool data_aware : {true, false}) {
      for (const bool metrics : {false, true}) {
        SCOPED_TRACE(util::format("machine %d, %s, metrics %d", machine,
                                  data_aware ? "dmda" : "mct", int{metrics}));
        auto checked = std::make_unique<CheckedMinCompletion>(data_aware);
        CheckedMinCompletion& check = *checked;
        core::RuntimeOptions options;
        options.seed = static_cast<std::uint64_t>(machine) + 1;
        options.metrics = metrics;
        if (machine % 2 == 1) {
          // Transient faults with quarantine: members drop out of and
          // rejoin their classes mid-run.
          options.failure_model = hw::FailureModel::uniform(0.5);
          options.failure_policy = core::FailurePolicy::Reschedule;
          options.retry.blacklist_after = 1;
          options.retry.probation_s = 0.05;
        }
        core::Runtime rt(platform, std::move(checked), options);
        workflow::submit_workflow(
            rt,
            workflow::make_random_layered(6, 12, /*ccr=*/2.0,
                                          static_cast<std::uint64_t>(machine)),
            library);
        workflow::submit_workflow(rt, workflow::make_montage(8), library);
        rt.wait_all();
        EXPECT_GT(check.placements(), 100u);
        EXPECT_EQ(check.first_diff(), "");
      }
    }
  }
}

}  // namespace
}  // namespace hetflow
