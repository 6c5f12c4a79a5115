// Test oracle for the cost-model cache (core/cost_cache.hpp).
//
// MemoOracle decorates a scheduler. It attaches the wrapped policy to an
// OracleContext that forwards every SchedContext call to the runtime,
// and for each cost estimate the policy asks for (exec seconds,
// completion time, energy) it also evaluates the direct, unmemoized
// cost formula and compares the two bit for bit. The decorator is
// otherwise transparent: the run makes the same decisions, in the same
// order, as an undecorated one.
//
//   auto oracle = std::make_unique<MemoOracle>(sched::make_scheduler("dmda"));
//   MemoOracle& check = *oracle;
//   core::Runtime rt(platform, std::move(oracle), options);
//   check.bind(rt, options.use_history_model);
//   ... submit, rt.wait_all() ...
//   EXPECT_EQ(check.mismatches(), 0u) << check.first_mismatch();
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "helpers.hpp"
#include "perf/energy_model.hpp"
#include "perf/history_model.hpp"
#include "util/strings.hpp"

namespace hetflow::testing {

/// The direct cost formula: what Runtime::exec_estimate computes, with
/// every term re-derived from the platform, the registry and the history
/// model instead of read from the CostModelCache. `history` is null when
/// the run has the history model off.
inline double direct_exec_seconds(const core::Task& task,
                                  const hw::Device& device,
                                  std::optional<std::size_t> dvfs,
                                  const hw::Platform& platform,
                                  const data::DataRegistry& registry,
                                  const perf::HistoryModel* history) {
  if (!task.codelet().supports(device.type())) {
    return std::numeric_limits<double>::infinity();
  }
  std::uint64_t working_set = 0;
  for (const data::Access& access : task.accesses()) {
    working_set += registry.handle(access.data).bytes;
  }
  if (working_set >
      platform.memory_node(device.memory_node()).capacity_bytes()) {
    return std::numeric_limits<double>::infinity();
  }
  double pure = -1.0;
  if (history != nullptr) {
    pure = history->estimate(task.codelet().id(), device.type(), task.flops());
  }
  if (pure < 0.0) {
    pure = task.codelet().compute_seconds(device, task.flops());
  }
  const std::size_t index = dvfs.value_or(device.nominal_dvfs_index());
  return device.launch_overhead_s() + pure * device.time_scale(index);
}

class MemoOracle final : public ForwardingScheduler {
 public:
  explicit MemoOracle(std::unique_ptr<core::Scheduler> inner)
      : ForwardingScheduler(std::move(inner)) {}

  /// Points the oracle at the runtime's history model; call right after
  /// constructing the Runtime, before wait_all(). `use_history` must
  /// match RuntimeOptions::use_history_model.
  void bind(const core::Runtime& rt, bool use_history) {
    history_ = use_history ? &rt.history() : nullptr;
    bound_ = true;
  }

  std::uint64_t checks() const noexcept { return checks_; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }
  const std::string& first_mismatch() const noexcept { return first_; }

  void attach(core::SchedContext& ctx) override {
    core::Scheduler::attach(ctx);
    context_ = std::make_unique<OracleContext>(ctx, *this);
    inner().attach(*context_);
  }

 private:
  /// Forwards everything to the runtime's context; the three estimate
  /// calls are additionally checked against the direct formula.
  class OracleContext final : public core::SchedContext {
   public:
    OracleContext(core::SchedContext& inner, MemoOracle& oracle)
        : inner_(&inner), oracle_(&oracle) {}

    const hw::Platform& platform() const override {
      return inner_->platform();
    }
    sim::SimTime now() const override { return inner_->now(); }
    const data::DataRegistry& data_registry() const override {
      return inner_->data_registry();
    }
    double estimate_exec_seconds(
        const core::Task& task, const hw::Device& device,
        std::optional<std::size_t> dvfs) const override {
      const double got = inner_->estimate_exec_seconds(task, device, dvfs);
      oracle_->expect("exec", task, device, got, direct(task, device, dvfs));
      return got;
    }
    sim::SimTime device_available_at(
        const hw::Device& device) const override {
      return inner_->device_available_at(device);
    }
    sim::SimTime estimate_data_ready(const core::Task& task,
                                     const hw::Device& device,
                                     sim::SimTime earliest) const override {
      return inner_->estimate_data_ready(task, device, earliest);
    }
    std::uint64_t missing_input_bytes(
        const core::Task& task, const hw::Device& device) const override {
      return inner_->missing_input_bytes(task, device);
    }
    sim::SimTime estimate_completion(
        const core::Task& task, const hw::Device& device,
        std::optional<std::size_t> dvfs) const override {
      const sim::SimTime got =
          inner_->estimate_completion(task, device, dvfs);
      const double exec = direct(task, device, dvfs);
      double want = std::numeric_limits<double>::infinity();
      if (std::isfinite(exec)) {
        const sim::SimTime avail = inner_->device_available_at(device);
        want = std::max(avail,
                        inner_->estimate_data_ready(task, device, avail)) +
               exec;
      }
      oracle_->expect("completion", task, device, got, want);
      return got;
    }
    double estimate_energy(const core::Task& task, const hw::Device& device,
                           std::optional<std::size_t> dvfs) const override {
      const double got = inner_->estimate_energy(task, device, dvfs);
      const double exec = direct(task, device, dvfs);
      const double want =
          std::isfinite(exec)
              ? perf::EnergyModel::task_energy_j(
                    device, dvfs.value_or(device.nominal_dvfs_index()), exec)
              : std::numeric_limits<double>::infinity();
      oracle_->expect("energy", task, device, got, want);
      return got;
    }
    bool device_blacklisted(const hw::Device& device) const override {
      return inner_->device_blacklisted(device);
    }
    obs::Recorder* recorder() const noexcept override {
      return inner_->recorder();
    }
    const data::CoherenceDirectory* coherence() const noexcept override {
      return inner_->coherence();
    }
    std::size_t queue_length(const hw::Device& device) const override {
      return inner_->queue_length(device);
    }
    std::size_t busy_device_count() const override {
      return inner_->busy_device_count();
    }
    void assign(core::Task& task, const hw::Device& device,
                std::optional<std::size_t> dvfs) override {
      inner_->assign(task, device, dvfs);
    }

   private:
    double direct(const core::Task& task, const hw::Device& device,
                  std::optional<std::size_t> dvfs) const {
      return direct_exec_seconds(task, device, dvfs, inner_->platform(),
                                 inner_->data_registry(), oracle_->history_);
    }

    core::SchedContext* inner_;
    MemoOracle* oracle_;
  };

  void expect(const char* what, const core::Task& task,
              const hw::Device& device, double got, double want) {
    ++checks_;
    if (bound_ && std::bit_cast<std::uint64_t>(got) ==
                      std::bit_cast<std::uint64_t>(want)) {
      return;
    }
    if (mismatches_++ == 0) {
      first_ = bound_ ? util::format("%s estimate for task '%s' on %s: "
                                     "memoized %.17g, direct %.17g",
                                     what, std::string(task.name()).c_str(),
                                     device.name().c_str(), got, want)
                      : "estimate requested before MemoOracle::bind()";
    }
  }

  std::unique_ptr<OracleContext> context_;
  const perf::HistoryModel* history_ = nullptr;
  bool bound_ = false;
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_;
};

}  // namespace hetflow::testing
