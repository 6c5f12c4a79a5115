// Shared fixtures for runtime/scheduler tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "hw/platform.hpp"
#include "hw/presets.hpp"
#include "sched/registry.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"

namespace hetflow::testing {

inline core::CodeletPtr cpu_only_codelet(double efficiency = 0.5) {
  return core::Codelet::make("cpu-only",
                             {{hw::DeviceType::Cpu, efficiency}});
}

inline core::CodeletPtr cpu_gpu_codelet(double cpu_eff = 0.5,
                                        double gpu_eff = 0.8) {
  return core::Codelet::make(
      "cpu-gpu", {{hw::DeviceType::Cpu, cpu_eff},
                  {hw::DeviceType::Gpu, gpu_eff}});
}

/// True when HETFLOW_REGEN_GOLDEN is set (and not "0"): golden suites
/// then re-bless their references instead of comparing against them.
inline bool regen_requested() {
  const char* value = std::getenv("HETFLOW_REGEN_GOLDEN");
  return value != nullptr && *value != '\0' && std::string(value) != "0";
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return {};
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Byte-exact comparison against the checked-in reference at `path`, or
/// (in regen mode) re-blessing of the reference from the current output.
inline void expect_golden_file(const std::string& path,
                               const std::string& actual) {
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << path
      << " — run with HETFLOW_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << path << " drifted from its golden reference; if the change is "
         "intentional, regenerate with HETFLOW_REGEN_GOLDEN=1 and review "
         "the diff";
}

/// Asserts that no two successful execution spans overlap on any device.
inline void expect_no_device_overlap(const trace::Tracer& tracer,
                                     const hw::Platform& platform) {
  for (const hw::Device& device : platform.devices()) {
    std::vector<std::pair<double, double>> intervals;
    for (const trace::Span& span : tracer.spans()) {
      if (span.device == device.id()) {
        intervals.push_back({span.start, span.end});
      }
    }
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_LE(intervals[i - 1].second, intervals[i].first + 1e-9)
          << "overlap on " << device.name();
    }
  }
}

/// Start/end times per task id from the trace (successful attempts only).
inline std::map<std::uint64_t, std::pair<double, double>> exec_windows(
    const trace::Tracer& tracer) {
  std::map<std::uint64_t, std::pair<double, double>> windows;
  for (const trace::Span& span : tracer.spans()) {
    if (span.kind == trace::SpanKind::Exec) {
      windows[span.task_id] = {span.start, span.end};
    }
  }
  return windows;
}

/// Accounting scenario platform: two CPUs on one RAM pool plus two GPUs
/// whose 64 MiB VRAMs force eviction and write-back. gpu1 (device 3) and
/// vram1 (memory node 2) form the fault domain accounting_options() kills.
inline hw::Platform make_accounting_platform() {
  constexpr std::uint64_t kMiB = 1024 * 1024;
  hw::PlatformBuilder b("accounting");
  const hw::MemoryNodeId ram = b.add_memory_node("ram", 4096 * kMiB);
  const hw::MemoryNodeId vram0 = b.add_memory_node("vram0", 64 * kMiB);
  const hw::MemoryNodeId vram1 = b.add_memory_node("vram1", 64 * kMiB);
  b.add_device("cpu0", hw::DeviceType::Cpu, 40.0, ram);
  b.add_device("cpu1", hw::DeviceType::Cpu, 40.0, ram);
  b.add_device("gpu0", hw::DeviceType::Gpu, 400.0, vram0);
  b.add_device("gpu1", hw::DeviceType::Gpu, 400.0, vram1);
  b.add_link(ram, vram0, 16.0, 1e-5);
  b.add_link(ram, vram1, 16.0, 1e-5);
  return b.build();
}

/// Metrics and prefetch on, a 1 s attempt timeout with a two-attempt
/// Drop budget, and gpu1 + vram1 dying for good at t = 0.02 s.
inline core::RuntimeOptions accounting_options() {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 11;
  options.enable_prefetch = true;
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.timeout_s = 1.0;
  options.retry.max_attempts = 2;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  core::NodeFault fault;
  fault.at = 0.02;
  fault.devices = {3};
  fault.memory_nodes = {2};
  options.node_faults.push_back(fault);
  return options;
}

/// A workload that, on make_accounting_platform() with accounting_options()
/// and dmda, drives every counter the runtime publishes above zero. The
/// staged "calib" homed on vram1 and unread before the fault is reseeded;
/// gpu1's completed producers are resurrected, and the "inspect" tasks
/// released by "gate" just after the fault park on them; the cpu-only
/// "stuck" task times out until its budget is spent and is dropped with
/// its dependent; gpu0's VRAM evicts and writes back; prefetch moves
/// inputs early.
inline void submit_accounting_workload(core::Runtime& rt) {
  constexpr std::uint64_t kMiB = 1024 * 1024;
  const core::CodeletPtr both = cpu_gpu_codelet();
  const core::CodeletPtr cpu = cpu_only_codelet();
  const data::DataId calib = rt.register_data("calib", 4 * kMiB, 2);
  const data::DataId gate = rt.register_data("gate", 1 * kMiB, 0);
  rt.submit("gate", cpu, 1.2e9, {{gate, data::AccessMode::Write}});
  std::vector<data::DataId> outs;
  for (int i = 0; i < 16; ++i) {
    const data::DataId in =
        rt.register_data(util::format("in%d", i), 1 * kMiB, 0);
    const data::DataId mid =
        rt.register_data(util::format("mid%d", i), 4 * kMiB, 0);
    const data::DataId out =
        rt.register_data(util::format("out%d", i), 4 * kMiB, 0);
    rt.submit(util::format("produce%d", i), both, 4e9,
              {{in, data::AccessMode::Read}, {mid, data::AccessMode::Write}});
    rt.submit(util::format("refine%d", i), both, 6e9,
              {{mid, data::AccessMode::Read}, {out, data::AccessMode::Write}});
    rt.submit(util::format("inspect%d", i), cpu, 1e8,
              {{mid, data::AccessMode::Read}, {gate, data::AccessMode::Read}});
    outs.push_back(out);
  }
  const data::DataId total = rt.register_data("total", 1 * kMiB, 0);
  std::vector<data::Access> reduce = {{calib, data::AccessMode::Read},
                                      {total, data::AccessMode::Write}};
  for (const data::DataId out : outs) {
    reduce.push_back({out, data::AccessMode::Read});
  }
  rt.submit("reduce", both, 2e9, reduce);
  const data::DataId junk = rt.register_data("junk", 1 * kMiB, 0);
  rt.submit("stuck", cpu, 1e13, {{junk, data::AccessMode::Write}});
  rt.submit("stuck_child", cpu, 1e9, {{junk, data::AccessMode::Read}});
}

}  // namespace hetflow::testing
