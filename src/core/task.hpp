// Task — one node of the executed DAG: a codelet instance with a flop
// count, data accesses and runtime bookkeeping.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "core/codelet.hpp"
#include "data/access.hpp"
#include "hw/device.hpp"
#include "hw/platform.hpp"
#include "sim/event_queue.hpp"
#include "util/small_vector.hpp"

namespace hetflow::core {

using TaskId = std::uint64_t;

/// Sentinel for "no task" (e.g. a handle that was never written).
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

/// Inline capacities for per-task edge/access lists. Workflow DAGs are
/// sparse (Montage medians: 2 dependencies, 3 dependents, ≤4 accesses),
/// so these keep the common case allocation-free; hub tasks spill to the
/// heap transparently.
using AccessList = util::SmallVector<data::Access, 4>;
using TaskIdList = util::SmallVector<TaskId, 4>;

enum class TaskState : std::uint8_t {
  Submitted = 0,  ///< dependencies not yet satisfied
  Ready,          ///< all dependencies done, awaiting scheduling decision
  Queued,         ///< assigned to a device, waiting in its queue
  Running,        ///< executing (in simulated time)
  Completed,
  Abandoned,      ///< attempt budget exhausted under ExhaustionPolicy::Drop
                  ///< (or a dependency was); will never run
};

const char* to_string(TaskState state) noexcept;

/// Per-task timestamps in simulated seconds.
struct TaskTimes {
  sim::SimTime submitted = 0.0;
  sim::SimTime ready = 0.0;
  sim::SimTime started = 0.0;    ///< start of the successful attempt
  sim::SimTime completed = 0.0;
};

class Task {
 public:
  /// `name` is borrowed, not copied — the caller (Runtime keeps task
  /// names in its arena; tests may pass string literals) must keep the
  /// characters alive for the task's lifetime. `accesses` is copied into
  /// the inline access list.
  Task(TaskId id, std::string_view name, CodeletPtr codelet, double flops,
       std::span<const data::Access> accesses);

  TaskId id() const noexcept { return id_; }
  std::string_view name() const noexcept { return name_; }
  const Codelet& codelet() const noexcept { return *codelet_; }
  double flops() const noexcept { return flops_; }
  std::span<const data::Access> accesses() const noexcept {
    return {accesses_.data(), accesses_.size()};
  }

  /// Scheduler priority hint; larger = more urgent. Defaults to 0. Static
  /// schedulers overwrite this with computed ranks.
  double priority() const noexcept { return priority_; }
  void set_priority(double priority) noexcept { priority_ = priority; }

  /// Earliest simulated time the task may become Ready (periodic /
  /// streaming arrivals). 0 = immediately once dependencies allow. Must
  /// be set before the surrounding wait_all() processes the task.
  sim::SimTime release_time() const noexcept { return release_time_; }
  void set_release_time(sim::SimTime t) noexcept { release_time_ = t; }

  TaskState state() const noexcept { return state_; }
  const TaskTimes& times() const noexcept { return times_; }

  /// Device the task ran on (set once Queued). Meaningless before.
  hw::DeviceId device() const noexcept { return device_; }
  /// DVFS point chosen for execution (defaults to the device's nominal).
  std::optional<std::size_t> dvfs_state() const noexcept { return dvfs_; }

  std::uint32_t attempts() const noexcept { return attempts_; }

  /// Total bytes of the handles this task accesses, summed in access
  /// order at submit time. Device-invariant, so the cost model reads it
  /// instead of re-walking the access list per (task, device) estimate.
  std::uint64_t working_set_bytes() const noexcept {
    return working_set_bytes_;
  }

  // --- runtime-internal interface (used by Runtime and schedulers) ------
  void set_state(TaskState state) noexcept { state_ = state; }
  TaskTimes& mutable_times() noexcept { return times_; }
  void set_device(hw::DeviceId device) noexcept { device_ = device; }
  void set_dvfs_state(std::optional<std::size_t> dvfs) noexcept {
    dvfs_ = dvfs;
  }
  void note_attempt() noexcept { ++attempts_; }
  void set_working_set_bytes(std::uint64_t bytes) noexcept {
    working_set_bytes_ = bytes;
  }

  // The unfinished-parent counter and the dependents list live in the
  // Runtime (dense arrays indexed by TaskId), not here: dependency
  // inference appends to a random parent's dependents and finish_task
  // decrements one counter per edge, and keeping both in flat side
  // arrays turns scattered 320-byte Task-object touches into hits in a
  // small dense window. Read them via Runtime::unfinished_deps(id) and
  // Runtime::dependents(id).
  TaskIdList dependencies;  ///< parents (for static schedulers)

  /// Estimate added to the device's queued_est_seconds when this task was
  /// enqueued; subtracted back on dequeue. Cached so the dequeue side
  /// does not recompute it (same inputs — device and DVFS are fixed while
  /// Queued — so the cached value is bit-identical to a recompute).
  double queued_est_s = 0.0;

 private:
  TaskId id_;
  std::string_view name_;
  CodeletPtr codelet_;
  double flops_;
  AccessList accesses_;
  std::uint64_t working_set_bytes_ = 0;
  double priority_ = 0.0;
  sim::SimTime release_time_ = 0.0;
  TaskState state_ = TaskState::Submitted;
  TaskTimes times_;
  hw::DeviceId device_ = std::numeric_limits<hw::DeviceId>::max();
  std::optional<std::size_t> dvfs_;
  std::uint32_t attempts_ = 0;
};

/// What the feasibility rule reads of one (codelet, device) pair. Both
/// facts are DeviceClass key fields (device type, memory node), so every
/// member of a class gives the same answer.
struct DeviceFit {
  bool implemented = false;          ///< the codelet runs on the type
  std::uint64_t capacity_bytes = 0;  ///< of the device's memory node

  static DeviceFit of(const Codelet& codelet, const hw::Device& device,
                      const hw::Platform& platform) {
    return {codelet.supports(device.type()),
            platform.memory_node(device.memory_node()).capacity_bytes()};
  }

  /// The feasibility rule, defined here once: a task can run on a device
  /// when its codelet implements the device's type and the device's
  /// memory can hold the task's whole working set.
  bool admits(std::uint64_t working_set_bytes) const noexcept {
    return implemented && working_set_bytes <= capacity_bytes;
  }
};

/// True when `task` can run on `device` of `platform` (DeviceFit::admits).
inline bool can_run(const Task& task, const hw::Device& device,
                    const hw::Platform& platform) {
  return DeviceFit::of(task.codelet(), device, platform)
      .admits(task.working_set_bytes());
}

}  // namespace hetflow::core
