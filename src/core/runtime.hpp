// Runtime — hetflow's execution engine and primary public API.
//
// Usage:
//
//   hw::Platform platform = hw::make_workstation();
//   Runtime rt(platform, sched::make_scheduler("dmda"));
//   auto a = rt.register_data("A", 8 * N * N);
//   auto gemm = Codelet::make("gemm", {{DeviceType::Cpu, 0.6},
//                                      {DeviceType::Gpu, 0.85}});
//   rt.submit("gemm0", gemm, 2.0 * N * N * N, {{a, AccessMode::ReadWrite}});
//   rt.wait_all();
//   std::cout << rt.stats().summary(platform);
//
// Dependencies between tasks are inferred from their data accesses under
// sequential consistency per handle (StarPU's implicit mode): a reader
// depends on the last writer; a writer depends on the last writer and on
// every reader since (RAW, WAW, WAR). Execution happens in simulated time
// on the platform model — deterministic for a given seed.
#pragma once

#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/codelet.hpp"
#include "core/cost_cache.hpp"
#include "core/retry.hpp"
#include "core/scheduler.hpp"
#include "core/stats.hpp"
#include "core/task.hpp"
#include "data/manager.hpp"
#include "hw/failure.hpp"
#include "hw/platform.hpp"
#include "obs/recorder.hpp"
#include "perf/history_model.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"
#include "util/stable_vector.hpp"

namespace hetflow::core {

/// What to do when fault injection kills a task attempt.
enum class FailurePolicy : std::uint8_t {
  RetrySameDevice = 0,  ///< re-run at the front of the same device's queue
  Reschedule,           ///< hand the task back to the scheduler
};

/// One whole-node fault-domain event: at simulated time `at`, every
/// device in `devices` is quarantined at once and every memory node in
/// `memory_nodes` loses its entire contents. Running attempts on the
/// node are killed (charged as failed attempts and retried through the
/// normal FailurePolicy/backoff machinery), queued work returns to the
/// scheduler, and data whose last valid replica lived on the node is
/// re-homed: durable inputs are re-seeded on a surviving memory node,
/// produced data is regenerated by re-executing its last completed
/// writer (consumers park at the device boundary until the value is
/// back). Requires a dynamic scheduler, like device blacklisting.
struct NodeFault {
  sim::SimTime at = 0.0;
  std::vector<hw::DeviceId> devices;
  std::vector<hw::MemoryNodeId> memory_nodes;
  /// Seconds until the node rejoins (its devices enter probation with
  /// empty memories); negative = the node never comes back.
  double recover_after = -1.0;
};

/// Per-run knobs. The engine itself has none: completions are processed
/// one event at a time with a scheduler pump after each, and cost
/// estimates always go through the CostModelCache (core/cost_cache.hpp).
struct RuntimeOptions {
  std::uint64_t seed = 42;
  /// Coefficient of variation of lognormal execution-time noise
  /// (0 = exact cost model).
  double noise_cv = 0.0;
  hw::FailureModel failure_model;
  FailurePolicy failure_policy = FailurePolicy::RetrySameDevice;
  /// Fault-tolerance knobs: attempt budget, retry backoff, per-attempt
  /// timeout, device blacklisting (see core/retry.hpp). Defaults
  /// preserve the legacy immediate-retry behaviour byte-for-byte.
  RetryPolicy retry;
  /// Scheduled whole-node failures (cluster fault domains). A fault
  /// whose time falls beyond the run's natural drain never fires.
  std::vector<NodeFault> node_faults;
  bool record_trace = true;
  /// Feed measured execution times back into the history model used for
  /// estimates (on-line calibration).
  bool use_history_model = true;
  /// Start moving a task's inputs toward its device the moment it is
  /// queued (overlapping transfers with the device's current execution)
  /// instead of at task start. Off by default so baseline experiments
  /// isolate scheduling effects.
  bool enable_prefetch = false;
  /// hetflow-verify: run submit-time access-list checks and, inside
  /// wait_all(), the full end-of-run audit (happens-before race
  /// detector, trace timeline, coherence-directory invariants,
  /// event-queue drain). Violations throw check::ValidationError.
  bool validate = false;
  /// Observability layer: collect the typed metrics registry, the
  /// structured event log (transfers, prefetches, retries, blacklists)
  /// and the scheduler decision log — surfaced via recorder(). Off by
  /// default; the off path leaves every legacy output byte-identical.
  bool metrics = false;
};

class Runtime {
 public:
  Runtime(const hw::Platform& platform, std::unique_ptr<Scheduler> scheduler,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers a datum with its initial copy on `home_node`. The name is
  /// copied into the data registry's name arena — no per-handle string
  /// allocation.
  data::DataId register_data(std::string_view name, std::uint64_t bytes,
                             hw::MemoryNodeId home_node = 0);

  /// Splits `parent` into `parts` equal block children (last child takes
  /// the remainder) so tasks can work on blocks in parallel. While the
  /// partition is active, submitting a task that accesses `parent` is an
  /// error. Tasks writing a child transparently order after the parent's
  /// previous writer. Returns the child handles.
  ///
  /// Timing approximation: children are fresh handles homed with the
  /// parent; the split/gather itself is treated as free (block
  /// partitioning is a pointer adjustment in a real runtime).
  std::vector<data::DataId> partition_data(data::DataId parent,
                                           std::size_t parts);

  /// Ends the partition: `parent` becomes accessible again and its next
  /// accessors order after every task that touched any child; the
  /// children become inaccessible.
  void unpartition_data(data::DataId parent);

  /// True while `parent` is split into live children.
  bool is_partitioned(data::DataId parent) const;

  /// Submits one task. Dependencies are inferred from `accesses` against
  /// all previously submitted tasks. Returns the task id. The name is
  /// copied into the name arena (tasks borrow a stable view — no per-task
  /// string allocation) and the accesses into the task's inline access
  /// list, so both arguments may be transient.
  TaskId submit(std::string_view name, CodeletPtr codelet, double flops,
                std::span<const data::Access> accesses);

  /// Submits with an explicit priority hint (larger = more urgent).
  TaskId submit(std::string_view name, CodeletPtr codelet, double flops,
                std::span<const data::Access> accesses, double priority);

  /// Braced-list conveniences: submit("t", c, flops, {{a, Mode::Read}}).
  TaskId submit(std::string_view name, CodeletPtr codelet, double flops,
                std::initializer_list<data::Access> accesses) {
    return submit(name, std::move(codelet), flops,
                  std::span<const data::Access>(accesses.begin(),
                                                accesses.size()));
  }
  TaskId submit(std::string_view name, CodeletPtr codelet, double flops,
                std::initializer_list<data::Access> accesses,
                double priority) {
    return submit(name, std::move(codelet), flops,
                  std::span<const data::Access>(accesses.begin(),
                                                accesses.size()),
                  priority);
  }

  Task& task(TaskId id);
  const Task& task(TaskId id) const;
  /// Number of this task's parents that have not completed yet (the
  /// counter finish_task drains; 0 once the task is ready or beyond).
  std::uint64_t unfinished_deps(TaskId id) const;
  /// Tasks that depend on `id` (the reverse of Task::dependencies).
  const TaskIdList& dependents(TaskId id) const;
  std::size_t task_count() const noexcept { return tasks_.size(); }

  /// Executes every submitted-but-unfinished task to completion in
  /// simulated time; returns the simulation clock afterwards. May be
  /// called repeatedly, interleaved with further submissions (iterative
  /// discovery campaigns) — the clock carries over.
  sim::SimTime wait_all();

  /// Valid after wait_all(); reflects the whole run so far.
  const RunStats& stats() const noexcept { return stats_; }

  const hw::Platform& platform() const noexcept { return *platform_; }
  const DeviceHealth& health() const noexcept { return health_; }
  const trace::Tracer& tracer() const noexcept { return tracer_; }
  const data::DataManager& data() const noexcept { return data_; }
  const perf::HistoryModel& history() const noexcept { return history_; }
  const Scheduler& scheduler() const noexcept { return *scheduler_; }
  const sim::EventQueue& event_queue() const noexcept { return queue_; }
  sim::SimTime now() const noexcept { return queue_.now(); }

  /// Observability sink; null unless RuntimeOptions::metrics is set.
  obs::Recorder* recorder() noexcept { return recorder_.get(); }
  const obs::Recorder* recorder() const noexcept { return recorder_.get(); }

  /// Drops every memoized cost-model entry. The platform is immutable
  /// during a normal run, so this only matters for callers that mutate
  /// device DVFS tables or memory capacities between waves — the cache
  /// cannot observe those, per the CostModelCache contract.
  void invalidate_cost_cache() { cost_cache_.invalidate(); }

  /// Read-only view of the memo (tests: invalidation-counter probes).
  const CostModelCache& cost_cache() const noexcept { return cost_cache_; }

 private:
  class Context;  // SchedContext implementation

  struct DeviceState {
    std::deque<Task*> queue;        ///< assigned, waiting
    Task* running = nullptr;
    sim::SimTime busy_until = 0.0;  ///< end of the running task
    /// Pending finish/fail event of the running task; cancelled when the
    /// timeout watchdog wins the race (0 = none).
    sim::EventId completion_event = 0;
    /// Pending timeout watchdog; cancelled when the task completes or
    /// fails naturally first (0 = none).
    sim::EventId watchdog_event = 0;
    /// Pending probation timer while blacklisted; cancelled (with the
    /// quarantine lifted) when the run drains first (0 = none).
    sim::EventId probation_event = 0;
    double queued_est_seconds = 0.0;
  };

  const hw::Platform* platform_;
  RuntimeOptions options_;
  /// Task-name arena. Declared before every member that can hold views
  /// into it (tasks_, tracer_, recorder_) so it is destroyed last.
  util::NameArena names_;
  sim::EventQueue queue_;
  data::DataManager data_;
  perf::HistoryModel history_;
  trace::Tracer tracer_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<Context> context_;
  util::Rng rng_;
  DeviceHealth health_;
  std::unique_ptr<obs::Recorder> recorder_;

  /// Task pool: chunked storage with stable addresses (the runtime hands
  /// out Task* into handle-use chains, device queues and schedulers).
  /// 8192-element chunks put each chunk past StableVector's 2 MiB
  /// huge-page threshold: a 10^6-task pool is ~320 MB touched in
  /// DAG-completion order, and 2 MiB pages cut its first-touch faults
  /// ~500x and keep the walk inside the dTLB.
  util::StableVector<Task, 8192> tasks_;
  /// Per-handle sequential-consistency chain. Holds TaskIds, not Task*:
  /// dependency inference only needs the id, the state (from the dense
  /// task_states_ mirror) and the dependents list (dense dependents_),
  /// so the scattered 320-byte Task objects stay untouched on the
  /// submit path.
  struct HandleUse {
    TaskId last_writer = kInvalidTask;
    util::SmallVector<TaskId, 4> readers_since_write;
    util::SmallVector<TaskId, 4> redux_since_write;  ///< unordered contributors
  };
  /// One slot per handle, chunked like the task pool: HandleUse carries
  /// two SmallVectors, so a std::vector's growth reallocs would move a
  /// million elements element-by-element; StableVector never relocates.
  /// 65536-element chunks (~3.7 MB) ride the huge-page path — this
  /// array takes the submit loop's random parent-chain hits.
  util::StableVector<HandleUse, 65536> handle_uses_;
  /// Scratch for infer_dependencies' duplicate-parent check: slot p holds
  /// `child + 1` when parent p was already recorded for that child —
  /// an O(1) stamped lookup with no per-submit allocation or clearing.
  std::vector<TaskId> dep_mark_;
  /// Unfinished-parent counters, indexed by TaskId. Kept out of Task on
  /// purpose: the completion hot loop decrements one counter per
  /// dependent edge, and a dense 4-byte array keeps those writes inside
  /// a few-KiB working set instead of scattering across Task objects.
  std::vector<std::uint32_t> deps_open_;
  /// Dependents lists, indexed by TaskId — the reverse edges. Out of
  /// Task for the same reason as deps_open_: infer_dependencies appends
  /// to an arbitrary parent's list per edge, and the dense array keeps
  /// that random write inside a window ~6x smaller than the Task pool.
  /// Chunked (not std::vector) so growth never moves a million
  /// SmallVectors; 65536-element chunks for huge pages, as above.
  util::StableVector<TaskIdList, 65536> dependents_;
  /// Dense mirror of every task's state, maintained by set_task_state
  /// (the only place runtime.cpp transitions a task). Lets the submit
  /// path test "parent completed?" / "dependency abandoned?" against a
  /// 1-byte-per-task array instead of loading the parent Task.
  std::vector<TaskState> task_states_;
  struct PartitionInfo {
    std::vector<data::DataId> children;
    bool active = false;
  };
  std::unordered_map<data::DataId, PartitionInfo> partitions_;
  // child -> owning parent while that partition is or was active.
  std::unordered_map<data::DataId, data::DataId> child_parent_;

  std::vector<DeviceState> device_states_;
  std::uint64_t pending_ = 0;  ///< submitted, not yet completed
  std::unordered_set<TaskId> deferred_;  ///< waiting on release_time
  std::unordered_set<TaskId> prefetched_;  ///< holding prefetch pins
  // --- whole-node fault domains (empty/untouched unless configured) ---
  /// Lost datum -> the task whose (re-)completion brings it back. Any
  /// other task touching the datum parks at dispatch until the entry
  /// clears (begin_execution / finish_task).
  std::unordered_map<data::DataId, TaskId> pending_regen_;
  /// Dispatches parked on a pending regeneration, in park order.
  std::vector<TaskId> parked_;
  /// Last *completed* writer per datum (kInvalidTask = never written —
  /// the content is the durable staged input). Only maintained when
  /// node_faults are configured: resurrection needs it, nothing else
  /// does, and the per-completion update is measurable at 10^6 tasks.
  std::vector<TaskId> last_completed_writer_;
  /// First-run execution times of resurrected producers, restored on
  /// re-completion: consumers that already ran ordered against the
  /// *original* interval, and the audit must see that schedule, not
  /// the recovery re-execution's timestamps.
  std::unordered_map<TaskId, TaskTimes> first_run_times_;
  /// Memory nodes currently failed (reseed targets must avoid them).
  std::vector<bool> dead_memory_;
  /// Un-fired fault events, cancelled if the run drains first.
  std::vector<sim::EventId> fault_events_;
  bool node_faults_scheduled_ = false;
  RunStats stats_;
  bool prepared_anything_ = false;
  /// Memoized cost-model terms (mutable: a cache behind the logically
  /// const exec_estimate).
  mutable CostModelCache cost_cache_;

  // --- engine ------------------------------------------------------------
  /// Sole state-transition point: updates the Task and the dense mirror.
  void set_task_state(Task& task, TaskState state) noexcept {
    task.set_state(state);
    task_states_[task.id()] = state;
  }
  void infer_dependencies(Task& task);
  /// Makes the task Ready now, or schedules that for its release time.
  void ready_or_defer(Task& task);
  void make_ready(Task& task);
  void internal_assign(Task& task, const hw::Device& device,
                       std::optional<std::size_t> dvfs);
  void pump_device(hw::DeviceId id);
  void pump_all();
  void start_next(hw::DeviceId id);
  /// Dispatches `task` on device `id` (the tail of start_next, once the
  /// task has left the device queue): attempt accounting, data acquire,
  /// noise/failure sampling, completion + watchdog events.
  void begin_execution(Task& task, hw::DeviceId id);
  /// The one end of every attempt (completion, failure, timeout, node
  /// kill): takes it off the device, cancels whichever of the completion
  /// and watchdog events is still pending (the caller zeroes the one
  /// that fired), releases its pins, records its span (always for Exec,
  /// for a failure only when busy_s > 0) and charges busy_s and its
  /// energy. Returns the device tally so the caller counts the outcome.
  DeviceRunStats& end_attempt(Task& task, hw::DeviceId id,
                              sim::SimTime started, double busy_s,
                              std::size_t dvfs_index, trace::SpanKind kind);
  void finish_task(Task& task, hw::DeviceId id, sim::SimTime started,
                   double busy_s, std::size_t dvfs_index);
  void fail_task(Task& task, hw::DeviceId id, sim::SimTime started,
                 double busy_s, std::size_t dvfs_index);
  /// The per-attempt timeout watchdog fired: ends the attempt, charging
  /// the partial busy time as a failed one, and recovers like any other
  /// failure.
  void timeout_task(Task& task, hw::DeviceId id, sim::SimTime started,
                    std::size_t dvfs_index);
  /// Shared tail of fail_task and the timeout watchdog: health tracking,
  /// attempt-budget enforcement, backoff and requeue.
  void recover_attempt(Task& task, hw::DeviceId id);
  /// Performs the FailurePolicy action for `task` (now, after any
  /// backoff delay has elapsed). `device_id` is the failed device.
  void requeue_attempt(Task& task, hw::DeviceId device_id);
  /// Quarantines `device_id`: hands its queued tasks back to the
  /// scheduler and arms the probation timer.
  void blacklist_device(hw::DeviceId device_id);
  /// At `at` the quarantined device `id` enters probation and pumps.
  void arm_probation(hw::DeviceId id, sim::SimTime at);
  /// Takes `task` out of a device's hands: drops its prefetch pins,
  /// moves it to `state` and forgets its DVFS choice.
  void unqueue(Task& task, TaskState state);
  /// Releases the prefetch pins `task` holds, if any.
  void drop_prefetch(const Task& task);
  /// Drops `task` (attempt budget exhausted under ExhaustionPolicy::Drop)
  /// together with every task that transitively depends on it.
  void abandon_task(Task& task);
  /// Executes one NodeFault: quarantine, attempt kill, queue orphaning,
  /// replica invalidation and data re-homing (see struct NodeFault).
  void fail_node(const NodeFault& fault);
  /// Re-homes one datum that lost its last replica: pending-writer
  /// passthrough, completed-writer resurrection, or durable reseed.
  void recover_datum(data::DataId data);
  /// Re-submits a completed producer so it runs again and regenerates
  /// its outputs (transitively recovering its own lost inputs first).
  void resurrect_writer(TaskId id);
  /// Parks `task` at the dispatch boundary until every pending
  /// regeneration among its accesses clears; re-enters the scheduler.
  void park_task(Task& task);
  /// Re-readies parked tasks whose accesses are no longer blocked.
  void release_parked();
  /// Logs an obs event at the current time (no-op with metrics off):
  /// named after `task` when given (Retry and Timeout carry its attempt
  /// number), else after `device`; `device` -1 = no device track.
  void record_event(obs::EventKind kind, std::int64_t device,
                    const Task* task);
  /// Completes RunStats from the live tallies and, with metrics on,
  /// publishes the stats-backed counters and end-of-run gauges.
  void finalize_stats();

  double exec_estimate(const Task& task, const hw::Device& device,
                       std::optional<std::size_t> dvfs) const;
  std::size_t dvfs_or_nominal(const Task& task,
                              const hw::Device& device) const;
};

}  // namespace hetflow::core
