#include "core/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/audit.hpp"
#include "perf/energy_model.hpp"
#include "util/log.hpp"
#include "util/prefetch.hpp"
#include "util/strings.hpp"

namespace hetflow::core {

namespace {
obs::Labels device_labels(const hw::Device& device) {
  return {{"device", device.name()}};
}
}  // namespace

// ---------------------------------------------------------------------------
// SchedContext implementation
// ---------------------------------------------------------------------------

class Runtime::Context final : public SchedContext {
 public:
  explicit Context(Runtime& rt) : rt_(&rt) {}

  const hw::Platform& platform() const override { return *rt_->platform_; }
  sim::SimTime now() const override { return rt_->queue_.now(); }

  const data::DataRegistry& data_registry() const override {
    return rt_->data_.registry();
  }

  double estimate_exec_seconds(
      const Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    return rt_->exec_estimate(task, device, dvfs);
  }

  sim::SimTime device_available_at(const hw::Device& device) const override {
    const DeviceState& state = rt_->device_states_[device.id()];
    sim::SimTime base =
        state.running != nullptr ? state.busy_until : rt_->queue_.now();
    // A quarantined device starts nothing before its probation timer
    // fires — surface that through availability so cost-based policies
    // steer around it without a dedicated blacklist check.
    if (rt_->health_.blacklisted(device.id())) {
      base = std::max(base, rt_->health_.blacklisted_until(device.id()));
    }
    return base + state.queued_est_seconds;
  }

  bool device_blacklisted(const hw::Device& device) const override {
    return rt_->health_.blacklisted(device.id());
  }

  sim::SimTime estimate_data_ready(const Task& task, const hw::Device& device,
                                   sim::SimTime earliest) const override {
    return rt_->data_.estimate_ready_time(task.accesses(),
                                          device.memory_node(), earliest);
  }

  std::uint64_t missing_input_bytes(const Task& task,
                                    const hw::Device& device) const override {
    return rt_->data_.missing_input_bytes(task.accesses(),
                                          device.memory_node());
  }

  sim::SimTime estimate_completion(
      const Task& task, const hw::Device& device,
      std::optional<std::size_t> dvfs) const override {
    const double exec = rt_->exec_estimate(task, device, dvfs);
    if (!std::isfinite(exec)) {
      return std::numeric_limits<double>::infinity();
    }
    const sim::SimTime avail = device_available_at(device);
    const sim::SimTime data_ready = estimate_data_ready(task, device, avail);
    return std::max(avail, data_ready) + exec;
  }

  double estimate_energy(const Task& task, const hw::Device& device,
                         std::optional<std::size_t> dvfs) const override {
    const double exec = rt_->exec_estimate(task, device, dvfs);
    if (!std::isfinite(exec)) {
      return std::numeric_limits<double>::infinity();
    }
    const std::size_t state = dvfs.value_or(device.nominal_dvfs_index());
    return perf::EnergyModel::task_energy_j(device, state, exec);
  }

  obs::Recorder* recorder() const noexcept override {
    return rt_->recorder_.get();
  }

  const data::CoherenceDirectory* coherence() const noexcept override {
    return &rt_->data_.directory();
  }

  std::size_t queue_length(const hw::Device& device) const override {
    return rt_->device_states_[device.id()].queue.size();
  }

  std::size_t busy_device_count() const override {
    std::size_t count = 0;
    for (const DeviceState& state : rt_->device_states_) {
      if (state.running != nullptr || !state.queue.empty()) {
        ++count;
      }
    }
    return count;
  }

  void assign(Task& task, const hw::Device& device,
              std::optional<std::size_t> dvfs) override {
    rt_->internal_assign(task, device, dvfs);
  }

 private:
  Runtime* rt_;
};

// ---------------------------------------------------------------------------
// Construction / submission
// ---------------------------------------------------------------------------

Runtime::Runtime(const hw::Platform& platform,
                 std::unique_ptr<Scheduler> scheduler, RuntimeOptions options)
    : platform_(&platform),
      options_(options),
      data_(platform, queue_),
      tracer_(options.record_trace),
      scheduler_(std::move(scheduler)),
      rng_(options.seed),
      health_(platform.device_count()),
      device_states_(platform.device_count()) {
  HETFLOW_REQUIRE_MSG(scheduler_ != nullptr, "runtime needs a scheduler");
  if (options_.retry.blacklist_after > 0 &&
      scheduler_->requires_full_graph()) {
    throw InvalidArgument(util::format(
        "static scheduler '%s' cannot be combined with device "
        "blacklisting: quarantined work re-enters the scheduler at run "
        "time, which a full-graph plan cannot absorb",
        scheduler_->name().c_str()));
  }
  if (!options_.node_faults.empty() && scheduler_->requires_full_graph()) {
    throw InvalidArgument(util::format(
        "static scheduler '%s' cannot be combined with node faults: "
        "killed and regenerated work re-enters the scheduler at run "
        "time, which a full-graph plan cannot absorb",
        scheduler_->name().c_str()));
  }
  if (options_.retry.max_attempts == 0) {
    throw InvalidArgument(
        "RetryPolicy::max_attempts must be at least 1: every task needs "
        "one attempt to run");
  }
  if (options_.failure_model.enabled() &&
      options_.failure_model.hang_fraction() > 0.0 &&
      options_.retry.timeout_s <= 0.0) {
    throw InvalidArgument(
        "fail-silent faults (hang_fraction > 0) require a per-attempt "
        "timeout (RetryPolicy::timeout_s): a hung attempt delivers no "
        "failure signal, so only the watchdog can recover it");
  }
  if (options_.metrics) {
    recorder_ = std::make_unique<obs::Recorder>();
    data_.set_recorder(recorder_.get());
    recorder_->devices() = obs::DeviceSeries(recorder_->metrics(), platform,
                                             scheduler_->name());
  }
  dead_memory_.assign(platform.memory_node_count(), false);
  cost_cache_.attach(platform);
  context_ = std::make_unique<Context>(*this);
  scheduler_->attach(*context_);
  stats_.devices.resize(platform.device_count());
  for (std::size_t i = 0; i < platform.device_count(); ++i) {
    stats_.devices[i].device = static_cast<hw::DeviceId>(i);
  }
}

Runtime::~Runtime() = default;

data::DataId Runtime::register_data(std::string_view name,
                                    std::uint64_t bytes,
                                    hw::MemoryNodeId home_node) {
  const data::DataId id = data_.register_data(name, bytes, home_node);
  handle_uses_.emplace_back();  // one slot per handle; ids are sequential
  if (!options_.node_faults.empty()) {
    // Writer tracking feeds resurrection only; runs without node faults
    // skip the per-completion bookkeeping entirely.
    last_completed_writer_.push_back(kInvalidTask);
  }
  return id;
}

TaskId Runtime::submit(std::string_view name, CodeletPtr codelet, double flops,
                       std::span<const data::Access> accesses) {
  return submit(name, std::move(codelet), flops, accesses, 0.0);
}

std::vector<data::DataId> Runtime::partition_data(data::DataId parent,
                                                  std::size_t parts) {
  HETFLOW_REQUIRE_MSG(parent < data_.registry().count(),
                      "partition of unregistered handle");
  HETFLOW_REQUIRE_MSG(parts >= 1, "partition needs at least one part");
  if (is_partitioned(parent)) {
    throw InvalidArgument("handle is already partitioned");
  }
  if (child_parent_.count(parent) > 0 &&
      partitions_.at(child_parent_.at(parent)).active) {
    throw InvalidArgument("cannot partition a live partition child");
  }
  // Copy: registering children reallocates the registry's storage.
  const data::DataHandle parent_handle = data_.registry().handle(parent);
  const std::string parent_name(parent_handle.name);
  PartitionInfo info;
  info.active = true;
  const std::uint64_t block = parent_handle.bytes / parts;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::uint64_t bytes =
        i + 1 == parts ? parent_handle.bytes - block * (parts - 1) : block;
    const data::DataId child = register_data(
        util::format("%s[%zu/%zu]", parent_name.c_str(), i, parts), bytes,
        parent_handle.home_node);
    // Children inherit the parent's ordering point: a child's first
    // reader/writer orders after whatever last wrote the parent.
    handle_uses_[child].last_writer = handle_uses_[parent].last_writer;
    child_parent_[child] = parent;
    info.children.push_back(child);
  }
  partitions_[parent] = std::move(info);
  return partitions_[parent].children;
}

void Runtime::unpartition_data(data::DataId parent) {
  const auto it = partitions_.find(parent);
  if (it == partitions_.end() || !it->second.active) {
    throw InvalidArgument("handle is not partitioned");
  }
  HandleUse& parent_use = handle_uses_[parent];
  for (data::DataId child : it->second.children) {
    // Everything that touched a child becomes an (unordered) predecessor
    // of the parent's next accessor — expressed via the redux list,
    // whose semantics are exactly "next read/write orders after all".
    HandleUse& child_use = handle_uses_[child];
    if (child_use.last_writer != kInvalidTask) {
      parent_use.redux_since_write.push_back(child_use.last_writer);
    }
    for (TaskId reader : child_use.readers_since_write) {
      parent_use.redux_since_write.push_back(reader);
    }
    for (TaskId contributor : child_use.redux_since_write) {
      parent_use.redux_since_write.push_back(contributor);
    }
  }
  it->second.active = false;
}

bool Runtime::is_partitioned(data::DataId parent) const {
  const auto it = partitions_.find(parent);
  return it != partitions_.end() && it->second.active;
}

TaskId Runtime::submit(std::string_view name, CodeletPtr codelet, double flops,
                       std::span<const data::Access> accesses,
                       double priority) {
  // Guard the per-access partition probes on the maps being non-empty:
  // runs that never partition (the 10^6-task regime) skip two hash
  // lookups per access.
  const bool partitions_possible = !partitions_.empty();
  std::uint64_t working_set = 0;
  for (const data::Access& access : accesses) {
    HETFLOW_REQUIRE_MSG(access.data < data_.registry().count(),
                        "task references an unregistered data handle");
    // infer_dependencies walks these same handles' use chains in a few
    // hundred cycles; start pulling the scattered rows now.
    util::prefetch_write(&handle_uses_[access.data]);
    working_set += data_.registry().handle(access.data).bytes;
    if (!partitions_possible) {
      continue;
    }
    if (is_partitioned(access.data)) {
      throw InvalidArgument(
          "task accesses handle '" +
          std::string(data_.registry().handle(access.data).name) +
          "' while it is partitioned — access its children instead");
    }
    const auto parent_it = child_parent_.find(access.data);
    if (parent_it != child_parent_.end() &&
        !partitions_.at(parent_it->second).active) {
      throw InvalidArgument(
          "task accesses partition child '" +
          std::string(data_.registry().handle(access.data).name) +
          "' after unpartition");
    }
  }
  // The task must be runnable on some device class (DeviceFit::admits).
  bool implemented = false;
  bool fits = false;
  for (const hw::DeviceClass& members : platform_->device_classes()) {
    const DeviceFit fit =
        DeviceFit::of(*codelet, platform_->device(members.front()), *platform_);
    implemented = implemented || fit.implemented;
    fits = fits || fit.admits(working_set);
  }
  if (!implemented) {
    throw InvalidArgument("codelet '" + codelet->name() +
                          "' runs on no device of platform '" +
                          platform_->name() + "'");
  }
  if (!fits) {
    throw InvalidArgument(util::format(
        "task '%.*s' needs %llu bytes of data, more than the memory of any "
        "device of platform '%s' that runs codelet '%s'",
        static_cast<int>(name.size()), name.data(),
        static_cast<unsigned long long>(working_set),
        platform_->name().c_str(), codelet->name().c_str()));
  }
  if (options_.validate) {
    auto duplicates = check::check_accesses(accesses, name);
    if (!duplicates.empty()) {
      check::CheckReport report;
      report.merge(std::move(duplicates));
      check::enforce(report);
    }
  }
  const TaskId id = tasks_.size();
  Task& task = tasks_.emplace_back(id, names_.intern_view(name),
                                   std::move(codelet), flops, accesses);
  task.set_working_set_bytes(working_set);
  dep_mark_.push_back(0);  // ids are sequential; one stamp slot per task
  deps_open_.push_back(0);
  dependents_.emplace_back();
  task_states_.push_back(TaskState::Submitted);
  task.set_priority(priority);
  task.mutable_times().submitted = queue_.now();
  infer_dependencies(task);
  ++pending_;
  // A dependency abandoned in an earlier wave can never complete; the
  // new task is lost on arrival (and so is anything submitted on top).
  for (const TaskId dep : task.dependencies) {
    if (task_states_[dep] == TaskState::Abandoned) {
      abandon_task(task);
      break;
    }
  }
  return id;
}

Task& Runtime::task(TaskId id) {
  HETFLOW_REQUIRE_MSG(id < tasks_.size(), "task id out of range");
  return tasks_[id];
}

const Task& Runtime::task(TaskId id) const {
  HETFLOW_REQUIRE_MSG(id < tasks_.size(), "task id out of range");
  return tasks_[id];
}

std::uint64_t Runtime::unfinished_deps(TaskId id) const {
  HETFLOW_REQUIRE_MSG(id < deps_open_.size(), "task id out of range");
  return deps_open_[id];
}

const TaskIdList& Runtime::dependents(TaskId id) const {
  HETFLOW_REQUIRE_MSG(id < dependents_.size(), "task id out of range");
  return dependents_[id];
}

void Runtime::infer_dependencies(Task& task) {
  // Duplicate-parent detection by stamping: dep_mark_[p] == task.id() + 1
  // iff p was already recorded as a parent of *this* task. O(1) per edge,
  // no allocation, no clearing between submits (stamps from earlier tasks
  // are simply stale), and — unlike a hash set — iteration-order-free:
  // dependencies are recorded in exactly the order add_dep sees them,
  // which the static schedulers' tie-breaks depend on.
  const TaskId self = task.id();
  const TaskId stamp = self + 1;
  // Edges are recorded by TaskId against the dense side arrays only —
  // the parent Task object (5 cache lines, randomly placed) is never
  // loaded. On wide random DAGs this halves the submit path's working
  // set and is a measurable share of end-to-end throughput.
  const auto add_dep = [&](TaskId parent) {
    if (parent == kInvalidTask || parent == self) {
      return;
    }
    if (dep_mark_[parent] == stamp) {
      return;
    }
    dep_mark_[parent] = stamp;
    task.dependencies.push_back(parent);
    if (task_states_[parent] != TaskState::Completed) {
      dependents_[parent].push_back(self);
      ++deps_open_[self];
    }
  };
  for (const data::Access& access : task.accesses()) {
    HandleUse& use = handle_uses_[access.data];
    if (data::is_read(access.mode)) {
      add_dep(use.last_writer);  // RAW
      for (TaskId contributor : use.redux_since_write) {
        add_dep(contributor);  // read sees the combined reduction
      }
    }
    if (data::is_write(access.mode)) {
      add_dep(use.last_writer);  // WAW
      for (TaskId reader : use.readers_since_write) {
        add_dep(reader);  // WAR
      }
      for (TaskId contributor : use.redux_since_write) {
        add_dep(contributor);  // write overwrites the reduction result
      }
    }
    if (data::is_redux(access.mode)) {
      // Contributors order after the preceding writer and readers, but
      // NOT after each other — that is the whole point of Redux.
      add_dep(use.last_writer);
      for (TaskId reader : use.readers_since_write) {
        add_dep(reader);
      }
    }
  }
  // Second pass so a RW access doesn't register itself as its own parent.
  for (const data::Access& access : task.accesses()) {
    HandleUse& use = handle_uses_[access.data];
    if (data::is_write(access.mode)) {
      use.last_writer = self;
      use.readers_since_write.clear();
      use.redux_since_write.clear();
    }
    if (access.mode == data::AccessMode::Read) {
      use.readers_since_write.push_back(self);
    }
    if (data::is_redux(access.mode)) {
      use.redux_since_write.push_back(self);
    }
  }
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

sim::SimTime Runtime::wait_all() {
  // Whole-node fault injection: armed once, on the first wave. A fault
  // scheduled past the natural drain simply never fires (cancelled
  // below) — the run ended before the node died.
  if (!node_faults_scheduled_ && !options_.node_faults.empty()) {
    node_faults_scheduled_ = true;
    fault_events_.reserve(options_.node_faults.size());
    for (const NodeFault& fault : options_.node_faults) {
      fault_events_.push_back(
          queue_.schedule_at(std::max(fault.at, queue_.now()),
                             [this, &fault] { fail_node(fault); }));
    }
  }
  // Static pre-pass over every not-yet-completed task. Scans the dense
  // state mirror so repeated waves skip finished tasks without paging
  // their Task objects back in.
  std::vector<Task*> open_tasks;
  for (TaskId id = 0; id < task_states_.size(); ++id) {
    if (task_states_[id] == TaskState::Submitted) {
      open_tasks.push_back(&tasks_[id]);
    }
  }
  if (!open_tasks.empty()) {
    scheduler_->prepare(open_tasks);
    prepared_anything_ = true;
  }
  for (Task* task : open_tasks) {
    if (deps_open_[task->id()] == 0 && task->state() == TaskState::Submitted &&
        (deferred_.empty() || deferred_.count(task->id()) == 0)) {
      ready_or_defer(*task);
    }
  }
  pump_all();
  // Resolved once per wave (registry entries never move), and only when
  // the loop will sample it, so an empty wave registers nothing.
  obs::TimeWeighted* event_queue_depth =
      recorder_ != nullptr && pending_ > 0
          ? &recorder_->metrics().time_weighted("event_queue_depth")
          : nullptr;
  while (pending_ > 0) {
    if (event_queue_depth != nullptr) {
      event_queue_depth->update(queue_.now(),
                                static_cast<double>(queue_.pending()));
    }
    if (!queue_.step()) {
      // Drained with work outstanding: give pull-mode schedulers one more
      // chance, then declare deadlock.
      pump_all();
      if (pending_ > 0 && queue_.empty()) {
        throw InternalError(util::format(
            "scheduler '%s' stalled with %zu unfinished tasks",
            scheduler_->name().c_str(), pending_));
      }
    }
  }
  // Node faults (and transient-fault recovery timers) that have not
  // fired by the drain never will.
  for (const sim::EventId id : fault_events_) {
    queue_.cancel(id);
  }
  fault_events_.clear();
  // The run is over: lift any still-pending quarantine (its probation
  // timer would otherwise linger in the queue past the drain). The
  // device re-enters the next wave on probation — a single failure
  // re-quarantines it.
  for (hw::DeviceId id = 0; id < device_states_.size(); ++id) {
    DeviceState& state = device_states_[id];
    if (state.probation_event != 0 && queue_.cancel(state.probation_event)) {
      health_.end_blacklist(id);
      cost_cache_.invalidate();
    }
    state.probation_event = 0;
  }
  finalize_stats();
  if (options_.validate) {
    check::enforce(check::audit_run(*this));
  }
  return queue_.now();
}

void Runtime::ready_or_defer(Task& task) {
  if (task.release_time() > queue_.now()) {
    deferred_.insert(task.id());
    queue_.schedule_at(task.release_time(), [this, &task] {
      deferred_.erase(task.id());
      if (task.state() == TaskState::Submitted) {
        make_ready(task);
        pump_all();
      }
    });
    return;
  }
  make_ready(task);
}

void Runtime::make_ready(Task& task) {
  HETFLOW_REQUIRE(task.state() == TaskState::Submitted);
  HETFLOW_REQUIRE(deps_open_[task.id()] == 0);
  set_task_state(task, TaskState::Ready);
  task.mutable_times().ready = queue_.now();
  scheduler_->on_task_ready(task);
}

void Runtime::internal_assign(Task& task, const hw::Device& device,
                              std::optional<std::size_t> dvfs) {
  HETFLOW_REQUIRE_MSG(task.state() == TaskState::Ready,
                      "assign() on a task that is not Ready");
  HETFLOW_REQUIRE_MSG(can_run(task, device, *platform_),
                      "assigned task to a device that cannot run it");
  if (dvfs.has_value()) {
    HETFLOW_REQUIRE_MSG(*dvfs < device.dvfs_states().size(),
                        "DVFS index out of range");
  }
  set_task_state(task, TaskState::Queued);
  task.set_device(device.id());
  task.set_dvfs_state(dvfs);
  DeviceState& state = device_states_[device.id()];
  state.queue.push_back(&task);
  task.queued_est_s = exec_estimate(task, device, dvfs);
  state.queued_est_seconds += task.queued_est_s;
  if (recorder_ != nullptr) {
    recorder_->devices().task_queued(device.id(), queue_.now(),
                                     state.queue.size());
  }
  if (options_.enable_prefetch) {
    // The task is Ready, so its inputs are final: start moving them now,
    // overlapping whatever the device is still executing.
    data_.prefetch(task.accesses(), device.memory_node(), queue_.now());
    prefetched_.insert(task.id());
  }
  pump_device(device.id());
}

void Runtime::pump_all() {
  for (hw::DeviceId id = 0; id < device_states_.size(); ++id) {
    pump_device(id);
  }
}

void Runtime::pump_device(hw::DeviceId id) {
  DeviceState& state = device_states_[id];
  if (health_.blacklisted(id)) {
    // Quarantined: starts nothing until the probation timer fires (any
    // stragglers assigned meanwhile simply wait it out).
    return;
  }
  while (state.running == nullptr) {
    if (state.queue.empty()) {
      if (!scheduler_->has_retained_work()) {
        return;  // nothing to pull; skip the per-device probe
      }
      const hw::Device& device = platform_->device(id);
      Task* pulled = scheduler_->on_device_idle(device);
      if (pulled == nullptr) {
        return;
      }
      internal_assign(*pulled, device, std::nullopt);
      // internal_assign recursed into pump_device; stop this frame.
      return;
    }
    start_next(id);
  }
}

std::size_t Runtime::dvfs_or_nominal(const Task& task,
                                     const hw::Device& device) const {
  return task.dvfs_state().value_or(device.nominal_dvfs_index());
}

void Runtime::start_next(hw::DeviceId id) {
  DeviceState& state = device_states_[id];
  HETFLOW_REQUIRE(state.running == nullptr && !state.queue.empty());
  Task& task = *state.queue.front();
  state.queue.pop_front();
  if (recorder_ != nullptr) {
    recorder_->devices().queue_changed(id, queue_.now(), state.queue.size());
  }
  state.queued_est_seconds =
      std::max(0.0, state.queued_est_seconds - task.queued_est_s);
  begin_execution(task, id);
}

void Runtime::begin_execution(Task& task, hw::DeviceId id) {
  if (!pending_regen_.empty()) {
    // A node fault killed an input's last replica and its regeneration
    // is still in flight: hold the task at the device boundary. The
    // regenerator's completion releases it back to the scheduler. Pure
    // writers of the datum park too — letting one run ahead of the
    // resurrected producer would be overwritten by the stale value.
    for (const data::Access& access : task.accesses()) {
      const auto regen = pending_regen_.find(access.data);
      if (regen != pending_regen_.end() && regen->second != task.id()) {
        park_task(task);
        return;
      }
    }
  }
  DeviceState& state = device_states_[id];
  const hw::Device& device = platform_->device(id);
  set_task_state(task, TaskState::Running);
  task.note_attempt();
  if (task.attempts() > options_.retry.max_attempts) {
    throw Error(util::format("task '%s' exceeded %zu attempts",
                             std::string(task.name()).c_str(),
                             options_.retry.max_attempts));
  }

  const sim::SimTime now = queue_.now();
  // Hand prefetch pins over to the execution-time acquire. (Guard on
  // empty: the common no-prefetch run skips the hash probe per task.)
  if (!prefetched_.empty() && prefetched_.erase(task.id()) > 0) {
    data_.release_prefetch(task.accesses(), device.memory_node());
  }
  // Data transfers begin immediately; the launch overhead overlaps them.
  const sim::SimTime data_ready =
      data_.acquire(task.accesses(), device.memory_node(), now);
  const sim::SimTime start =
      std::max(now + device.launch_overhead_s(), data_ready);

  const std::size_t dvfs_index = dvfs_or_nominal(task, device);
  double pure_exec =
      task.codelet().compute_seconds(device, task.flops()) *
      device.time_scale(dvfs_index);
  if (options_.noise_cv > 0.0) {
    // Lognormal with unit mean: mu = -sigma^2/2.
    const double sigma =
        std::sqrt(std::log(1.0 + options_.noise_cv * options_.noise_cv));
    util::Rng attempt_rng =
        rng_.split(task.id() * 131 + task.attempts());
    pure_exec *= attempt_rng.lognormal(-sigma * sigma / 2.0, sigma);
  }

  // Fault injection: does this attempt die before finishing?
  std::optional<double> failure_at;
  if (options_.failure_model.enabled()) {
    util::Rng failure_rng =
        rng_.split(0x8000000000000000ULL ^ (task.id() * 131 + task.attempts()));
    failure_at = options_.failure_model.sample_failure(
        failure_rng, device.id(), device.type(), pure_exec);
  }

  state.running = &task;
  task.mutable_times().started = start;
  bool hung = false;
  if (failure_at.has_value()) {
    util::Rng hang_rng = rng_.split(0xC000000000000000ULL ^
                                    (task.id() * 131 + task.attempts()));
    hung = options_.failure_model.sample_hang(hang_rng);
  }
  if (hung) {
    // Fail-silent: the attempt dies at the sampled instant but no signal
    // is ever delivered — the device sits occupied until the timeout
    // watchdog (mandatory with hangs enabled; enforced in the ctor)
    // cancels the attempt.
    state.busy_until = std::numeric_limits<double>::infinity();
    state.completion_event = 0;
  } else if (failure_at.has_value()) {
    const sim::SimTime died = start + *failure_at;
    state.busy_until = died;
    state.completion_event =
        queue_.schedule_at(died, [this, &task, id, start, busy = *failure_at,
                                  dvfs_index] {
          fail_task(task, id, start, busy, dvfs_index);
        });
  } else {
    const sim::SimTime end = start + pure_exec;
    state.busy_until = end;
    state.completion_event =
        queue_.schedule_at(end, [this, &task, id, start, busy = pure_exec,
                                 dvfs_index] {
          finish_task(task, id, start, busy, dvfs_index);
        });
  }
  // Timeout watchdog: the attempt's wall budget runs from dispatch, so
  // data stalls count against it. Whichever of {completion, watchdog}
  // fires first cancels the other (EventQueue::cancel).
  state.watchdog_event = 0;
  if (options_.retry.timeout_s > 0.0) {
    const sim::SimTime deadline = now + options_.retry.timeout_s;
    if (deadline < state.busy_until) {
      state.busy_until = deadline;
    }
    state.watchdog_event =
        queue_.schedule_at(deadline, [this, &task, id, start, dvfs_index] {
          timeout_task(task, id, start, dvfs_index);
        });
  }
}

void Runtime::timeout_task(Task& task, hw::DeviceId id, sim::SimTime started,
                           std::size_t dvfs_index) {
  DeviceState& state = device_states_[id];
  const hw::Device& device = platform_->device(id);
  HETFLOW_REQUIRE(state.running == &task);
  state.watchdog_event = 0;
  // Cancel the in-flight completion: the attempt is dead the moment the
  // watchdog fires, even though the simulated execution would have ended
  // later. A hung attempt has no completion event to cancel.
  if (state.completion_event != 0) {
    HETFLOW_REQUIRE(queue_.cancel(state.completion_event));
    state.completion_event = 0;
  }
  state.running = nullptr;

  data_.release(task.accesses(), device.memory_node());
  // The device was occupied from attempt start until the cancellation.
  const double busy_s = std::max(0.0, queue_.now() - started);
  DeviceRunStats& tally = charge_attempt(device, dvfs_index, busy_s);
  ++tally.failed_attempts;
  ++tally.timeouts;
  if (recorder_ != nullptr) {
    obs::Event event;
    event.kind = obs::EventKind::Timeout;
    event.time = queue_.now();
    event.device = static_cast<std::int64_t>(id);
    event.task = task.id();
    event.aux = task.attempts();
    event.name = task.name();
    recorder_->record(std::move(event));
  }
  if (busy_s > 0.0) {
    tracer_.add(trace::Span{task.id(), task.name(), id, started, queue_.now(),
                            trace::SpanKind::FailedExec});
  }
  HETFLOW_DEBUG << "task '" << task.name() << "' timed out on "
                << device.name() << " after "
                << options_.retry.timeout_s << " s (attempt "
                << task.attempts() << ")";
  recover_attempt(task, id);
}

void Runtime::finish_task(Task& task, hw::DeviceId id, sim::SimTime started,
                          double busy_s, std::size_t dvfs_index) {
  DeviceState& state = device_states_[id];
  const hw::Device& device = platform_->device(id);
  HETFLOW_REQUIRE(state.running == &task);
  state.running = nullptr;
  state.completion_event = 0;
  if (state.watchdog_event != 0) {
    queue_.cancel(state.watchdog_event);
    state.watchdog_event = 0;
  }

  data_.release(task.accesses(), device.memory_node());
  if (health_.note_success(id)) {
    cost_cache_.invalidate();  // Probation -> Healthy transition
  }
  set_task_state(task, TaskState::Completed);
  task.mutable_times().completed = queue_.now();
  bool resurrection_rerun = false;
  if (!first_run_times_.empty()) {
    // Resurrected producer re-completing: restore the first run's
    // times — consumers that already ran ordered against those, and
    // the audit must see the schedule they observed.
    const auto saved = first_run_times_.find(task.id());
    if (saved != first_run_times_.end()) {
      task.mutable_times() = saved->second;
      first_run_times_.erase(saved);
      resurrection_rerun = true;
    }
  }

  // Feed the measurement back, normalized to the nominal DVFS point.
  if (options_.use_history_model) {
    history_.record(task.codelet().id(), device.type(), task.flops(),
                    busy_s / device.time_scale(dvfs_index));
  }

  ++charge_attempt(device, dvfs_index, busy_s).tasks_completed;
  if (tracer_.enabled()) {
    // Hoisted enabled check: Span construction copies the task name, a
    // real cost per task when tracing is off.
    tracer_.add(trace::Span{task.id(), task.name(), id, started,
                            queue_.now(), trace::SpanKind::Exec});
  }

  --pending_;
  scheduler_->on_task_complete(task);
  if (resurrection_rerun) {
    // Re-completion of a resurrected producer: its dependents drained
    // these counters when it completed the first time — decrementing
    // again would release tasks whose OTHER parents are still running.
    // Ordering against the regenerated value is enforced by dispatch
    // parking, not by the dependency counters.
  } else {
    for (TaskId dependent_id : dependents_[task.id()]) {
      // Touch only the dense counter (and state mirror) per edge; the
      // Task object itself is loaded just once, when its last parent
      // completes.
      std::uint32_t& open = deps_open_[dependent_id];
      HETFLOW_REQUIRE(open > 0);
      if (--open == 0 && task_states_[dependent_id] == TaskState::Submitted) {
        ready_or_defer(tasks_[dependent_id]);
      }
    }
  }
  if (!last_completed_writer_.empty() || !pending_regen_.empty()) {
    // Node-fault bookkeeping (only ever populated when node faults are
    // configured): remember the completed producer for resurrection, and
    // clear regenerations this completion just satisfied.
    bool regenerated = false;
    for (const data::Access& access : task.accesses()) {
      if (!data::is_write(access.mode)) {
        continue;
      }
      if (!last_completed_writer_.empty()) {
        last_completed_writer_[access.data] = task.id();
      }
      if (!pending_regen_.empty() && pending_regen_.erase(access.data) > 0) {
        regenerated = true;
      }
    }
    if (regenerated) {
      release_parked();
    }
  }
  pump_all();
}

void Runtime::fail_task(Task& task, hw::DeviceId id, sim::SimTime started,
                        double busy_s, std::size_t dvfs_index) {
  DeviceState& state = device_states_[id];
  const hw::Device& device = platform_->device(id);
  HETFLOW_REQUIRE(state.running == &task);
  state.running = nullptr;
  state.completion_event = 0;
  if (state.watchdog_event != 0) {
    queue_.cancel(state.watchdog_event);
    state.watchdog_event = 0;
  }

  data_.release(task.accesses(), device.memory_node());
  ++charge_attempt(device, dvfs_index, busy_s).failed_attempts;
  tracer_.add(trace::Span{task.id(), task.name(), id, started, queue_.now(),
                          trace::SpanKind::FailedExec});
  HETFLOW_DEBUG << "task '" << task.name() << "' failed on " << device.name()
                << " (attempt " << task.attempts() << ")";
  recover_attempt(task, id);
}

DeviceRunStats& Runtime::charge_attempt(const hw::Device& device,
                                       std::size_t dvfs_index,
                                       double busy_s) {
  DeviceRunStats& tally = stats_.devices[device.id()];
  tally.busy_seconds += busy_s;
  tally.busy_energy_j +=
      perf::EnergyModel::busy_energy_j(device, dvfs_index, busy_s);
  return tally;
}

void Runtime::recover_attempt(Task& task, hw::DeviceId id) {
  // Health tracking first: this failure may quarantine the device, which
  // also decides where the retry itself may go.
  if (health_.note_failure(id, options_.retry.blacklist_after,
                           queue_.now() + options_.retry.probation_s)) {
    blacklist_device(id);
  }

  // Attempt budget under Drop: the task (and its dependent subtree) is
  // abandoned instead of aborting the run. Under Abort the existing
  // guard in start_next throws when the next attempt begins.
  if (options_.retry.on_exhausted == ExhaustionPolicy::Drop &&
      task.attempts() >= options_.retry.max_attempts) {
    abandon_task(task);
    pump_all();
    return;
  }

  // Exponential backoff with deterministic jitter: the retry re-enters
  // the system only after the delay. A zero delay requeues inline,
  // which keeps legacy runs (no backoff configured) byte-identical.
  double delay = 0.0;
  if (options_.retry.backoff_base_s > 0.0) {
    util::Rng jitter_rng =
        rng_.split(0x4000000000000000ULL ^ (task.id() * 131 + task.attempts()));
    delay = options_.retry.backoff_delay_s(task.attempts(), jitter_rng);
  }
  if (delay <= 0.0) {
    requeue_attempt(task, id);
    pump_all();
    return;
  }
  set_task_state(task, TaskState::Ready);  // in backoff limbo, owned by no queue
  queue_.schedule_after(delay, [this, &task, id] {
    if (task.state() != TaskState::Ready) {
      return;  // abandoned while backing off
    }
    requeue_attempt(task, id);
    pump_all();
  });
}

void Runtime::requeue_attempt(Task& task, hw::DeviceId device_id) {
  if (recorder_ != nullptr) {
    recorder_->devices().retry(device_id);
    obs::Event event;
    event.kind = obs::EventKind::Retry;
    event.time = queue_.now();
    event.device = static_cast<std::int64_t>(device_id);
    event.task = task.id();
    event.aux = task.attempts();
    event.name = task.name();
    recorder_->record(std::move(event));
  }
  FailurePolicy policy = options_.failure_policy;
  // A quarantined device cannot take its own retry: divert to the
  // scheduler so the task lands on a surviving device. (Blacklisting
  // requires a dynamic scheduler — enforced at construction.)
  if (policy == FailurePolicy::RetrySameDevice &&
      health_.blacklisted(device_id)) {
    policy = FailurePolicy::Reschedule;
  }
  switch (policy) {
    case FailurePolicy::RetrySameDevice: {
      const hw::Device& device = platform_->device(device_id);
      DeviceState& state = device_states_[device_id];
      set_task_state(task, TaskState::Queued);
      state.queue.push_front(&task);
      task.queued_est_s = exec_estimate(task, device, task.dvfs_state());
      state.queued_est_seconds += task.queued_est_s;
      if (recorder_ != nullptr) {
        recorder_->devices().queue_changed(device_id, queue_.now(),
                                           state.queue.size());
      }
      break;
    }
    case FailurePolicy::Reschedule: {
      // Runtime-boundary check: a rescheduled attempt re-enters
      // on_task_ready, which a static (full-graph) plan cannot absorb —
      // the policy would either trip a deep plan-table assertion or
      // silently hold the task forever and stall the run.
      if (scheduler_->requires_full_graph()) {
        throw InvalidArgument(util::format(
            "static scheduler '%s' cannot accept dynamically submitted "
            "tasks: FailurePolicy::Reschedule hands failed attempts back "
            "to the scheduler at run time; use "
            "FailurePolicy::RetrySameDevice or a dynamic policy",
            scheduler_->name().c_str()));
      }
      set_task_state(task, TaskState::Ready);
      task.set_dvfs_state(std::nullopt);
      scheduler_->on_task_failed(task, device_id);
      scheduler_->on_task_ready(task);
      break;
    }
  }
}

void Runtime::blacklist_device(hw::DeviceId device_id) {
  const hw::Device& device = platform_->device(device_id);
  DeviceState& state = device_states_[device_id];
  // Health transition (Healthy/Probation -> Blacklisted): drop the cost
  // memo so no estimate computed against the pre-quarantine device set
  // survives the transition.
  cost_cache_.invalidate();
  record_device_event(obs::EventKind::Blacklist, device_id);
  HETFLOW_DEBUG << "device " << device.name() << " blacklisted after "
                << health_.consecutive_failures(device_id)
                << " consecutive failures (probation in "
                << options_.retry.probation_s << " s)";

  // Hand the queued tasks back to the scheduler so the run degrades
  // onto the surviving devices instead of stalling behind the sick one.
  std::deque<Task*> orphaned;
  orphaned.swap(state.queue);
  state.queued_est_seconds = 0.0;
  for (Task* orphan : orphaned) {
    if (prefetched_.erase(orphan->id()) > 0) {
      data_.release_prefetch(orphan->accesses(), device.memory_node());
    }
    set_task_state(*orphan, TaskState::Ready);
    orphan->set_dvfs_state(std::nullopt);
    scheduler_->on_task_ready(*orphan);
  }

  // Probation timer: the device re-enters service tentatively — one
  // more failure before a success re-quarantines it immediately.
  state.probation_event =
      queue_.schedule_after(options_.retry.probation_s, [this, device_id] {
        device_states_[device_id].probation_event = 0;
        health_.end_blacklist(device_id);
        cost_cache_.invalidate();  // Blacklisted -> Probation transition
        record_device_event(obs::EventKind::Probation, device_id);
        pump_device(device_id);
      });
}

void Runtime::record_device_event(obs::EventKind kind, hw::DeviceId id) {
  if (recorder_ != nullptr) {
    obs::Event event;
    event.kind = kind;
    event.time = queue_.now();
    event.device = static_cast<std::int64_t>(id);
    event.name = platform_->device(id).name();
    recorder_->record(std::move(event));
  }
}

// ---------------------------------------------------------------------------
// Whole-node fault domains
// ---------------------------------------------------------------------------

void Runtime::fail_node(const NodeFault& fault) {
  ++stats_.node_failures;
  const sim::SimTime until =
      fault.recover_after >= 0.0
          ? queue_.now() + fault.recover_after
          : std::numeric_limits<sim::SimTime>::infinity();
  HETFLOW_DEBUG << "node fault at t=" << queue_.now() << ": "
                << fault.devices.size() << " devices, "
                << fault.memory_nodes.size() << " memory nodes"
                << (fault.recover_after >= 0.0 ? " (transient)"
                                               : " (permanent)");

  // 1. Quarantine every device first: all the work handed back below
  // must see the whole node gone, not a partially failed one.
  for (const hw::DeviceId id : fault.devices) {
    HETFLOW_REQUIRE_MSG(id < device_states_.size(),
                        "node fault device out of range");
    DeviceState& state = device_states_[id];
    if (state.probation_event != 0) {
      queue_.cancel(state.probation_event);
      state.probation_event = 0;
    }
    health_.quarantine(id, until);
    record_device_event(obs::EventKind::Blacklist, id);
  }
  cost_cache_.invalidate();

  // 2. Kill the in-flight attempts. Pins drop NOW — invalidate_node
  // zeroes the pin ledger below, so a release after the sweep would
  // unpin twice — but the scheduler handback is deferred until the data
  // layer is consistent again.
  std::vector<std::pair<TaskId, hw::DeviceId>> victims;
  for (const hw::DeviceId id : fault.devices) {
    DeviceState& state = device_states_[id];
    if (state.running == nullptr) {
      continue;
    }
    Task& victim = *state.running;
    state.running = nullptr;
    if (state.completion_event != 0) {
      queue_.cancel(state.completion_event);
      state.completion_event = 0;
    }
    if (state.watchdog_event != 0) {
      queue_.cancel(state.watchdog_event);
      state.watchdog_event = 0;
    }
    const hw::Device& device = platform_->device(id);
    data_.release(victim.accesses(), device.memory_node());
    const double busy_s = std::max(0.0, queue_.now() - victim.times().started);
    ++charge_attempt(device, dvfs_or_nominal(victim, device), busy_s)
          .failed_attempts;
    state.busy_until = queue_.now();
    if (busy_s > 0.0) {
      tracer_.add(trace::Span{victim.id(), victim.name(), id,
                              victim.times().started, queue_.now(),
                              trace::SpanKind::FailedExec});
    }
    // Off the device before the data sweep: recover_datum treats a
    // *Running* last writer as "regenerating naturally", which must not
    // match an attempt that just died with the node.
    set_task_state(victim, TaskState::Ready);
    victims.emplace_back(victim.id(), id);
  }

  // 3. Strand the queued work (prefetch pins dropped now, handback
  // deferred — same reason as above).
  std::vector<Task*> orphans;
  for (const hw::DeviceId id : fault.devices) {
    DeviceState& state = device_states_[id];
    std::deque<Task*> queued;
    queued.swap(state.queue);
    state.queued_est_seconds = 0.0;
    const hw::Device& device = platform_->device(id);
    for (Task* orphan : queued) {
      if (!prefetched_.empty() && prefetched_.erase(orphan->id()) > 0) {
        data_.release_prefetch(orphan->accesses(), device.memory_node());
      }
      set_task_state(*orphan, TaskState::Ready);
      orphan->set_dvfs_state(std::nullopt);
      orphans.push_back(orphan);
    }
  }

  // 4. The node's memories die with it: every replica there is gone,
  // and any datum whose LAST valid copy lived there is re-homed before
  // a consumer can dispatch.
  std::vector<data::DataId> lost;
  for (const hw::MemoryNodeId node : fault.memory_nodes) {
    HETFLOW_REQUIRE_MSG(node < dead_memory_.size(),
                        "node fault memory node out of range");
    dead_memory_[node] = true;
    const std::vector<data::DataId> node_lost = data_.invalidate_node(node);
    lost.insert(lost.end(), node_lost.begin(), node_lost.end());
  }
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  for (const data::DataId data : lost) {
    recover_datum(data);
  }

  // 5. Survivors pick up the pieces: victims re-enter through the
  // normal retry path (the quarantine diverts RetrySameDevice to
  // Reschedule), stranded queue entries go straight back.
  for (Task* orphan : orphans) {
    scheduler_->on_task_ready(*orphan);
  }
  for (const auto& [task_id, device_id] : victims) {
    recover_attempt(tasks_[task_id], device_id);
  }

  // 6. Transient faults: the devices re-enter on probation and the
  // memories come back empty (cold) at the same instant.
  if (fault.recover_after >= 0.0) {
    for (const hw::DeviceId id : fault.devices) {
      device_states_[id].probation_event =
          queue_.schedule_at(until, [this, id] {
            device_states_[id].probation_event = 0;
            health_.end_blacklist(id);
            cost_cache_.invalidate();
            record_device_event(obs::EventKind::Probation, id);
            pump_device(id);
          });
    }
    fault_events_.push_back(queue_.schedule_at(until, [this, &fault] {
      for (const hw::MemoryNodeId node : fault.memory_nodes) {
        dead_memory_[node] = false;
      }
    }));
  }
  pump_all();
}

void Runtime::recover_datum(data::DataId data) {
  if (pending_regen_.find(data) != pending_regen_.end()) {
    return;
  }
  const TaskId last_writer = handle_uses_[data].last_writer;
  if (last_writer != kInvalidTask) {
    const TaskState writer_state = task_states_[last_writer];
    if (writer_state != TaskState::Completed &&
        writer_state != TaskState::Abandoned) {
      // A not-yet-finished writer will produce the NEXT value of this
      // datum anyway. If it only writes, nobody can still need the lost
      // value (WAR ordering: all its readers completed before the
      // writer became ready) — nothing to regenerate. If it also reads,
      // it needs the old value back: fall through to resurrection and
      // let the dispatch park hold the writer until then.
      const Task& writer = tasks_[last_writer];
      bool reads_it = false;
      for (const data::Access& access : writer.accesses()) {
        if (access.data == data && data::is_read(access.mode)) {
          reads_it = true;
          break;
        }
      }
      if (!reads_it) {
        if (writer_state == TaskState::Running) {
          // Already executing on a surviving device; its completion
          // clears the entry (and releases anything parked meanwhile).
          pending_regen_.emplace(data, last_writer);
        }
        return;
      }
    }
  }
  const TaskId producer = last_completed_writer_.empty()
                              ? kInvalidTask
                              : last_completed_writer_[data];
  if (producer != kInvalidTask) {
    pending_regen_.emplace(data, producer);
    resurrect_writer(producer);
    return;
  }
  // Durable staged input: never produced by a task, so its content
  // survives outside the simulated memories. Re-materialize it on the
  // first surviving node that fits it.
  const std::uint64_t bytes = data_.registry().handle(data).bytes;
  for (hw::MemoryNodeId node = 0; node < dead_memory_.size(); ++node) {
    if (dead_memory_[node]) {
      continue;
    }
    if (platform_->memory_node(node).capacity_bytes() >= bytes) {
      data_.reseed(data, node, queue_.now());
      ++stats_.data_reseeded;
      return;
    }
  }
  throw InternalError(util::format(
      "no surviving memory node can host lost datum '%s' (%llu bytes)",
      std::string(data_.registry().handle(data).name).c_str(),
      static_cast<unsigned long long>(bytes)));
}

void Runtime::resurrect_writer(TaskId id) {
  Task& producer = tasks_[id];
  if (producer.state() != TaskState::Completed) {
    return;  // already back in flight for another lost datum
  }
  // Its own read inputs may have died with the same node: register
  // their regeneration first so the dispatch park sees the full
  // picture before this task can reach a device.
  for (const data::Access& access : producer.accesses()) {
    if (data::is_read(access.mode) &&
        data_.registry().handle(access.data).bytes > 0 &&
        !data_.directory().any_valid(access.data)) {
      recover_datum(access.data);
    }
  }
  first_run_times_.emplace(id, producer.times());
  set_task_state(producer, TaskState::Submitted);
  producer.set_dvfs_state(std::nullopt);
  ++pending_;
  ++stats_.tasks_resurrected;
  HETFLOW_DEBUG << "resurrecting producer '" << producer.name()
                << "' to regenerate data lost with a failed node";
  // Its dependency counters stay drained (the parents DID run);
  // ordering against consumers is enforced by the dispatch park, not
  // by graph edges.
  ready_or_defer(producer);
}

void Runtime::park_task(Task& task) {
  if (!prefetched_.empty() && prefetched_.erase(task.id()) > 0) {
    data_.release_prefetch(task.accesses(),
                           platform_->device(task.device()).memory_node());
  }
  set_task_state(task, TaskState::Submitted);
  task.set_dvfs_state(std::nullopt);
  parked_.push_back(task.id());
  ++stats_.tasks_parked;
  HETFLOW_DEBUG << "parking task '" << task.name()
                << "' until a lost input is regenerated";
}

void Runtime::release_parked() {
  if (parked_.empty()) {
    return;
  }
  // Swap out first: ready_or_defer can dispatch other work whose
  // begin_execution parks it, appending to parked_ mid-walk.
  std::vector<TaskId> sweep = std::move(parked_);
  parked_.clear();
  for (const TaskId id : sweep) {
    Task& task = tasks_[id];
    if (task.state() != TaskState::Submitted) {
      continue;  // abandoned while parked — drop it
    }
    bool blocked = false;
    for (const data::Access& access : task.accesses()) {
      const auto regen = pending_regen_.find(access.data);
      if (regen != pending_regen_.end() && regen->second != id) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      parked_.push_back(id);
    } else {
      ready_or_defer(task);
    }
  }
}

void Runtime::abandon_task(Task& task) {
  std::vector<Task*> frontier = {&task};
  while (!frontier.empty()) {
    Task* doomed = frontier.back();
    frontier.pop_back();
    if (doomed->state() == TaskState::Abandoned ||
        doomed->state() == TaskState::Completed) {
      continue;
    }
    HETFLOW_DEBUG << "abandoning task '" << doomed->name() << "' ("
                  << (doomed == &task ? "attempt budget exhausted"
                                      : "dependency abandoned")
                  << ")";
    set_task_state(*doomed, TaskState::Abandoned);
    ++stats_.tasks_lost;
    if (recorder_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::Abandon;
      event.time = queue_.now();
      event.task = doomed->id();
      event.name = doomed->name();
      recorder_->record(std::move(event));
    }
    HETFLOW_REQUIRE(pending_ > 0);
    --pending_;
    deferred_.erase(doomed->id());
    if (prefetched_.erase(doomed->id()) > 0) {
      data_.release_prefetch(
          doomed->accesses(),
          platform_->device(doomed->device()).memory_node());
    }
    if (!pending_regen_.empty()) {
      // A doomed regenerator strands its parked waiters: the lost value
      // can never come back, so they die with it.
      std::vector<data::DataId> stranded;
      for (const data::Access& access : doomed->accesses()) {
        if (!data::is_write(access.mode)) {
          continue;
        }
        const auto regen = pending_regen_.find(access.data);
        if (regen != pending_regen_.end() && regen->second == doomed->id()) {
          pending_regen_.erase(regen);
          stranded.push_back(access.data);
        }
      }
      if (!stranded.empty()) {
        for (const TaskId parked_id : parked_) {
          Task& waiter = tasks_[parked_id];
          if (waiter.state() != TaskState::Submitted) {
            continue;
          }
          const bool waits = std::any_of(
              waiter.accesses().begin(), waiter.accesses().end(),
              [&](const data::Access& access) {
                return std::find(stranded.begin(), stranded.end(),
                                 access.data) != stranded.end();
              });
          if (waits) {
            frontier.push_back(&waiter);
          }
        }
      }
    }
    for (TaskId dependent : dependents_[doomed->id()]) {
      frontier.push_back(&tasks_[dependent]);
    }
  }
}

double Runtime::exec_estimate(const Task& task, const hw::Device& device,
                              std::optional<std::size_t> dvfs) const {
  // The entry caches the exact analytic denominator (divided per call,
  // never its reciprocal) and the calibrated mean seconds-per-flop under
  // the history model's current version; the working set was summed once
  // at submit in access order. tests/memo_oracle.hpp checks every
  // scheduler-visible estimate against the direct formula bit for bit.
  const CostModelCache::Entry& entry = cost_cache_.entry(
      task.codelet(), device,
      options_.use_history_model ? &history_ : nullptr);
  if (!entry.fit().admits(task.working_set_bytes())) {
    return std::numeric_limits<double>::infinity();
  }
  double pure = 0.0;
  if (entry.hist_spf >= 0.0) {
    pure = entry.hist_spf * task.flops();
  } else if (task.flops() > 0.0) {
    pure = task.flops() / entry.denom;
  }
  const std::size_t index = dvfs.value_or(entry.nominal_dvfs);
  return entry.launch_overhead_s + pure * device.time_scale(index);
}

void Runtime::finalize_stats() {
  stats_.makespan_s = queue_.now();
  stats_.tasks_completed = 0;
  for (const TaskState state : task_states_) {
    if (state == TaskState::Completed) {
      ++stats_.tasks_completed;
    }
  }
  stats_.failed_attempts = 0;
  stats_.timeouts = 0;
  stats_.blacklist_events = 0;
  for (DeviceRunStats& device : stats_.devices) {
    device.blacklist_events = health_.blacklist_events(device.device);
    device.idle_energy_j = perf::EnergyModel::idle_energy_j(
        platform_->device(device.device),
        stats_.makespan_s - device.busy_seconds);
    stats_.failed_attempts += device.failed_attempts;
    stats_.timeouts += device.timeouts;
    stats_.blacklist_events += device.blacklist_events;
  }
  stats_.transfers = data_.transfers().stats();
  stats_.data = data_.stats();
  if (recorder_ == nullptr) {
    return;
  }

  // Publish. The stats are the one accumulator for every counter below;
  // assigning (never adding) keeps a later wave's re-publish exact, and
  // an entry appears only once its count is nonzero.
  obs::MetricsRegistry& metrics = recorder_->metrics();
  const auto publish = [&metrics](const char* name, std::uint64_t count,
                                  const obs::Labels& labels = {}) {
    if (count > 0) {
      metrics.counter(name, labels).set(static_cast<double>(count));
    }
  };
  metrics.gauge("makespan_s").set(stats_.makespan_s);
  metrics.gauge("events_executed").set(static_cast<double>(queue_.executed()));
  metrics.gauge("event_queue_peak_pending")
      .set(static_cast<double>(queue_.peak_pending()));
  for (const DeviceRunStats& device : stats_.devices) {
    const obs::Labels labels = device_labels(platform_->device(device.device));
    publish("tasks_completed", device.tasks_completed, labels);
    publish("failed_attempts", device.failed_attempts, labels);
    publish("timeouts", device.timeouts, labels);
    publish("blacklist_events", device.blacklist_events, labels);
    if (device.tasks_completed + device.failed_attempts > 0) {
      metrics.counter("busy_seconds", labels).set(device.busy_seconds);
      metrics.counter("busy_energy_j", labels).set(device.busy_energy_j);
    }
  }
  publish("node_failures", stats_.node_failures);
  publish("tasks_resurrected", stats_.tasks_resurrected);
  publish("tasks_parked", stats_.tasks_parked);
  publish("data_reseeded", stats_.data_reseeded);
  publish("tasks_lost", stats_.tasks_lost);
  const std::vector<data::DataManagerStats>& nodes = data_.node_stats();
  for (hw::MemoryNodeId src = 0; src < nodes.size(); ++src) {
    const std::string& name = platform_->memory_node(src).name();
    const obs::Labels labels = {{"node", name}};
    publish("fetches", nodes[src].fetches, labels);
    publish("prefetches", nodes[src].prefetches, labels);
    publish("evictions", nodes[src].evictions, labels);
    publish("writebacks", nodes[src].writebacks, labels);
    for (hw::MemoryNodeId dst = 0; dst < nodes.size(); ++dst) {
      const data::RouteStats& route = data_.transfers().route_stats(src, dst);
      if (route.transfers > 0) {
        const obs::Labels route_labels = {
            {"src", name}, {"dst", platform_->memory_node(dst).name()}};
        publish("transfers", route.transfers, route_labels);
        metrics.counter("bytes_transferred", route_labels)
            .set(static_cast<double>(route.bytes));
      }
    }
  }
}

}  // namespace hetflow::core
