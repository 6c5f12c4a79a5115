#include "serve/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/runtime.hpp"
#include "sched/registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hetflow::serve {

namespace {

/// One shared codelet for every serve job task: CPU- and GPU-capable so
/// all preset platforms can run it. Identity (the codelet id) is stable
/// per engine, which keeps per-batch cost caches and history keyed
/// consistently.
core::CodeletPtr make_serve_codelet() {
  return core::Codelet::make("serve-job", {{hw::DeviceType::Cpu, 0.5},
                                           {hw::DeviceType::Gpu, 0.8}});
}

}  // namespace

ServeEngine::ServeEngine(const hw::Platform& platform, ServeConfig config)
    : platform_(&platform),
      config_(std::move(config)),
      admission_(config_.admission) {
  HETFLOW_REQUIRE_MSG(config_.batch_limit > 0, "batch_limit must be >= 1");
  HETFLOW_REQUIRE_MSG(config_.max_in_flight > 0,
                      "max_in_flight must be >= 1");
  HETFLOW_REQUIRE_MSG(config_.backlog_cap > 0, "backlog_cap must be >= 1");
  // Validate the scheduler name eagerly (and that it is dynamic: serve
  // feeds batches incrementally, which full-graph planners cannot take).
  auto probe = sched::make_scheduler(config_.scheduler, config_.seed);
  HETFLOW_REQUIRE_MSG(
      !probe->requires_full_graph(),
      "serve requires a dynamic scheduler (dmda/dmdas/mct/...): '" +
          config_.scheduler + "' plans the full graph up front");
}

TenantId ServeEngine::add_tenant(TenantSpec spec) {
  if (spec.backlog_cap == 0) {
    spec.backlog_cap = config_.backlog_cap;
  }
  if (spec.max_in_flight == 0) {
    spec.max_in_flight = config_.max_in_flight;
  }
  if (spec.name.empty()) {
    spec.name = util::format("tenant-%zu", queue_.tenant_count());
  }
  if (config_.audit) {
    monitor_.add_tenant(spec.weight, spec.priority, spec.max_in_flight);
  }
  const TenantId id = queue_.add_tenant(std::move(spec));
  stats_.emplace_back();
  return id;
}

obs::Labels ServeEngine::tenant_labels(TenantId t) const {
  return {{"tenant", queue_.spec(t).name}};
}

Ticket ServeEngine::enqueue(TenantId t, const JobSpec& job,
                            AdmissionDecision decision) {
  Job record;
  record.tenant = t;
  record.spec = job;
  record.arrival = clock_;
  record.ticket = next_ticket_++;
  const JobRef ref = static_cast<JobRef>(jobs_.size());
  jobs_.push_back(record);
  if (decision == AdmissionDecision::Admitted) {
    queue_.push(t, ref);
    if (config_.audit) {
      monitor_.on_admit(t);
    }
    ++stats_[t].admitted;
  } else {
    overflow_.push_back(ref);
    ++stats_[t].deferred;
  }
  return Ticket{decision, record.ticket};
}

Ticket ServeEngine::submit(TenantId t, const JobSpec& job) {
  HETFLOW_REQUIRE_MSG(t < queue_.tenant_count(), "unknown tenant id");
  ++stats_[t].submitted;
  const AdmissionDecision decision =
      admission_.decide(queue_.backlog_size(t), queue_.spec(t).backlog_cap,
                        total_pending(), overflow_.size());
  if (config_.metrics) {
    metrics_.counter(std::string("serve_") + to_string(decision),
                     tenant_labels(t))
        .inc();
  }
  if (decision == AdmissionDecision::Rejected) {
    ++stats_[t].rejected;
    return Ticket{decision, 0};
  }
  return enqueue(t, job, decision);
}

void ServeEngine::drain_overflow() {
  // Strict FIFO: the head moves only when both the global budget and its
  // tenant's cap have room. Head-of-line blocking on a full tenant is
  // transient — every batch shrinks that tenant's backlog.
  while (!overflow_.empty()) {
    const JobRef ref = overflow_.front();
    const TenantId t = jobs_[ref].tenant;
    if (queue_.total_backlog() >= admission_.limits().max_pending ||
        queue_.backlog_size(t) >= queue_.spec(t).backlog_cap) {
      break;
    }
    overflow_.pop_front();
    queue_.push(t, ref);
    if (config_.audit) {
      monitor_.on_admit(t);
    }
    ++stats_[t].admitted;
  }
}

std::vector<core::TaskId> ServeEngine::materialize(core::Runtime& rt,
                                                   const Job& job) const {
  static const core::CodeletPtr codelet = make_serve_codelet();
  const JobSpec& spec = job.spec;
  const double priority =
      static_cast<double>(queue_.spec(job.tenant).priority);
  const std::string prefix = util::format("j%llu", static_cast<unsigned long long>(job.ticket));
  std::vector<core::TaskId> tasks;
  tasks.reserve(spec.tasks);
  const auto data_name = [&](std::uint32_t i) {
    return util::format("%s.d%u", prefix.c_str(), i);
  };
  const auto task_name = [&](std::uint32_t i) {
    return util::format("%s.t%u", prefix.c_str(), i);
  };
  switch (spec.shape) {
    case JobShape::Chain: {
      // Every task read-writes one handle: a serial dependency chain.
      const data::DataId h = rt.register_data(data_name(0), spec.bytes);
      for (std::uint32_t i = 0; i < spec.tasks; ++i) {
        tasks.push_back(rt.submit(task_name(i), codelet, spec.flops,
                                  {{h, data::AccessMode::ReadWrite}},
                                  priority));
      }
      break;
    }
    case JobShape::Fanout: {
      // One producer, tasks-1 parallel readers.
      const data::DataId h = rt.register_data(data_name(0), spec.bytes);
      tasks.push_back(rt.submit(task_name(0), codelet, spec.flops,
                                {{h, data::AccessMode::Write}}, priority));
      for (std::uint32_t i = 1; i < spec.tasks; ++i) {
        tasks.push_back(rt.submit(task_name(i), codelet, spec.flops,
                                  {{h, data::AccessMode::Read}}, priority));
      }
      break;
    }
    case JobShape::Diamond: {
      // Producer -> (tasks-2) middles -> joining consumer. Degenerates
      // gracefully: tasks<=2 becomes a chain through the source handle.
      const data::DataId src = rt.register_data(data_name(0), spec.bytes);
      tasks.push_back(rt.submit(task_name(0), codelet, spec.flops,
                                {{src, data::AccessMode::Write}}, priority));
      std::vector<data::Access> join;
      for (std::uint32_t i = 1; i + 1 < spec.tasks; ++i) {
        const data::DataId mid = rt.register_data(data_name(i), spec.bytes);
        tasks.push_back(rt.submit(
            task_name(i), codelet, spec.flops,
            {{src, data::AccessMode::Read}, {mid, data::AccessMode::Write}},
            priority));
        join.push_back({mid, data::AccessMode::Read});
      }
      if (spec.tasks >= 2) {
        if (join.empty()) {
          join.push_back({src, data::AccessMode::Read});
        }
        tasks.push_back(rt.submit(
            task_name(spec.tasks - 1), codelet, spec.flops,
            std::span<const data::Access>(join.data(), join.size()),
            priority));
      }
      break;
    }
  }
  return tasks;
}

BatchResult ServeEngine::run_batch() {
  drain_overflow();
  const std::size_t pending_before = queue_.total_backlog();
  queue_.begin_batch();
  if (config_.audit) {
    monitor_.begin_batch();
  }

  // Fair-share release loop: repeatedly take the rule's pick until the
  // batch is full or nobody is eligible.
  std::vector<JobRef> released;
  while (released.size() < config_.batch_limit) {
    const TenantId t = queue_.next_tenant();
    if (t == kInvalidTenant) {
      break;
    }
    if (config_.audit) {
      monitor_.on_release(t);
    }
    released.push_back(queue_.pop(t));
  }

  BatchResult result;
  result.released = released.size();
  if (released.empty()) {
    if (config_.audit) {
      monitor_.end_batch(0, pending_before);
    }
    return result;
  }

  // One fresh runtime per batch on the shared platform (see header).
  core::RuntimeOptions options;
  options.seed = util::hash_combine(config_.seed, batches_);
  options.validate = config_.validate;
  core::Runtime rt(*platform_,
                   sched::make_scheduler(config_.scheduler, options.seed),
                   options);

  std::vector<std::vector<core::TaskId>> job_tasks;
  job_tasks.reserve(released.size());
  for (const JobRef ref : released) {
    job_tasks.push_back(materialize(rt, jobs_[ref]));
  }
  const double makespan = rt.wait_all();

  // Attribution: per-job completion time and per-tenant device-seconds
  // (successful-attempt spans; serve batches run with faults off, so
  // these reconcile exactly with RunStats busy time).
  double batch_device_seconds = 0.0;
  std::uint64_t batch_tasks = 0;
  for (std::size_t i = 0; i < released.size(); ++i) {
    const Job& job = jobs_[released[i]];
    TenantStats& stats = stats_[job.tenant];
    double job_done = 0.0;
    double job_seconds = 0.0;
    for (const core::TaskId id : job_tasks[i]) {
      const core::Task& task = rt.task(id);
      job_done = std::max(job_done, task.times().completed);
      job_seconds += task.times().completed - task.times().started;
      ++batch_tasks;
    }
    ++stats.completed;
    stats.tasks_completed += job_tasks[i].size();
    stats.device_seconds += job_seconds;
    stats.latency.add(clock_ + job_done - job.arrival);
    batch_device_seconds += job_seconds;
    queue_.note_consumed(job.tenant, job_seconds);
    if (config_.audit) {
      monitor_.on_consume(job.tenant, job_seconds);
    }
    if (config_.metrics) {
      metrics_.counter("serve_completed", tenant_labels(job.tenant)).inc();
      metrics_.counter("serve_device_seconds", tenant_labels(job.tenant))
          .inc(job_seconds);
    }
  }

  result.tasks = batch_tasks;
  result.makespan_s = makespan;
  result.device_seconds = batch_device_seconds;
  clock_ += makespan;
  ++batches_;

  if (config_.audit) {
    monitor_.end_batch(released.size(), pending_before);
    monitor_.reconcile_batch(batch_tasks, rt.stats().tasks_completed,
                             batch_device_seconds,
                             rt.stats().total_busy_seconds());
  }
  return result;
}

std::size_t ServeEngine::run_until_drained() {
  std::size_t batches = 0;
  while (total_pending() > 0) {
    const BatchResult result = run_batch();
    ++batches;
    if (result.released == 0) {
      // Nothing eligible despite pending work — impossible by
      // construction (caps are >= 1); surface rather than spin.
      note_drained();
      throw util::InternalError("serve drain wedged with pending work");
    }
  }
  note_drained();
  return batches;
}

std::string ServeEngine::latency_csv() const {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"tenant", "name", "weight", "priority", "submitted",
              "admitted", "deferred", "rejected", "completed", "tasks",
              "device_seconds", "mean_latency_s", "p50_latency_s",
              "p99_latency_s"});
  for (TenantId t = 0; t < queue_.tenant_count(); ++t) {
    const TenantSpec& spec = queue_.spec(t);
    const TenantStats& stats = stats_[t];
    const bool has = !stats.latency.empty();
    csv.row({util::format("%u", static_cast<unsigned>(t)), spec.name,
             util::format("%.6g", spec.weight),
             util::format("%d", spec.priority),
             util::format("%llu", static_cast<unsigned long long>(stats.submitted)),
             util::format("%llu", static_cast<unsigned long long>(stats.admitted)),
             util::format("%llu", static_cast<unsigned long long>(stats.deferred)),
             util::format("%llu", static_cast<unsigned long long>(stats.rejected)),
             util::format("%llu", static_cast<unsigned long long>(stats.completed)),
             util::format("%llu", static_cast<unsigned long long>(stats.tasks_completed)),
             util::format("%.6g", stats.device_seconds),
             util::format("%.6g", has ? stats.latency.mean() : 0.0),
             util::format("%.6g", has ? stats.latency.quantile(0.5) : 0.0),
             util::format("%.6g", has ? stats.latency.quantile(0.99) : 0.0)});
  }
  return out.str();
}

// --- checkpoint / resume ----------------------------------------------------

namespace {

util::Json job_to_json(const JobSpec& spec, double arrival,
                       std::uint64_t ticket, TenantId tenant) {
  util::Json out = util::Json::object();
  out["tenant"] = static_cast<std::size_t>(tenant);
  out["shape"] = to_string(spec.shape);
  out["tasks"] = static_cast<std::size_t>(spec.tasks);
  out["flops"] = spec.flops;
  out["bytes"] = spec.bytes;
  out["arrival"] = arrival;
  out["ticket"] = static_cast<std::size_t>(ticket);
  return out;
}

}  // namespace

void ServeEngine::save_checkpoint(const std::string& path,
                                  std::size_t script_pos) const {
  util::Json doc = util::Json::object();
  doc["version"] = 1;
  doc["seed"] = config_.seed;
  doc["scheduler"] = config_.scheduler;
  doc["clock"] = clock_;
  doc["batches"] = batches_;
  doc["next_ticket"] = static_cast<std::size_t>(next_ticket_);
  doc["script_pos"] = script_pos;

  util::Json tenants = util::Json::array();
  for (TenantId t = 0; t < queue_.tenant_count(); ++t) {
    const TenantSpec& spec = queue_.spec(t);
    const TenantStats& stats = stats_[t];
    util::Json entry = util::Json::object();
    entry["name"] = spec.name;
    entry["weight"] = spec.weight;
    entry["priority"] = spec.priority;
    entry["backlog_cap"] = spec.backlog_cap;
    entry["max_in_flight"] = spec.max_in_flight;
    entry["submitted"] = static_cast<std::size_t>(stats.submitted);
    entry["admitted"] = static_cast<std::size_t>(stats.admitted);
    entry["deferred"] = static_cast<std::size_t>(stats.deferred);
    entry["rejected"] = static_cast<std::size_t>(stats.rejected);
    entry["completed"] = static_cast<std::size_t>(stats.completed);
    entry["tasks_completed"] =
        static_cast<std::size_t>(stats.tasks_completed);
    entry["device_seconds"] = stats.device_seconds;
    entry["consumed"] = queue_.consumed(t);
    util::Json latencies = util::Json::array();
    for (const double v : stats.latency.values()) {
      latencies.push_back(v);
    }
    entry["latencies"] = std::move(latencies);
    tenants.push_back(std::move(entry));
  }
  doc["tenants"] = std::move(tenants);

  // Queued work: per-tenant backlogs in FIFO order, then overflow. Job
  // table refs are rebuilt densely on load.
  util::Json backlogs = util::Json::array();
  for (TenantId t = 0; t < queue_.tenant_count(); ++t) {
    for (const JobRef ref : queue_.backlog(t)) {
      backlogs.push_back(job_to_json(jobs_[ref].spec, jobs_[ref].arrival,
                                     jobs_[ref].ticket, jobs_[ref].tenant));
    }
  }
  doc["backlog"] = std::move(backlogs);

  util::Json overflow = util::Json::array();
  for (const JobRef ref : overflow_) {
    overflow.push_back(job_to_json(jobs_[ref].spec, jobs_[ref].arrival,
                                   jobs_[ref].ticket, jobs_[ref].tenant));
  }
  doc["overflow"] = std::move(overflow);

  // Campaign-style atomic write: temp file then rename.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    HETFLOW_REQUIRE_MSG(out.good(), "cannot write checkpoint: " + tmp);
    out << doc.dump_pretty() << "\n";
  }
  HETFLOW_REQUIRE_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                      "cannot rename checkpoint into place: " + path);
}

std::size_t ServeEngine::load_checkpoint(const std::string& path,
                                         ServeEngine& engine) {
  std::ifstream in(path);
  HETFLOW_REQUIRE_MSG(in.good(), "cannot read checkpoint: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::Json doc = util::Json::parse(buffer.str());
  HETFLOW_REQUIRE_MSG(doc.at("version").as_number() == 1.0,
                      "unsupported serve checkpoint version");
  HETFLOW_REQUIRE_MSG(
      engine.queue_.tenant_count() == 0 && engine.jobs_.empty(),
      "load_checkpoint requires a fresh engine");

  engine.clock_ = doc.at("clock").as_number();
  engine.batches_ =
      static_cast<std::size_t>(doc.at("batches").as_number());
  engine.next_ticket_ =
      static_cast<std::uint64_t>(doc.at("next_ticket").as_number());

  for (const util::Json& entry : doc.at("tenants").as_array()) {
    TenantSpec spec;
    spec.name = entry.at("name").as_string();
    spec.weight = entry.at("weight").as_number();
    spec.priority = static_cast<int>(entry.at("priority").as_number());
    spec.backlog_cap =
        static_cast<std::size_t>(entry.at("backlog_cap").as_number());
    spec.max_in_flight =
        static_cast<std::size_t>(entry.at("max_in_flight").as_number());
    const TenantId t = engine.add_tenant(std::move(spec));
    TenantStats& stats = engine.stats_[t];
    stats.submitted =
        static_cast<std::uint64_t>(entry.at("submitted").as_number());
    stats.admitted =
        static_cast<std::uint64_t>(entry.at("admitted").as_number());
    stats.deferred =
        static_cast<std::uint64_t>(entry.at("deferred").as_number());
    stats.rejected =
        static_cast<std::uint64_t>(entry.at("rejected").as_number());
    stats.completed =
        static_cast<std::uint64_t>(entry.at("completed").as_number());
    stats.tasks_completed = static_cast<std::uint64_t>(
        entry.at("tasks_completed").as_number());
    stats.device_seconds = entry.at("device_seconds").as_number();
    for (const util::Json& v : entry.at("latencies").as_array()) {
      stats.latency.add(v.as_number());
    }
    engine.queue_.note_consumed(t, entry.at("consumed").as_number());
    if (engine.config_.audit) {
      engine.monitor_.restore_consumption(t, entry.at("consumed").as_number());
    }
  }

  const auto restore_job = [&engine](const util::Json& entry,
                                     bool to_overflow) {
    Job job;
    job.tenant =
        static_cast<TenantId>(entry.at("tenant").as_number());
    job.spec.shape = parse_job_shape(entry.at("shape").as_string());
    job.spec.tasks =
        static_cast<std::uint32_t>(entry.at("tasks").as_number());
    job.spec.flops = entry.at("flops").as_number();
    job.spec.bytes =
        static_cast<std::uint64_t>(entry.at("bytes").as_number());
    job.arrival = entry.at("arrival").as_number();
    job.ticket = static_cast<std::uint64_t>(entry.at("ticket").as_number());
    const JobRef ref = static_cast<JobRef>(engine.jobs_.size());
    engine.jobs_.push_back(job);
    if (to_overflow) {
      engine.overflow_.push_back(ref);
    } else {
      engine.queue_.push(job.tenant, ref);
      if (engine.config_.audit) {
        engine.monitor_.on_admit(job.tenant);
      }
    }
  };
  for (const util::Json& entry : doc.at("backlog").as_array()) {
    restore_job(entry, false);
  }
  for (const util::Json& entry : doc.at("overflow").as_array()) {
    restore_job(entry, true);
  }
  return static_cast<std::size_t>(doc.at("script_pos").as_number());
}

// --- script replay ----------------------------------------------------------

ScriptRunResult run_script(ServeEngine& engine, const ServeScript& script,
                           std::size_t start_op,
                           const std::string& checkpoint_path,
                           std::size_t max_batches) {
  ScriptRunResult result;
  for (std::size_t pos = start_op; pos < script.size(); ++pos) {
    const ScriptOp& op = script[pos];
    switch (op.kind) {
      case ScriptOp::Kind::Tenant:
        engine.add_tenant(op.tenant);
        break;
      case ScriptOp::Kind::Submit:
        for (std::uint32_t i = 0; i < op.count; ++i) {
          engine.submit(op.target, op.job);
        }
        break;
      case ScriptOp::Kind::Batch:
        engine.run_batch();
        ++result.batches;
        if (!checkpoint_path.empty()) {
          engine.save_checkpoint(checkpoint_path, pos + 1);
        }
        if (max_batches > 0 && result.batches >= max_batches) {
          result.ops_applied = pos + 1;
          result.stopped_early = true;
          return result;
        }
        break;
      case ScriptOp::Kind::Drain:
        while (engine.total_pending() > 0) {
          const BatchResult batch = engine.run_batch();
          if (batch.released == 0) {
            engine.note_drained();
            throw util::InternalError(
                "serve drain wedged with pending work");
          }
          ++result.batches;
          if (!checkpoint_path.empty()) {
            // Mid-drain checkpoints resume at the SAME drain op; the
            // drain loop is idempotent over an emptier queue.
            engine.save_checkpoint(checkpoint_path, pos);
          }
          if (max_batches > 0 && result.batches >= max_batches) {
            result.ops_applied = pos;
            result.stopped_early = true;
            return result;
          }
        }
        engine.note_drained();
        if (!checkpoint_path.empty()) {
          engine.save_checkpoint(checkpoint_path, pos + 1);
        }
        break;
    }
    result.ops_applied = pos + 1;
  }
  return result;
}

}  // namespace hetflow::serve
