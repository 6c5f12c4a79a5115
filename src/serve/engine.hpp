// ServeEngine — long-lived multi-tenant workflow-as-a-service front end.
//
// One engine owns one shared simulated platform and serves workflow-DAG
// submissions from many tenants. The lifecycle is a repeating loop:
//
//   submit*  ->  run_batch  ->  submit*  ->  run_batch  ->  ...
//
// Submissions pass admission control (serve/admission.hpp) into
// per-tenant backlogs; run_batch drains the overflow queue, releases up
// to batch_limit jobs in weighted fair-share order (serve/fair_share.hpp)
// and executes them on a FRESH core::Runtime bound to the shared
// platform, with the engine's monotonically accumulating service clock
// advancing by each batch's makespan.
//
// Why a fresh runtime per batch instead of one persistent runtime: the
// runtime's task pool is append-only (a server alive for 10^6 workflows
// would hold every task ever run), its clock cannot be restored on
// resume, and per-batch independence makes the engine state between
// batches a small, JSON-serializable value — service clock, tenant
// ledgers, queued jobs, ticket counter — which is exactly what the
// campaign-style write-then-rename checkpoint (save/load) persists for
// byte-identical kill-and-resume. The trade-off (device queues and data
// residency drain between batches) is documented in docs/serving.md.
//
// Determinism: every decision is a pure function of (config, submission
// order); per-batch runtimes are seeded hash_combine(seed, batch_index).
// Two engines fed the same script produce byte-identical latency CSVs —
// including across --jobs 1 vs --jobs N replica parallelism, since each
// replica owns its engine and platform outright.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "hw/platform.hpp"
#include "serve/admission.hpp"
#include "serve/audit.hpp"
#include "serve/fair_share.hpp"
#include "serve/protocol.hpp"
#include "serve/tenant.hpp"

namespace hetflow::core {
class Runtime;
}  // namespace hetflow::core

namespace hetflow::serve {

struct ServeConfig {
  std::string scheduler = "dmdas";
  std::uint64_t seed = 1;
  /// Max jobs released into one execution batch.
  std::size_t batch_limit = 256;
  /// Default per-tenant backlog cap (TenantSpec::backlog_cap overrides).
  std::size_t backlog_cap = 64;
  /// Default per-tenant per-batch release cap (spec overrides).
  std::size_t max_in_flight = 4;
  AdmissionController::Limits admission;
  /// Runs the FairnessMonitor mirror alongside every operation.
  bool audit = false;
  /// End-of-batch runtime validation (check::audit_run) — slow; tests.
  bool validate = false;
};

/// Submission receipt.
struct Ticket {
  AdmissionDecision decision = AdmissionDecision::Rejected;
  std::uint64_t id = 0;  ///< engine-unique job id (valid unless rejected)
};

/// One executed batch, summarized.
struct BatchResult {
  std::size_t released = 0;      ///< jobs that entered the batch
  std::size_t tasks = 0;         ///< tasks completed
  double makespan_s = 0.0;       ///< batch runtime makespan
  double device_seconds = 0.0;   ///< attributed execution time
};

class ServeEngine {
 public:
  ServeEngine(const hw::Platform& platform, ServeConfig config);

  const ServeConfig& config() const noexcept { return config_; }

  /// Registers a tenant (0-defaults in `spec` inherit the config).
  TenantId add_tenant(TenantSpec spec);
  std::size_t tenant_count() const noexcept {
    return queue_.tenant_count();
  }
  const TenantStats& stats(TenantId t) const { return stats_.at(t); }
  const TenantSpec& spec(TenantId t) const { return queue_.spec(t); }

  /// Submits one workflow on behalf of `t`; admission decides its fate.
  Ticket submit(TenantId t, const JobSpec& job);

  /// Total jobs queued (backlogs + overflow) — the backpressure signal.
  std::size_t total_pending() const noexcept {
    return queue_.total_backlog() + overflow_.size();
  }
  std::size_t overflow_size() const noexcept { return overflow_.size(); }

  /// Releases and executes one batch. No-op (released == 0) when
  /// nothing is queued.
  BatchResult run_batch();
  /// Runs batches until every queue is empty. Returns batches run.
  std::size_t run_until_drained();
  /// Audit hook for callers that loop run_batch() themselves: records
  /// that a drain claimed completion (violation if work is still queued).
  void note_drained() {
    if (config_.audit) {
      monitor_.on_drained(total_pending());
    }
  }

  /// Service clock: sum of executed batch makespans, seconds.
  double clock() const noexcept { return clock_; }
  std::size_t batches_run() const noexcept { return batches_; }

  /// Per-tenant latency/accounting table, sorted by tenant id — the
  /// byte-compared artifact of the determinism property tests.
  std::string latency_csv() const;
  /// Per-tenant serve_* counters as an obs::MetricsRegistry JSON
  /// snapshot, built from the tenant ledgers on each call.
  std::string metrics_json() const;

  /// Fairness audit report (empty/passing when config.audit is off).
  /// Finalizes coverage notes; call once at end of service.
  const check::CheckReport& audit_report() { return monitor_.finish(); }
  const FairnessMonitor& monitor() const noexcept { return monitor_; }

  // --- checkpoint / resume ------------------------------------------------
  /// Serializes engine state (clock, ledgers, queued jobs, `script_pos`)
  /// and writes it atomically (write-then-rename), campaign-style.
  void save_checkpoint(const std::string& path,
                       std::size_t script_pos) const;
  /// Restores an engine from a checkpoint written by save_checkpoint
  /// against the same platform/config. Returns the stored script_pos.
  static std::size_t load_checkpoint(const std::string& path,
                                     ServeEngine& engine);

 private:
  struct Job {
    TenantId tenant = kInvalidTenant;
    JobSpec spec;
    double arrival = 0.0;     ///< service-clock time of admission
    std::uint64_t ticket = 0;
  };

  void drain_overflow();
  Ticket enqueue(TenantId t, const JobSpec& job, AdmissionDecision decision);
  /// Materializes `job` on `rt`, returns the submitted TaskIds.
  std::vector<core::TaskId> materialize(core::Runtime& rt,
                                        const Job& job) const;

  const hw::Platform* platform_;
  ServeConfig config_;
  AdmissionController admission_;
  FairShareQueue queue_;
  std::vector<TenantStats> stats_;
  /// All live (queued) jobs; refs index this table. Entries for released
  /// jobs are retired lazily (swap-free, table compacts per checkpoint).
  std::vector<Job> jobs_;
  std::deque<JobRef> overflow_;
  FairnessMonitor monitor_;
  double clock_ = 0.0;
  std::size_t batches_ = 0;
  std::uint64_t next_ticket_ = 0;
};

/// Pure convenience used by the tool, benches and property tests: builds
/// an engine, replays `script` (optionally from `start_op`, resuming from
/// `resume_from` when non-empty), optionally checkpointing after every
/// batch, and stops after `max_batches` batch ops (0 = no limit).
struct ScriptRunResult {
  std::size_t ops_applied = 0;
  std::size_t batches = 0;
  bool stopped_early = false;  ///< hit max_batches before script end
};
ScriptRunResult run_script(ServeEngine& engine, const ServeScript& script,
                           std::size_t start_op = 0,
                           const std::string& checkpoint_path = {},
                           std::size_t max_batches = 0);

}  // namespace hetflow::serve
