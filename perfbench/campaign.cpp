// Pegasus campaign workloads: pegasus-hpc, pegasus-workstation and
// cluster-observed.
//
// A campaign is a seeded list of Pegasus-shaped workflows. The client is
// a closed loop: it builds the next workflow's Runtime and submits it
// only after the previous workflow's wait_all() (and, on the cluster,
// its audit and exports) returned. One pass runs the whole list; the
// run repeats passes until --seconds have elapsed, and every pass must
// reproduce the first pass's simulated results bit for bit.
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "check/audit.hpp"
#include "check/cluster.hpp"
#include "check/invariants.hpp"
#include "core/runtime.hpp"
#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "workflow/codelets.hpp"
#include "workflow/spec.hpp"
#include "workflow/workflow.hpp"

namespace perfbench {

namespace {

using namespace hetflow;

enum class Target { Hpc, Workstation, Cluster };

/// One generator at a nominal size. `args` are the generator's spec
/// arguments; args[size_arg] is the one the seed jitters.
struct Nominal {
  const char* generator;
  std::vector<double> args;
  std::size_t size_arg;
  double scale;
};

/// Relative size jitter drawn per entry (cholesky's nt enters cubed, so
/// it gets a third of it). At ±3 % job latency p50/p99 spread by about a
/// tenth between seeds, against a few percent between runs of one seed.
constexpr double kJitter = 0.015;

// Sizes per target, chosen for the premise each workload checks:
// pegasus-hpc stays below the point where a 32 GiB HBM spills
// (montage:3000 already evicts), so eviction does no work; on the
// workstation every working set exceeds the 16 GiB GPU but fits the
// 64 GiB host DRAM; on the cluster each workflow stays small enough for
// the validator's happens-before closure.
const std::vector<Nominal>& nominals(Target target) {
  static const std::vector<Nominal> hpc = {
      {"montage", {250}, 0, 1.0},        {"montage", {800}, 0, 1.0},
      {"montage", {2000}, 0, 1.0},       {"epigenomics", {4, 250}, 1, 1.0},
      {"epigenomics", {8, 500}, 1, 1.0}, {"epigenomics", {12, 1000}, 1, 1.0},
      {"cybershake", {20, 50}, 0, 1.0},  {"cybershake", {100, 50}, 0, 1.0},
      {"cybershake", {300, 50}, 0, 1.0}, {"ligo", {1000, 8}, 0, 1.0},
      {"ligo", {3000, 8}, 0, 1.0},       {"ligo", {7000, 8}, 0, 1.0},
      {"sipht", {100, 8}, 0, 1.0},       {"sipht", {500, 8}, 0, 1.0},
      {"sipht", {2000, 8}, 0, 1.0},      {"cholesky", {18, 1024}, 0, 1.0},
      {"cholesky", {28, 512}, 0, 1.0},   {"cholesky", {40, 512}, 0, 1.0},
  };
  static const std::vector<Nominal> workstation = {
      {"montage", {1500}, 0, 1.0},       {"epigenomics", {8, 250}, 1, 40.0},
      {"cybershake", {100, 40}, 0, 2.0}, {"ligo", {2000, 8}, 0, 2.0},
      {"sipht", {500, 8}, 0, 25.0},      {"cholesky", {24, 1024}, 0, 1.0},
  };
  static const std::vector<Nominal> cluster = {
      {"montage", {1000}, 0, 1.0},      {"epigenomics", {8, 400}, 1, 1.0},
      {"cybershake", {80, 50}, 0, 1.0}, {"ligo", {3000, 8}, 0, 1.0},
      {"sipht", {500, 8}, 0, 1.0},      {"cholesky", {24, 512}, 0, 1.0},
  };
  switch (target) {
    case Target::Hpc:
      return hpc;
    case Target::Workstation:
      return workstation;
    case Target::Cluster:
      break;
  }
  return cluster;
}

struct Entry {
  std::string spec;  ///< workflow::make_workflow_from_spec spec
  double scale = 1.0;
  std::uint64_t runtime_seed = 0;
};

/// The seeded campaign: every nominal once, in a fixed order, each size
/// jittered and each entry given its own runtime seed.
std::vector<Entry> make_campaign(Target target, std::uint64_t seed) {
  util::Rng rng(util::hash_combine(seed, 0x7065676173ULL));
  std::vector<Entry> entries;
  for (const Nominal& nominal : nominals(target)) {
    std::vector<double> args = nominal.args;
    const double jitter = nominal.generator == std::string("cholesky")
                              ? kJitter / 3.0
                              : kJitter;
    args[nominal.size_arg] = std::max(
        1.0, std::round(args[nominal.size_arg] *
                        (1.0 + jitter * (2.0 * rng.uniform() - 1.0))));
    std::string spec = nominal.generator;
    for (std::size_t i = 0; i < args.size(); ++i) {
      spec += i == 0 ? ':' : ',';
      spec += std::to_string(static_cast<long>(args[i]));
    }
    entries.push_back({spec, nominal.scale, 0});
  }
  for (Entry& entry : entries) {
    entry.runtime_seed = rng() >> 1;
  }
  return entries;
}

/// One pass's layer counts and host ns (the scheduler/context buckets in
/// `ctx` fill only on traced passes).
struct LayerSums {
  LayerCounters ctx;
  std::int64_t submit_ns = 0;
  std::int64_t wait_ns = 0;
  std::uint64_t cost_cache_invalidations = 0;
  std::uint64_t fetches = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t spans = 0;
  std::uint64_t obs_events = 0;
  std::uint64_t decisions = 0;
  std::uint64_t tasks = 0;
};

/// What one pass over the campaign produced.
struct Pass {
  std::uint64_t tasks = 0;
  std::uint64_t workflows = 0;
  std::uint64_t failed = 0;
  // Host times below are rescaled to the reference speed (HostSpeed).
  double measured_s = 0.0;  ///< sum of first-submit..result host time
  double raw_s = 0.0;       ///< measured_s as the wall clock read it
  double setup_s = 0.0;     ///< platform + generation + Runtime ctors
  double generate_ms = 0.0;
  double construct_ms = 0.0;
  double audit_ms = 0.0;
  double cluster_ms = 0.0;
  double export_ms = 0.0;
  double export_mb = 0.0;
  double series = 0.0;
  double makespan_s = 0.0;
  std::vector<double> job_ms;       ///< per entry, host
  std::vector<double> makespans_s;  ///< per entry, simulated
  Digest digest;
  LayerSums layers;
  bool traced = false;
};

struct Platforms {
  std::optional<hw::Cluster> cluster;
  std::optional<hw::Platform> node;
  const hw::Platform& platform() const {
    return cluster ? cluster->platform() : *node;
  }
};

Platforms build_platform(Target target) {
  Platforms p;
  switch (target) {
    case Target::Hpc:
      p.node = hw::make_hpc_node(16, 4);
      break;
    case Target::Workstation:
      p.node = hw::make_workstation();
      break;
    case Target::Cluster:
      p.cluster = hw::make_hpc_cluster(16, 4, 1, 1.25);
      break;
  }
  return p;
}

Pass run_pass(Target target, const std::vector<Entry>& entries,
              const workflow::CodeletLibrary& library, bool traced,
              std::size_t pass_index, HostSpeed& speed, Outcome& out) {
  Pass pass;
  // Each entry is bracketed by host-speed probes; its host times are
  // rescaled by the mean of the two. The platform build shares the first
  // entry's bracket.
  double speed_before = speed.probe(0);
  Clock::time_point bracket_start = Clock::now();
  const Platforms platforms = build_platform(target);
  const hw::Platform& platform = platforms.platform();
  double platform_s = seconds_between(bracket_start, Clock::now());
  const std::uint64_t host_bytes = platform.memory_node(0).capacity_bytes();

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    const std::uint64_t job_id = pass_index * entries.size() + i;
    try {
      const Clock::time_point gen_start = Clock::now();
      const workflow::Workflow wf =
          workflow::make_workflow_from_spec(entry.spec, entry.scale);
      const Clock::time_point gen_end = Clock::now();
      if (target == Target::Workstation) {
        out.check(wf.total_bytes() > platform.memory_node(1).capacity_bytes() &&
                      wf.total_bytes() < host_bytes,
                  entry.spec + ": working set must exceed GPU memory and fit "
                               "host DRAM");
      }

      core::RuntimeOptions options;
      options.seed = entry.runtime_seed;
      if (target == Target::Cluster) {
        options.metrics = true;
        // The traced run audits explicitly so the audit can be timed.
        options.validate = !traced;
      }
      LayerCounters counters;
      std::unique_ptr<core::Scheduler> scheduler =
          target == Target::Cluster
              ? sched::make_cluster_scheduler(*platforms.cluster, "dmda",
                                              "locality", options.seed)
              : sched::make_scheduler("dmda", options.seed);
      if (traced) {
        scheduler = make_timing_scheduler(std::move(scheduler), counters);
      }
      const Clock::time_point ctor_start = Clock::now();
      core::Runtime rt(platform, std::move(scheduler), options);
      const Clock::time_point ctor_end = Clock::now();

      // --- measured: first submit .. result ---------------------------
      const Clock::time_point submit_start = Clock::now();
      if (target == Target::Cluster) {
        std::vector<hw::MemoryNodeId> homes;
        for (const hw::ClusterNode& node : platforms.cluster->nodes()) {
          homes.push_back(node.gateway);
        }
        workflow::submit_workflow_scattered(rt, wf, library, homes);
      } else {
        workflow::submit_workflow(rt, wf, library);
      }
      const Clock::time_point wait_start = Clock::now();
      rt.wait_all();
      const Clock::time_point wait_end = Clock::now();
      Clock::time_point audit_end = wait_end;
      Clock::time_point cluster_end = wait_end;
      Clock::time_point export_end = wait_end;
      std::size_t export_bytes = 0;
      if (target == Target::Cluster) {
        if (traced) {
          const check::CheckReport report = check::audit_run(rt);
          out.check(report.passed(), entry.spec + ": audit_run failed");
          audit_end = Clock::now();
        }
        const std::vector<check::Violation> violations = check::check_cluster(
            check::snapshot_cluster(*platforms.cluster),
            check::snapshot_directory(platform, rt.data().registry(),
                                      rt.data().directory()));
        cluster_end = Clock::now();
        out.check(violations.empty(), entry.spec + ": check_cluster failed");
        const obs::Recorder& recorder = *rt.recorder();
        const std::string metrics_json = recorder.metrics().to_json_string();
        const std::string chrome =
            obs::chrome_trace_json(rt.tracer(), platform, &recorder);
        const std::string decisions = recorder.decisions_jsonl(platform);
        export_end = Clock::now();
        export_bytes = metrics_json.size() + chrome.size() + decisions.size();
        out.check(!recorder.decisions().empty() && recorder.metrics().size() > 0,
                  entry.spec + ": empty decision log or metrics");
        out.check(recorder.metrics().counter_sum("tasks_completed") ==
                      static_cast<double>(rt.stats().tasks_completed),
                  entry.spec + ": metrics task count != RunStats");
        pass.series += static_cast<double>(recorder.metrics().size());
        pass.layers.obs_events += recorder.events().size();
        pass.layers.decisions += recorder.decisions().size();
      }
      const Clock::time_point job_end = Clock::now();
      // --- end measured --------------------------------------------------
      const double speed_after =
          speed.probe(ns_between(bracket_start, job_end));
      const double f = 0.5 * (speed_before + speed_after);
      speed_before = speed_after;
      bracket_start = Clock::now();

      const core::RunStats& stats = rt.stats();
      out.check(stats.tasks_completed == wf.task_count() &&
                    stats.failed_attempts == 0 && stats.tasks_lost == 0,
                entry.spec + ": not every task completed exactly once");
      pass.failed += stats.failed_attempts + stats.tasks_lost;
      pass.tasks += stats.tasks_completed;
      ++pass.workflows;
      pass.measured_s += f * seconds_between(submit_start, job_end);
      pass.raw_s += seconds_between(submit_start, job_end);
      pass.generate_ms += f * 1e3 * seconds_between(gen_start, gen_end);
      pass.construct_ms += f * 1e3 * seconds_between(ctor_start, ctor_end);
      pass.setup_s += f * (platform_s + seconds_between(gen_start, gen_end) +
                           seconds_between(ctor_start, ctor_end));
      platform_s = 0.0;
      pass.audit_ms += f * 1e3 * seconds_between(wait_end, audit_end);
      pass.cluster_ms += f * 1e3 * seconds_between(audit_end, cluster_end);
      pass.export_ms += f * 1e3 * seconds_between(cluster_end, export_end);
      pass.export_mb += static_cast<double>(export_bytes) / (1 << 20);
      pass.makespan_s += stats.makespan_s;
      pass.job_ms.push_back(f * 1e3 * seconds_between(submit_start, job_end));
      pass.makespans_s.push_back(stats.makespan_s);
      if (target == Target::Hpc) {
        out.check(stats.data.evictions == 0,
                  entry.spec + ": evicted on the HPC node");
      }

      pass.digest.add(stats.makespan_s);
      pass.digest.add(stats.tasks_completed);
      pass.digest.add(stats.transfers.bytes_moved);
      pass.digest.add(stats.transfers.transfer_count);
      pass.digest.add(stats.data.evictions);
      pass.digest.add(stats.data.writebacks);
      pass.digest.add(stats.total_energy_j());

      // Layer counts accumulate on every pass (the decorator's counters
      // stay zero when untraced); spans are kept for traced passes only.
      {
        LayerSums& l = pass.layers;
        LayerCounters scaled = counters;
        scaled.scale_ns(f);
        l.ctx.add(scaled);
        l.submit_ns += std::llround(f * ns_between(submit_start, wait_start));
        l.wait_ns += std::llround(f * ns_between(wait_start, wait_end));
        l.cost_cache_invalidations += rt.cost_cache().invalidations();
        l.fetches += stats.data.fetches;
        l.evictions += stats.data.evictions;
        l.writebacks += stats.data.writebacks;
        l.transfers += stats.transfers.transfer_count;
        l.bytes_moved += stats.transfers.bytes_moved;
        l.events += rt.event_queue().executed();
        l.peak_pending = std::max<std::uint64_t>(
            l.peak_pending, rt.event_queue().peak_pending());
        l.spans += rt.tracer().spans().size();
        l.tasks += stats.tasks_completed;
      }
      if (traced) {
        SpanLog& log = out.spans;
        const std::int64_t root =
            log.interval("workflow", gen_start, job_end, -1, job_id);
        log.interval("workflow.generate", gen_start, gen_end, root, job_id);
        log.interval("core.construct", ctor_start, ctor_end, root, job_id);
        log.interval("core.submit", submit_start, wait_start, root, job_id);
        const std::int64_t wait =
            log.interval("core.wait_all", wait_start, wait_end, root, job_id);
        log.aggregate("sched.callback", wait, counters.callbacks,
                      counters.callback_ns);
        log.aggregate("perf.estimate", wait, counters.perf_calls,
                      counters.perf_ns);
        log.aggregate("data.estimate", wait, counters.data_calls,
                      counters.data_ns);
        log.aggregate("core.assign", wait, counters.assigns,
                      counters.assign_ns);
        log.aggregate("core.query", wait, counters.queries, counters.query_ns);
        if (target == Target::Cluster) {
          log.interval("check.audit", wait_end, audit_end, root, job_id);
          log.interval("check.cluster", audit_end, cluster_end, root, job_id);
          log.interval("obs.export", cluster_end, export_end, root, job_id);
        }
      }
    } catch (const std::exception& error) {
      // A workflow that throws (e.g. "cannot fit" on a home memory) is a
      // failed operation, not a crashed benchmark.
      ++pass.failed;
      ++pass.workflows;
      out.check(false, entry.spec + ": threw: " + error.what());
      speed_before = speed.probe(ns_between(bracket_start, Clock::now()));
      bracket_start = Clock::now();
    }
  }
  return pass;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Outcome run_campaign_workload(const RunConfig& config) {
  const Target target = config.workload == "pegasus-hpc"
                            ? Target::Hpc
                            : config.workload == "pegasus-workstation"
                                  ? Target::Workstation
                                  : Target::Cluster;
  Outcome out;
  // Lazy set-up the timer must not see: the codelet library.
  const workflow::CodeletLibrary library = workflow::CodeletLibrary::standard();
  const std::vector<Entry> entries = make_campaign(target, config.seed);
  HostSpeed speed;

  std::vector<Pass> passes;
  double first_pass_rss_mb = 0.0;
  const Clock::time_point run_start = Clock::now();
  // Trace mode alternates untraced and traced passes, so the overhead
  // compares passes run under the same host conditions and every traced
  // pass is checked against untraced results.
  const std::size_t min_passes = config.trace ? 2 : 1;
  while (passes.size() < min_passes ||
         seconds_between(run_start, Clock::now()) < config.seconds) {
    const bool traced = config.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(target, entries, library, traced,
                              passes.size(), speed, out));
    passes.back().traced = traced;
    if (passes.size() == 1) {
      // Later passes only add allocator retention whose amount depends on
      // how many passes the host speed allowed; the first pass's peak is
      // the workload's own.
      first_pass_rss_mb = peak_rss_mb();
    }
  }

  const Pass& first = passes.front();
  for (const Pass& pass : passes) {
    out.check(pass.digest.value() == first.digest.value(),
              "simulated results differ between passes of one seed");
    out.attempted += pass.tasks + pass.workflows;
    out.failed += pass.failed;
  }
  if (target == Target::Workstation) {
    out.check(ratio(static_cast<double>(first.layers.evictions),
                    static_cast<double>(first.layers.fetches)) >= 0.25,
              "pegasus-workstation evicts on under a quarter of fetches");
  }

  const auto per_pass = [&passes](bool traced, auto field) {
    std::vector<double> values;
    for (const Pass& pass : passes) {
      if (pass.traced == traced) {
        values.push_back(field(pass));
      }
    }
    return values;
  };
  const auto tps = [](const Pass& p) {
    return static_cast<double>(p.tasks) / p.measured_s;
  };
  // Per-workflow host latency over the untraced passes (median), then
  // p50/p99 over the workflows.
  std::vector<double> job_ms;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    job_ms.push_back(median(per_pass(false, [e](const Pass& p) {
      return e < p.job_ms.size() ? p.job_ms[e] : 0.0;
    })));
  }

  char note[512];
  std::snprintf(note, sizeof note,
                "workload=%s seed=%llu passes=%zu entries=%zu "
                "tasks_per_pass=%llu digest=%s makespan_s=%.17g "
                "data.bytes_moved_gb=%.17g failed_frac=%.6g",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), passes.size(),
                entries.size(), static_cast<unsigned long long>(first.tasks),
                first.digest.hex().c_str(), first.makespan_s,
                static_cast<double>(first.layers.bytes_moved) / 1e9,
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)));
  out.notes.push_back(note);
  std::string campaign = "campaign (spec[xscale]=simulated makespan):";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    campaign += ' ';
    campaign += entries[e].spec;
    if (entries[e].scale != 1.0) {
      campaign += 'x';
      campaign += std::to_string(static_cast<int>(entries[e].scale));
    }
    if (e < first.makespans_s.size()) {
      std::snprintf(note, sizeof note, "=%.4gs", first.makespans_s[e]);
      campaign += note;
    }
  }
  out.notes.push_back(campaign);
  std::snprintf(note, sizeof note,
                "job latency samples: %zu workflows x %zu untraced passes; "
                "per workflow (ms):",
                job_ms.size(), per_pass(false, tps).size());
  std::string latencies = note;
  for (const double ms : job_ms) {
    std::snprintf(note, sizeof note, " %.4g", ms);
    latencies += note;
  }
  out.notes.push_back(latencies);
  std::string pass_tps =
      "tasks/s per pass at reference speed (host speed, t = traced):";
  for (const Pass& pass : passes) {
    std::snprintf(note, sizeof note, " %.0f(%.3f)%s", tps(pass),
                  pass.measured_s / pass.raw_s, pass.traced ? "t" : "");
    pass_tps += note;
  }
  out.notes.push_back(pass_tps);

  if (!config.trace) {
    out.add("tasks_per_s", median(per_pass(false, tps)), "tasks/s");
    out.add("makespan_s", first.makespan_s, "sim_s");
    out.add("setup_s", median(per_pass(false, [](const Pass& p) {
              return p.setup_s;
            })),
            "s");
    out.add("peak_rss_mb", first_pass_rss_mb, "MiB");
    out.add("submits_per_s", median(per_pass(false, [](const Pass& p) {
              return static_cast<double>(p.workflows) / p.measured_s;
            })),
            "1/s");
    out.add("job_latency_p50_ms", quantile(job_ms, 0.5), "ms");
    out.add("job_latency_p99_ms", quantile(job_ms, 0.99), "ms");
    out.add("service_latency_p99_s", quantile(first.makespans_s, 0.99),
            "sim_s");
    return out;
  }

  // Per-layer metrics from the traced passes: host times per pass (median
  // over passes); counts are identical in every pass.
  const Pass& traced = passes[1];
  const LayerSums& one = traced.layers;
  const double tasks = static_cast<double>(one.tasks);
  const auto ns_per_task = [&per_pass](auto field) {
    return median(per_pass(true, [&field](const Pass& p) {
      return static_cast<double>(field(p.layers)) /
             static_cast<double>(p.layers.tasks);
    }));
  };
  const auto ms = [&per_pass](auto field) {
    return median(per_pass(true, field));
  };
  out.add("workflow.generate_ms", ms([](const Pass& p) { return p.generate_ms; }),
          "ms");
  out.add("core.construct_ms", ms([](const Pass& p) { return p.construct_ms; }),
          "ms");
  out.add("core.submit_ns_per_task",
          ns_per_task([](const LayerSums& l) { return l.submit_ns; }), "ns");
  out.add("core.wait_self_ns_per_task", ns_per_task([](const LayerSums& l) {
            return l.wait_ns - l.ctx.callback_ns;
          }),
          "ns");
  out.add("core.assign_ns_per_task",
          ns_per_task([](const LayerSums& l) { return l.ctx.assign_ns; }),
          "ns");
  out.add("sched.self_ns_per_task",
          ns_per_task([](const LayerSums& l) { return l.ctx.sched_self_ns(); }),
          "ns");
  out.add("sched.idle_probes_per_task",
          static_cast<double>(one.ctx.idle_probes) / tasks, "count");
  out.add("sched.idle_hit_ratio",
          ratio(static_cast<double>(one.ctx.idle_hits),
                static_cast<double>(one.ctx.idle_probes)),
          "ratio");
  out.add("perf.estimate_ns_per_task",
          ns_per_task([](const LayerSums& l) { return l.ctx.perf_ns; }), "ns");
  out.add("perf.estimate_calls_per_task",
          static_cast<double>(one.ctx.perf_calls) / tasks, "count");
  out.add("perf.cost_cache_invalidations",
          static_cast<double>(one.cost_cache_invalidations), "count");
  out.add("data.estimate_ns_per_task",
          ns_per_task([](const LayerSums& l) { return l.ctx.data_ns; }), "ns");
  out.add("data.fetches_per_task", static_cast<double>(one.fetches) / tasks,
          "count");
  out.add("data.evictions_per_fetch",
          ratio(static_cast<double>(one.evictions),
                static_cast<double>(one.fetches)),
          "ratio");
  out.add("data.writebacks", static_cast<double>(one.writebacks), "count");
  out.add("data.transfers_per_task",
          static_cast<double>(one.transfers) / tasks, "count");
  out.add("data.bytes_moved_gb", static_cast<double>(one.bytes_moved) / 1e9,
          "GB");
  out.add("sim.events_per_task", static_cast<double>(one.events) / tasks,
          "count");
  out.add("sim.peak_pending", static_cast<double>(one.peak_pending), "count");
  out.add("trace.spans_per_task", static_cast<double>(one.spans) / tasks,
          "count");
  out.add("obs.export_ms", ms([](const Pass& p) { return p.export_ms; }), "ms");
  out.add("obs.export_mb", traced.export_mb, "MiB");
  out.add("obs.series", traced.series, "count");
  out.add("obs.events_per_task", static_cast<double>(one.obs_events) / tasks,
          "count");
  out.add("obs.decisions_per_task", static_cast<double>(one.decisions) / tasks,
          "count");
  out.add("check.audit_ms", ms([](const Pass& p) { return p.audit_ms; }), "ms");
  out.add("check.cluster_ms", ms([](const Pass& p) { return p.cluster_ms; }),
          "ms");
  out.add("failed_frac",
          ratio(static_cast<double>(out.failed),
                static_cast<double>(out.attempted)),
          "ratio");
  const double untraced_tps = median(per_pass(false, tps));
  const double traced_tps = median(per_pass(true, tps));
  out.add("bench.trace_overhead", untraced_tps / traced_tps, "ratio");
  std::snprintf(note, sizeof note,
                "tracing overhead: untraced %.6g tasks/s, traced %.6g "
                "tasks/s (x%.3f); traced results match untraced digest",
                untraced_tps, traced_tps, untraced_tps / traced_tps);
  out.notes.push_back(note);
  return out;
}

}  // namespace perfbench
