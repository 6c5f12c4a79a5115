// serve-tenants: a ServeEngine on the HPC node with hetflow_serve's
// defaults, serving 10^4 tenants in three weight classes.
//
// Closed loop in rounds. At the start of a round the next n tenants of a
// seeded rotation submit one job each (a tenant submits again only after
// its previous job completed or was refused); run_batch() then repeats
// until nothing is pending, and the next round begins. Round sizes sit
// just under the engine's 4096-job pending cap, and one seeded burst
// round per pass overshoots it, so admission refuses a small, nonzero
// share. A pass is a fixed number of rounds on a fresh engine; the run
// repeats passes until --seconds have elapsed, and every pass must
// reproduce the first one's simulated results byte for byte.
#include <cstdio>
#include <limits>

#include "bench.hpp"
#include "hw/presets.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace hetflow;

constexpr std::size_t kTenants = 10000;
constexpr std::size_t kRounds = 4;

/// The seeded inputs: every tenant's weight class and job, the order in
/// which tenants come round, and each round's submitter count.
struct Inputs {
  std::vector<serve::TenantSpec> tenants;
  std::vector<serve::JobSpec> jobs;
  std::vector<std::size_t> rotation;
  std::vector<std::size_t> round_sizes;
};

Inputs make_inputs(std::uint64_t seed, std::size_t max_pending) {
  util::Rng rng(util::hash_combine(seed, 0x7365727665ULL));
  Inputs in;
  static constexpr double kWeights[] = {1.0, 2.0, 4.0};
  static constexpr serve::JobShape kShapes[] = {serve::JobShape::Chain,
                                                serve::JobShape::Fanout,
                                                serve::JobShape::Diamond};
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantSpec spec;
    spec.name = std::to_string(t);
    spec.name.insert(0, 1, 't');
    const double u = rng.uniform();
    spec.weight = kWeights[u < 0.6 ? 0 : (u < 0.9 ? 1 : 2)];
    in.tenants.push_back(std::move(spec));
    serve::JobSpec job;
    job.shape = kShapes[static_cast<std::size_t>(rng.uniform() * 3.0) % 3];
    job.tasks = 2 + static_cast<std::uint32_t>(rng.uniform() * 15.0) % 15;
    job.flops = std::pow(10.0, rng.uniform(8.0, 10.0));
    job.bytes = static_cast<std::uint64_t>(std::pow(2.0, rng.uniform(16.0, 24.0)));
    in.jobs.push_back(job);
  }
  in.rotation.resize(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    in.rotation[i] = i;
  }
  for (std::size_t i = kTenants; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>(i));
    std::swap(in.rotation[i - 1], in.rotation[std::min(j, i - 1)]);
  }
  const auto burst = static_cast<std::size_t>(rng.uniform() * kRounds) % kRounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const double load =
        r == burst ? rng.uniform(1.005, 1.015) : rng.uniform(0.88, 1.0);
    in.round_sizes.push_back(static_cast<std::size_t>(
        std::round(load * static_cast<double>(max_pending))));
  }
  return in;
}

struct Pass {
  // Host times are rescaled to the reference speed (HostSpeed).
  double setup_s = 0.0;
  double measured_s = 0.0;
  double raw_s = 0.0;  ///< measured_s as the wall clock read it
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;  ///< rejected + deferred at submit time
  std::uint64_t tasks = 0;
  std::size_t peak_pending = 0;
  double clock_s = 0.0;
  std::vector<double> job_ms;      ///< per submission; refused = +inf
  std::vector<double> service_s;   ///< TenantStats::latency, all tenants
  std::vector<double> batch_ms;
  std::int64_t submit_ns = 0;      ///< traced: summed submit() time
  Digest digest;
  bool traced = false;
};

Pass run_pass(std::uint64_t seed, bool traced, std::size_t pass_index,
              HostSpeed& speed, Outcome& out) {
  Pass pass;
  // Each round is bracketed by host-speed probes; its host times are
  // rescaled by the mean of the two. Set-up shares the first round's
  // bracket.
  double speed_before = speed.probe(0);
  const Clock::time_point setup_start = Clock::now();
  Clock::time_point bracket_start = setup_start;
  const hw::Platform platform = hw::make_hpc_node(16, 4);
  serve::ServeConfig config;  // hetflow_serve's defaults
  config.seed = seed;
  const Inputs in = make_inputs(seed, config.admission.max_pending);
  serve::ServeEngine engine(platform, config);
  for (const serve::TenantSpec& spec : in.tenants) {
    engine.add_tenant(spec);
  }
  double setup_s = seconds_between(setup_start, Clock::now());
  const std::size_t cap =
      config.admission.max_pending +
      (config.admission.policy == serve::BackpressurePolicy::Defer
           ? config.admission.defer_cap
           : 0);

  struct Outstanding {
    serve::TenantId tenant;
    std::uint64_t completed_before;
    Clock::time_point submitted;
  };
  std::vector<Outstanding> outstanding;
  std::size_t cursor = 0;
  const std::uint64_t pass_id = pass_index * 1000000;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const Clock::time_point round_start = Clock::now();
    const std::int64_t round_span =
        traced ? out.spans.interval("serve.round", round_start, round_start,
                                    -1, pass_id + round)
               : -1;
    std::int64_t round_submit_ns = 0;
    const std::size_t first_job = pass.job_ms.size();
    const std::size_t first_batch = pass.batch_ms.size();
    outstanding.clear();
    for (std::size_t k = 0; k < in.round_sizes[round]; ++k) {
      const auto t = static_cast<serve::TenantId>(in.rotation[cursor]);
      cursor = (cursor + 1) % kTenants;
      const std::uint64_t before = engine.stats(t).completed;
      const Clock::time_point at = Clock::now();
      const serve::Ticket ticket = engine.submit(t, in.jobs[t]);
      if (traced) {
        round_submit_ns += ns_between(at, Clock::now());
      }
      ++pass.submitted;
      if (ticket.decision == serve::AdmissionDecision::Admitted) {
        outstanding.push_back({t, before, at});
        ++pass.admitted;
      } else {
        ++pass.refused;
        pass.job_ms.push_back(std::numeric_limits<double>::infinity());
      }
      pass.peak_pending = std::max(pass.peak_pending, engine.total_pending());
    }
    while (engine.total_pending() > 0) {
      const Clock::time_point batch_start = Clock::now();
      const serve::BatchResult batch = engine.run_batch();
      const Clock::time_point batch_end = Clock::now();
      out.check(batch.released > 0, "serve drain wedged with pending work");
      if (batch.released == 0) {
        break;
      }
      pass.tasks += batch.tasks;
      pass.batch_ms.push_back(1e3 * seconds_between(batch_start, batch_end));
      if (traced) {
        out.spans.interval("serve.run_batch", batch_start, batch_end,
                           round_span, pass_id + round);
      }
      // Jobs this batch completed: their latency ends here.
      std::size_t kept = 0;
      for (const Outstanding& job : outstanding) {
        if (engine.stats(job.tenant).completed > job.completed_before) {
          pass.job_ms.push_back(1e3 *
                                seconds_between(job.submitted, batch_end));
        } else {
          outstanding[kept++] = job;
        }
      }
      outstanding.resize(kept);
    }
    engine.note_drained();
    const Clock::time_point round_end = Clock::now();
    const double speed_after =
        speed.probe(ns_between(bracket_start, round_end));
    const double f = 0.5 * (speed_before + speed_after);
    speed_before = speed_after;
    bracket_start = Clock::now();
    pass.measured_s += f * seconds_between(round_start, round_end);
    pass.raw_s += seconds_between(round_start, round_end);
    pass.setup_s += f * setup_s;
    setup_s = 0.0;
    for (std::size_t j = first_job; j < pass.job_ms.size(); ++j) {
      pass.job_ms[j] *= f;
    }
    for (std::size_t b = first_batch; b < pass.batch_ms.size(); ++b) {
      pass.batch_ms[b] *= f;
    }
    if (traced) {
      out.spans.close(round_span, round_end);
      out.spans.aggregate("serve.submit", round_span, in.round_sizes[round],
                          round_submit_ns);
      pass.submit_ns += std::llround(f * static_cast<double>(round_submit_ns));
    }
    out.check(outstanding.empty(), "a released job never completed");
  }

  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  for (serve::TenantId t = 0; t < engine.tenant_count(); ++t) {
    const serve::TenantStats& stats = engine.stats(t);
    admitted += stats.admitted;
    completed += stats.completed;
    for (const double v : stats.latency.values()) {
      pass.service_s.push_back(v);
    }
  }
  pass.clock_s = engine.clock();
  out.check(completed == admitted, "serve: completed != admitted");
  out.check(engine.total_pending() == 0, "serve: work left pending");
  out.check(pass.peak_pending <= cap,
            "serve: peak pending above max_pending + defer_cap");
  pass.digest.add(engine.clock());
  pass.digest.add(pass.tasks);
  const std::string csv = engine.latency_csv();
  for (const char c : csv) {
    pass.digest.add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return pass;
}

}  // namespace

Outcome run_serve_workload(const RunConfig& config) {
  Outcome out;
  HostSpeed speed;
  std::vector<Pass> passes;
  double first_pass_rss_mb = 0.0;
  const Clock::time_point run_start = Clock::now();
  // Trace mode alternates untraced and traced passes (see campaign.cpp).
  const std::size_t min_passes = config.trace ? 2 : 1;
  while (passes.size() < min_passes ||
         seconds_between(run_start, Clock::now()) < config.seconds) {
    const bool traced = config.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(config.seed, traced, passes.size(), speed, out));
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
    out.attempted += pass.submitted + pass.tasks;
  }
  out.check(first.refused > 0, "serve-tenants refused or deferred nothing");
  const double failed_frac =
      static_cast<double>(first.refused) /
      static_cast<double>(first.submitted + first.tasks);

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
  const double p99 = median(per_pass(false, [](const Pass& p) {
    return quantile(p.job_ms, 0.99);
  }));
  out.check(std::isfinite(p99), "serve: refused share leaves p99 undefined");

  char note[512];
  std::snprintf(note, sizeof note,
                "workload=serve-tenants seed=%llu passes=%zu tenants=%zu "
                "rounds=%zu digest=%s makespan_s=%.17g submitted=%llu "
                "refused=%llu failed_frac=%.6g job latency samples=%zu per "
                "pass",
                static_cast<unsigned long long>(config.seed), passes.size(),
                kTenants, kRounds, first.digest.hex().c_str(), first.clock_s,
                static_cast<unsigned long long>(first.submitted),
                static_cast<unsigned long long>(first.refused), failed_frac,
                first.job_ms.size());
  out.notes.push_back(note);
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
    out.add("makespan_s", first.clock_s, "sim_s");
    out.add("setup_s",
            median(per_pass(false, [](const Pass& p) { return p.setup_s; })),
            "s");
    out.add("peak_rss_mb", first_pass_rss_mb, "MiB");
    out.add("submits_per_s", median(per_pass(false, [](const Pass& p) {
              return static_cast<double>(p.submitted) / p.measured_s;
            })),
            "1/s");
    out.add("job_latency_p50_ms", median(per_pass(false, [](const Pass& p) {
              return quantile(p.job_ms, 0.5);
            })),
            "ms");
    out.add("job_latency_p99_ms", std::isfinite(p99) ? p99 : 0.0, "ms");
    out.add("service_latency_p99_s", quantile(first.service_s, 0.99),
            "sim_s");
    return out;
  }

  const Pass& traced = passes[1];
  out.add("serve.submit_ns", median(per_pass(true, [](const Pass& p) {
            return static_cast<double>(p.submit_ns) /
                   static_cast<double>(p.submitted);
          })),
          "ns");
  out.add("serve.batch_ms_p50", median(per_pass(true, [](const Pass& p) {
            return quantile(p.batch_ms, 0.5);
          })),
          "ms");
  out.add("serve.batch_ms_p90", median(per_pass(true, [](const Pass& p) {
            return quantile(p.batch_ms, 0.9);
          })),
          "ms");
  out.add("serve.jobs_per_batch",
          static_cast<double>(traced.admitted) /
              static_cast<double>(traced.batch_ms.size()),
          "count");
  out.add("serve.admit_ratio",
          static_cast<double>(traced.admitted) /
              static_cast<double>(traced.submitted),
          "ratio");
  out.add("serve.peak_pending", static_cast<double>(traced.peak_pending),
          "count");
  out.add("failed_frac", failed_frac, "ratio");
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
