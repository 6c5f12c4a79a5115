// hetflow_perfbench — runs one benchmark workload and prints its metrics.
//
//   hetflow_perfbench --workload pegasus-hpc --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span log to --spans-out when given). Human-readable
// notes (seed, digest, sample counts, tracing overhead) come first; the
// last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 only when every output and premise check passed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric tables of BENCHMARK.json, in its order.
const MetricDef kEndToEnd[] = {
    {"tasks_per_s", "tasks/s"},        {"makespan_s", "sim_s"},
    {"setup_s", "s"},                  {"peak_rss_mb", "MiB"},
    {"submits_per_s", "1/s"},          {"job_latency_p50_ms", "ms"},
    {"job_latency_p99_ms", "ms"},      {"service_latency_p99_s", "sim_s"},
};

const MetricDef kPerLayer[] = {
    {"workflow.generate_ms", "ms"},
    {"core.construct_ms", "ms"},
    {"core.submit_ns_per_task", "ns"},
    {"core.wait_self_ns_per_task", "ns"},
    {"core.assign_ns_per_task", "ns"},
    {"sched.self_ns_per_task", "ns"},
    {"sched.idle_probes_per_task", "count"},
    {"sched.idle_hit_ratio", "ratio"},
    {"perf.estimate_ns_per_task", "ns"},
    {"perf.estimate_calls_per_task", "count"},
    {"perf.cost_cache_invalidations", "count"},
    {"data.estimate_ns_per_task", "ns"},
    {"data.fetches_per_task", "count"},
    {"data.evictions_per_fetch", "ratio"},
    {"data.writebacks", "count"},
    {"data.transfers_per_task", "count"},
    {"data.bytes_moved_gb", "GB"},
    {"sim.events_per_task", "count"},
    {"sim.peak_pending", "count"},
    {"trace.spans_per_task", "count"},
    {"obs.export_ms", "ms"},
    {"obs.export_mb", "MiB"},
    {"obs.series", "count"},
    {"obs.events_per_task", "count"},
    {"obs.decisions_per_task", "count"},
    {"check.audit_ms", "ms"},
    {"check.cluster_ms", "ms"},
    {"serve.submit_ns", "ns"},
    {"serve.batch_ms_p50", "ms"},
    {"serve.batch_ms_p90", "ms"},
    {"serve.jobs_per_batch", "count"},
    {"serve.admit_ratio", "ratio"},
    {"serve.peak_pending", "count"},
    {"failed_frac", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

int usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: hetflow_perfbench --workload "
               "pegasus-hpc|pegasus-workstation|cluster-observed|serve-tenants"
               " --seed N --seconds S --trace 0|1 [--spans-out PATH]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value != "0";
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  const bool campaign = config.workload == "pegasus-hpc" ||
                        config.workload == "pegasus-workstation" ||
                        config.workload == "cluster-observed";
  if (!campaign && config.workload != "serve-tenants") {
    return usage("unknown workload");
  }

  Outcome out;
  try {
    out = campaign ? run_campaign_workload(config)
                   : run_serve_workload(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  if (config.trace && !spans_out.empty()) {
    out.check(out.spans.write_jsonl(spans_out),
              "cannot write span log to " + spans_out);
  }

  std::string metrics;
  std::string not_applicable;
  const auto emit = [&](const MetricDef& def) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : out.metrics) {
      if (m.name == def.name) {
        out.check(m.unit == def.unit,
                  std::string(def.name) + " reported in " + m.unit);
        value = m.value;
        found = true;
      }
    }
    if (!found) {
      not_applicable += std::string(" ") + def.name;
    }
    if (!std::isfinite(value)) {
      out.check(false, std::string(def.name) + " is not finite");
      value = 0.0;  // keep the result line valid JSON
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  };
  if (config.trace) {
    for (const MetricDef& def : kPerLayer) {
      emit(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      emit(def);
    }
    out.check(not_applicable.empty(),
              "end-to-end metrics missing:" + not_applicable);
  }

  for (const std::string& note : out.notes) {
    std::cout << note << '\n';
  }
  if (config.trace && !not_applicable.empty()) {
    std::cout << "layers not exercised by this workload (reported as 0):"
              << not_applicable << '\n';
  }
  for (const std::string& failure : out.check_failures) {
    std::cerr << "check failed: " << failure << '\n';
  }
  const bool correct = out.check_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
