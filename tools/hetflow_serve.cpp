// hetflow_serve — multi-tenant workflow-as-a-service front end.
//
// Reads a JSONL script (see serve/protocol.hpp) from a file or stdin and
// serves it on one shared simulated platform: admission control with
// backpressure, weighted fair-share + priority release, batched execution
// on the existing runtime substrate, deterministic under a fixed seed.
//
//   $ hetflow_serve --script workload.jsonl --platform hpc:8,4,0 --audit
//   $ printf '{"op":"tenant","name":"a"}\n{"op":"submit","tenant":0}\n
//     {"op":"drain"}\n' | hetflow_serve --csv
//   $ hetflow_serve --script w.jsonl --checkpoint serve.ckpt
//         --max-batches 3            # stop early, state on disk
//   $ hetflow_serve --script w.jsonl --resume serve.ckpt   # finish it
//   $ hetflow_serve --script w.jsonl --replicas 8 --jobs 8
//         # replica determinism harness: all CSVs must be byte-identical
#include <fstream>
#include <iostream>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "serve/engine.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workflow/spec.hpp"

namespace {

std::string read_script_text(const std::string& path) {
  if (path.empty() || path == "-") {
    std::ostringstream text;
    text << std::cin.rdbuf();
    return text.str();
  }
  std::ifstream in(path);
  if (!in) {
    throw hetflow::util::Error("cannot open script '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path);
  if (!out) {
    throw hetflow::util::Error("cannot open '" + path + "'");
  }
  out << content;
  std::cout << what << " written to " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetflow;
  util::Cli cli("hetflow_serve",
                "serve multi-tenant workflow submissions on one shared "
                "simulated platform");
  cli.add_option("script", "",
                 "JSONL script path (empty or '-' reads stdin)");
  cli.add_option("platform", "workstation",
                 "platform spec (workstation|edge|cpu:N|hpc:C,G,F|"
                 "cluster:N,C,G) or path to a .json platform file");
  cli.add_option("sched", "dmdas",
                 "dynamic scheduling policy for every batch");
  cli.add_option("seed", "1", "service seed (batches derive their own)");
  cli.add_option("batch-limit", "256", "max jobs released per batch");
  cli.add_option("backlog-cap", "64",
                 "default per-tenant backlog cap (tenant spec overrides)");
  cli.add_option("max-in-flight", "4",
                 "default per-tenant releases per batch (spec overrides)");
  cli.add_option("max-pending", "4096",
                 "global queued-job ceiling before backpressure");
  cli.add_option("defer-cap", "1024",
                 "overflow queue bound under --defer backpressure");
  cli.add_flag("defer",
               "defer over-limit submissions instead of rejecting them");
  cli.add_flag("audit",
               "run the fairness/starvation monitor and print its report");
  cli.add_flag("validate", "runtime invariant audit after every batch");
  cli.add_flag("csv", "print the per-tenant latency table to stdout");
  cli.add_option("latency-csv", "", "write the per-tenant latency table");
  cli.add_option("metrics-out", "", "write per-tenant metrics JSON");
  cli.add_option("checkpoint", "",
                 "write a resumable checkpoint after every batch");
  cli.add_option("resume", "", "resume from a checkpoint file");
  cli.add_option("max-batches", "0",
                 "stop after this many batch ops (0 = run the script out)");
  cli.add_option("replicas", "1",
                 "run N identical engines and require byte-identical "
                 "latency tables (determinism harness)");
  cli.add_option("jobs", "1", "host threads for --replicas");
  try {
    cli.parse(argc, argv);
  } catch (const util::ParseError& error) {
    std::cerr << "error: " << error.what() << "\n\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  try {
    const serve::ServeScript script =
        serve::parse_script(read_script_text(cli.value("script")));
    serve::ServeConfig config;
    config.scheduler = cli.value("sched");
    config.seed = static_cast<std::uint64_t>(cli.number("seed"));
    config.batch_limit = static_cast<std::size_t>(cli.number("batch-limit"));
    config.backlog_cap = static_cast<std::size_t>(cli.number("backlog-cap"));
    config.max_in_flight =
        static_cast<std::size_t>(cli.number("max-in-flight"));
    config.admission.max_pending =
        static_cast<std::size_t>(cli.number("max-pending"));
    config.admission.defer_cap =
        static_cast<std::size_t>(cli.number("defer-cap"));
    config.admission.policy = cli.flag("defer")
                                  ? serve::BackpressurePolicy::Defer
                                  : serve::BackpressurePolicy::Reject;
    config.audit = cli.flag("audit");
    config.validate = cli.flag("validate");
    const std::string platform_spec = cli.value("platform");

    // Replica mode: N engines, each owning its platform outright, run the
    // same script on --jobs threads. Any byte divergence between latency
    // tables is a determinism bug.
    const auto replicas = static_cast<std::size_t>(cli.number("replicas"));
    if (replicas > 1) {
      const auto jobs = static_cast<std::size_t>(cli.number("jobs"));
      const std::vector<std::string> tables = exec::parallel_map<std::string>(
          replicas, jobs, [&](std::size_t) {
            const hw::Platform platform =
                workflow::make_platform_from_spec(platform_spec);
            serve::ServeEngine engine(platform, config);
            serve::run_script(engine, script);
            return engine.latency_csv();
          });
      for (std::size_t i = 1; i < tables.size(); ++i) {
        if (tables[i] != tables[0]) {
          std::cerr << "replica " << i
                    << " diverged from replica 0 (latency tables differ)\n";
          return 1;
        }
      }
      std::cout << replicas << " replicas on " << jobs
                << " jobs: latency tables byte-identical\n";
      if (cli.flag("csv")) {
        std::cout << tables[0];
      }
      if (!cli.value("latency-csv").empty()) {
        write_file(cli.value("latency-csv"), tables[0], "latency table");
      }
      return 0;
    }

    const hw::Platform platform =
        workflow::make_platform_from_spec(platform_spec);
    serve::ServeEngine engine(platform, config);
    std::size_t start_op = 0;
    if (!cli.value("resume").empty()) {
      start_op = serve::ServeEngine::load_checkpoint(cli.value("resume"),
                                                     engine);
      std::cout << "resumed from " << cli.value("resume") << " at op "
                << start_op << " (" << engine.batches_run()
                << " batches done)\n";
    }
    const serve::ScriptRunResult result = serve::run_script(
        engine, script, start_op, cli.value("checkpoint"),
        static_cast<std::size_t>(cli.number("max-batches")));

    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    for (serve::TenantId t = 0; t < engine.tenant_count(); ++t) {
      const serve::TenantStats& stats = engine.stats(t);
      admitted += stats.admitted;
      deferred += stats.deferred;
      rejected += stats.rejected;
      completed += stats.completed;
    }
    std::cout << "served " << engine.tenant_count() << " tenants: "
              << admitted << " admitted, " << deferred << " deferred, "
              << rejected << " rejected, " << completed << " completed in "
              << result.batches << " batches, service clock "
              << util::format("%.3f s", engine.clock())
              << (result.stopped_early ? " (stopped at --max-batches)" : "")
              << '\n';
    if (cli.flag("csv")) {
      std::cout << engine.latency_csv();
    }
    if (!cli.value("latency-csv").empty()) {
      write_file(cli.value("latency-csv"), engine.latency_csv(),
                 "latency table");
    }
    if (!cli.value("metrics-out").empty()) {
      write_file(cli.value("metrics-out"), engine.metrics_json(),
                 "metrics");
    }
    if (config.audit) {
      const check::CheckReport& report = engine.audit_report();
      std::cout << report.summary();
      if (!report.passed()) {
        return 1;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
