// hetflow_run — run any workflow on any simulated platform from the
// command line.
//
//   $ hetflow_run --workflow montage:64 --platform hpc:8,2,0 --sched dmda
//   $ hetflow_run --workflow pipeline.dag --platform machine.json
//         --sched heft --gantt --trace-json trace.json
//   $ hetflow_run --workflow cholesky:16,2048 --platform hpc:8,4,0
//         --failure-rate 0.5 --failure-policy reschedule --csv
#include <fstream>
#include <iostream>
#include <optional>

#include "check/audit.hpp"
#include "check/audit_file.hpp"
#include "check/cluster.hpp"
#include "check/invariants.hpp"
#include "core/analysis.hpp"
#include "core/runtime.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/cluster.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "trace/svg.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workflow/campaign.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/spec.hpp"
#include "workflow/workflow.hpp"

namespace {

/// Writes `content` to `path` and reports it; throws Error when the file
/// cannot be opened or the write does not reach it (a full disk must not
/// print "written to" and exit 0).
void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path);
  if (!out) {
    throw hetflow::Error("cannot open '" + path + "' for writing");
  }
  out << content;
  out.flush();
  if (!out) {
    throw hetflow::Error("failed writing '" + path + "'");
  }
  std::cout << what << " written to " << path << '\n';
}

void print_campaign_result(const hetflow::workflow::CampaignResult& result,
                           const char* strategy, bool csv) {
  using hetflow::util::format;
  if (csv) {
    std::cout << strategy << ',' << result.evaluations << ',' << result.rounds
              << ',' << (result.reached_target ? 1 : 0) << ','
              << format("%.6g", result.best_value) << ','
              << format("%.6g", result.best_x) << ','
              << format("%.6g", result.best_y) << ','
              << format("%.6g", result.makespan_s) << '\n';
    return;
  }
  std::cout << "campaign " << strategy << ": " << result.evaluations
            << " evaluations in " << result.rounds << " rounds, "
            << (result.reached_target ? "target reached" : "budget exhausted")
            << "\n  best " << format("%.6g", result.best_value) << " at ("
            << format("%.4f", result.best_x) << ", "
            << format("%.4f", result.best_y) << "), simulated makespan "
            << format("%.3f s", result.makespan_s) << ", core time "
            << format("%.3f s", result.core_seconds) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetflow;
  util::Cli cli("hetflow_run",
                "run a scientific workflow on a simulated heterogeneous "
                "platform");
  cli.add_option("workflow", "montage:32",
                 "generator spec (see workflow/spec.hpp) or path to a .dag "
                 "file");
  cli.add_option("platform", "workstation",
                 "platform spec (workstation|edge|cpu:N|hpc:C,G,F|"
                 "cluster:N,C,G) or path to a .json platform file");
  cli.add_option("sched", "dmda",
                 "scheduling policy (see --list-scheds); cluster:<inner> "
                 "runs two-level scheduling over a cluster platform");
  cli.add_option("placement", "locality",
                 "cluster placement policy: locality | blind (cluster "
                 "scheduler only)");
  cli.add_option("node-fail", "",
                 "kill a whole cluster node mid-run: T@NODE[+RECOVER], "
                 "e.g. 5.0@1+30 fails node 1 at t=5s for 30s (cluster "
                 "scheduler only)");
  cli.add_option("seed", "42", "simulation seed");
  cli.add_option("noise", "0", "execution-time noise (coefficient of "
                 "variation)");
  cli.add_option("failure-rate", "0",
                 "transient failure rate (failures per busy-second)");
  cli.add_option("failure-policy", "retry", "retry | reschedule");
  cli.add_option("max-attempts", "50",
                 "per-task attempt budget (at least 1)");
  cli.add_option("backoff", "0",
                 "base retry backoff in seconds (0 = immediate retry)");
  cli.add_option("backoff-jitter", "0",
                 "deterministic jitter fraction on the backoff delay");
  cli.add_option("timeout", "0",
                 "per-attempt timeout in seconds (0 = no timeout)");
  cli.add_option("blacklist-after", "0",
                 "quarantine a device after this many consecutive failures "
                 "(0 = never; needs a dynamic scheduler)");
  cli.add_option("probation", "5",
                 "blacklist quarantine length in simulated seconds");
  cli.add_option("on-exhausted", "abort",
                 "abort | drop — what to do when a task's attempt budget "
                 "runs out");
  cli.add_option("campaign", "",
                 "run a discovery campaign instead of one workflow: "
                 "grid | random | surrogate");
  cli.add_option("surface", "branin",
                 "campaign response surface (branin|rosenbrock|quadratic)");
  cli.add_option("surface-noise", "0.1",
                 "campaign observation noise (standard deviation)");
  cli.add_option("evals", "256", "campaign evaluation budget");
  cli.add_option("batch", "8", "campaign simulations per round");
  cli.add_option("max-rounds", "0",
                 "stop the campaign after this many rounds (0 = no limit)");
  cli.add_option("checkpoint", "",
                 "write the campaign state here after every batch");
  cli.add_option("resume", "",
                 "continue a killed campaign from this checkpoint file");
  cli.add_option("scale", "1", "workflow size multiplier (generators only)");
  cli.add_option("trace-json", "", "write a Chrome trace to this path");
  cli.add_option("metrics-out", "",
                 "write the metrics snapshot as JSON to this path (implies "
                 "--metrics)");
  cli.add_option("metrics-csv", "",
                 "write the metrics snapshot as CSV to this path (implies "
                 "--metrics)");
  cli.add_option("chrome-trace", "",
                 "write the merged Chrome trace (exec spans + transfer/"
                 "retry/decision events; Perfetto-loadable) to this path "
                 "(implies --metrics)");
  cli.add_option("decision-log", "",
                 "write the scheduler decision log as JSONL to this path "
                 "(implies --metrics)");
  cli.add_option("gantt-svg", "", "write an SVG Gantt chart to this path");
  cli.add_option("dag-out", "", "save the workflow as a dagfile and exit");
  cli.add_option("audit-out", "",
                 "write a hetflow-verify audit snapshot (for hetflow_check "
                 "--audit) to this path");
  cli.add_flag("validate",
               "run the hetflow-verify audit inside wait_all() and fail on "
               "any violation");
  cli.add_flag("metrics",
               "collect the observability layer (metrics registry, event "
               "log, decision log) even without an output path");
  cli.add_flag("gantt", "print an ASCII Gantt chart");
  cli.add_flag("analyze", "print the realized critical path analysis");
  cli.add_flag("utilization", "print the per-device utilization table");
  cli.add_flag("describe", "print the platform description");
  cli.add_flag("csv", "print one machine-readable CSV result row");
  cli.add_flag("list-scheds", "list scheduling policies and exit");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  if (cli.flag("list-scheds")) {
    for (const std::string& name : sched::scheduler_names()) {
      std::cout << name << '\n';
    }
    return 0;
  }

  try {
    // Campaign mode: a discovery loop over many simulation workflows,
    // optionally checkpointed after every batch and resumable.
    if (!cli.value("campaign").empty() || !cli.value("resume").empty()) {
      const hw::Platform platform =
          workflow::make_platform_from_spec(cli.value("platform"));
      const auto max_rounds =
          static_cast<std::size_t>(cli.number("max-rounds"));
      // Campaigns carry the end-of-run snapshot and decision log in the
      // result (the per-batch runtime is internal); the trace/CSV
      // exports remain single-run outputs.
      const auto write_campaign_obs =
          [&cli](const workflow::CampaignResult& result) {
            if (!cli.value("metrics-out").empty()) {
              write_file(cli.value("metrics-out"), result.metrics_json,
                         "metrics snapshot");
            }
            if (!cli.value("decision-log").empty()) {
              write_file(cli.value("decision-log"), result.decision_log,
                         "decision log");
            }
          };
      if (!cli.value("resume").empty()) {
        const workflow::CampaignResult result = workflow::resume_campaign(
            platform, cli.value("resume"), max_rounds);
        print_campaign_result(result, "resumed", cli.flag("csv"));
        write_campaign_obs(result);
        return 0;
      }
      const workflow::SearchStrategy strategy =
          workflow::strategy_from_name(cli.value("campaign"));
      const workflow::ResponseSurface surface(
          workflow::ResponseSurface::kind_from_name(cli.value("surface")),
          cli.number("surface-noise"));
      workflow::CampaignConfig config;
      config.max_evaluations = static_cast<std::size_t>(cli.number("evals"));
      config.batch_size = static_cast<std::size_t>(cli.number("batch"));
      config.scheduler = cli.value("sched");
      config.seed = static_cast<std::uint64_t>(cli.number("seed"));
      config.checkpoint_path = cli.value("checkpoint");
      config.max_rounds = max_rounds;
      config.metrics = cli.flag("metrics") ||
                       !cli.value("metrics-out").empty() ||
                       !cli.value("decision-log").empty();
      const workflow::CampaignResult result =
          workflow::run_campaign(platform, surface, strategy, config);
      print_campaign_result(result, workflow::to_string(strategy),
                            cli.flag("csv"));
      write_campaign_obs(result);
      return 0;
    }

    const workflow::Workflow wf = workflow::make_workflow_from_spec(
        cli.value("workflow"), cli.number("scale"));
    if (!cli.value("dag-out").empty()) {
      workflow::save_dagfile(wf, cli.value("dag-out"));
      std::cout << "wrote " << cli.value("dag-out") << '\n';
      return 0;
    }
    // Cluster mode: --sched cluster:<inner> builds the structured
    // hw::Cluster from the same --platform spec, runs the flat view
    // through the unchanged engine, and layers two-level placement on
    // top. Everything else (validate, traces, metrics) works as-is.
    std::optional<hw::Cluster> cluster;
    const std::string sched_name = cli.value("sched");
    std::string inner_sched;
    if (util::starts_with(sched_name, "cluster:")) {
      inner_sched = sched_name.substr(std::string("cluster:").size());
      cluster = workflow::make_cluster_from_spec(cli.value("platform"));
    }
    const hw::Platform platform =
        cluster ? cluster->platform()
                : workflow::make_platform_from_spec(cli.value("platform"));
    if (cli.flag("describe")) {
      if (cluster) {
        std::cout << cluster->describe() << '\n';
      }
      std::cout << platform.describe() << '\n';
    }

    core::RuntimeOptions options;
    options.seed = static_cast<std::uint64_t>(cli.number("seed"));
    options.noise_cv = cli.number("noise");
    const double failure_rate = cli.number("failure-rate");
    if (failure_rate > 0.0) {
      options.failure_model = hw::FailureModel::uniform(failure_rate);
    }
    if (cli.value("failure-policy") == "reschedule") {
      options.failure_policy = core::FailurePolicy::Reschedule;
    } else if (cli.value("failure-policy") != "retry") {
      throw InvalidArgument("failure-policy must be retry or reschedule");
    }
    options.retry.max_attempts =
        static_cast<std::size_t>(cli.number("max-attempts"));
    options.retry.backoff_base_s = cli.number("backoff");
    options.retry.backoff_jitter = cli.number("backoff-jitter");
    options.retry.timeout_s = cli.number("timeout");
    options.retry.blacklist_after =
        static_cast<std::size_t>(cli.number("blacklist-after"));
    options.retry.probation_s = cli.number("probation");
    if (cli.value("on-exhausted") == "drop") {
      options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
    } else if (cli.value("on-exhausted") != "abort") {
      throw InvalidArgument("on-exhausted must be abort or drop");
    }
    const std::string node_fail = cli.value("node-fail");
    if (!node_fail.empty()) {
      if (!cluster) {
        throw InvalidArgument(
            "--node-fail requires the cluster scheduler "
            "(--sched cluster:<inner>)");
      }
      const std::size_t at_pos = node_fail.find('@');
      if (at_pos == std::string::npos) {
        throw InvalidArgument("--node-fail expects T@NODE[+RECOVER]");
      }
      core::NodeFault fault;
      fault.at = std::stod(node_fail.substr(0, at_pos));
      std::string rest = node_fail.substr(at_pos + 1);
      const std::size_t plus = rest.find('+');
      if (plus != std::string::npos) {
        fault.recover_after = std::stod(rest.substr(plus + 1));
        rest = rest.substr(0, plus);
      }
      const std::size_t node = static_cast<std::size_t>(std::stoul(rest));
      if (node >= cluster->node_count()) {
        throw InvalidArgument(util::format(
            "--node-fail node %zu out of range (cluster has %zu nodes)",
            node, cluster->node_count()));
      }
      fault.devices = cluster->devices_on(node);
      const hw::ClusterNode& failed = cluster->node(node);
      for (std::size_t m = 0; m < failed.memory_count; ++m) {
        fault.memory_nodes.push_back(
            static_cast<hw::MemoryNodeId>(failed.first_memory + m));
      }
      options.node_faults.push_back(std::move(fault));
    }
    options.validate = cli.flag("validate");
    options.metrics = cli.flag("metrics") ||
                      !cli.value("metrics-out").empty() ||
                      !cli.value("metrics-csv").empty() ||
                      !cli.value("chrome-trace").empty() ||
                      !cli.value("decision-log").empty();

    core::Runtime runtime(
        platform,
        cluster ? sched::make_cluster_scheduler(*cluster, inner_sched,
                                                cli.value("placement"),
                                                options.seed)
                : sched::make_scheduler(sched_name, options.seed),
        options);
    if (cluster) {
      // Stage inputs the way a parallel filesystem would: scattered
      // round-robin across the member nodes' gateway memories instead
      // of piled onto flat memory node 0.
      std::vector<hw::MemoryNodeId> homes;
      homes.reserve(cluster->node_count());
      for (const hw::ClusterNode& node : cluster->nodes()) {
        homes.push_back(node.gateway);
      }
      workflow::submit_workflow_scattered(
          runtime, wf, workflow::CodeletLibrary::standard(), homes);
    } else {
      workflow::submit_workflow(runtime, wf,
                                workflow::CodeletLibrary::standard());
    }
    runtime.wait_all();
    if (cluster && cli.flag("validate")) {
      // Cluster-level invariants on top of the in-run audit: exclusive
      // inter-node ownership and remote-read downgrades.
      check::CheckReport report;
      report.merge(check::check_cluster(
          check::snapshot_cluster(*cluster),
          check::snapshot_directory(platform, runtime.data().registry(),
                                    runtime.data().directory())));
      report.note_check("cluster", runtime.data().registry().count());
      check::enforce(report);
    }
    const core::RunStats& stats = runtime.stats();

    if (cli.flag("csv")) {
      std::cout << wf.name() << ',' << cli.value("sched") << ','
                << util::format("%.6g", stats.makespan_s) << ','
                << util::format("%.6g", stats.total_energy_j()) << ','
                << stats.transfers.bytes_moved << ','
                << stats.failed_attempts << '\n';
    } else {
      std::cout << wf.describe() << '\n'
                << stats.summary(platform) << '\n';
    }
    if (cli.flag("utilization")) {
      std::cout << trace::utilization_report(runtime.tracer(), platform);
    }
    if (cli.flag("gantt")) {
      std::cout << runtime.tracer().ascii_gantt(platform);
    }
    if (cli.flag("analyze")) {
      std::cout << core::critical_path_report(
          core::analyze_schedule(runtime));
    }
    if (!cli.value("gantt-svg").empty()) {
      trace::SvgOptions svg;
      svg.title = wf.name() + " on " + platform.name() + " (" +
                  cli.value("sched") + ")";
      trace::save_svg(runtime.tracer(), platform, cli.value("gantt-svg"),
                      svg);
      std::cout << "SVG written to " << cli.value("gantt-svg") << '\n';
    }
    if (!cli.value("audit-out").empty()) {
      check::save_audit(check::snapshot_audit(runtime),
                        cli.value("audit-out"));
      std::cout << "audit snapshot written to " << cli.value("audit-out")
                << '\n';
    }
    if (!cli.value("trace-json").empty()) {
      write_file(cli.value("trace-json"),
                 obs::chrome_trace_json(runtime.tracer(), platform, nullptr),
                 "trace");
    }
    if (!cli.value("metrics-out").empty()) {
      write_file(cli.value("metrics-out"),
                 runtime.recorder()->metrics().to_json_string(),
                 "metrics snapshot");
    }
    if (!cli.value("metrics-csv").empty()) {
      write_file(cli.value("metrics-csv"),
                 runtime.recorder()->metrics().to_csv(), "metrics CSV");
    }
    if (!cli.value("chrome-trace").empty()) {
      write_file(cli.value("chrome-trace"),
                 obs::chrome_trace_json(runtime.tracer(), platform,
                                        runtime.recorder()),
                 "merged Chrome trace");
    }
    if (!cli.value("decision-log").empty()) {
      write_file(cli.value("decision-log"),
                 runtime.recorder()->decisions_jsonl(platform),
                 "decision log");
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
