#include "workflow/spec.hpp"

#include <cmath>
#include <limits>

#include "hw/presets.hpp"
#include "hw/serialize.hpp"
#include "util/strings.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/generators.hpp"
#include "workflow/linalg.hpp"

namespace hetflow::workflow {

namespace {

struct Spec {
  std::string text;
  std::string kind;
  std::vector<double> args;

  /// A real quantity (flops, a ratio, a spread): finite and non-negative.
  double arg(std::size_t index, double fallback) const {
    if (index >= args.size()) {
      return fallback;
    }
    const double value = args[index];
    if (!(value >= 0.0 && std::isfinite(value))) {
      throw ParseError(util::format(
          "argument %zu of spec '%s' must be a non-negative number, got %g",
          index + 1, text.c_str(), value));
    }
    return value;
  }
  /// A count, seed or byte size: a non-negative integer that fits.
  std::size_t arg_n(std::size_t index, std::size_t fallback) const {
    if (index >= args.size()) {
      return fallback;
    }
    const double value = args[index];
    // Negated so that NaN fails too.
    if (!(value >= 0.0 && value == std::floor(value) &&
          value < static_cast<double>(
                      std::numeric_limits<std::size_t>::max()))) {
      throw ParseError(util::format(
          "argument %zu of spec '%s' must be a non-negative integer, got %g",
          index + 1, text.c_str(), value));
    }
    return static_cast<std::size_t>(value);
  }
};

Spec parse_spec(const std::string& text) {
  Spec spec;
  spec.text = text;
  const std::size_t colon = text.find(':');
  spec.kind = text.substr(0, colon);
  if (colon != std::string::npos) {
    for (const std::string& field : util::split(text.substr(colon + 1), ',')) {
      if (field.empty()) {
        throw ParseError("empty argument in spec '" + text + "'");
      }
      spec.args.push_back(util::parse_scaled(field));
    }
  }
  return spec;
}

}  // namespace

Workflow make_workflow_from_spec(const std::string& text, double scale) {
  if (util::ends_with(text, ".dag")) {
    return load_dagfile(text);
  }
  const Spec spec = parse_spec(text);
  if (spec.kind == "montage") {
    return make_montage(spec.arg_n(0, 32), scale);
  }
  if (spec.kind == "epigenomics") {
    return make_epigenomics(spec.arg_n(0, 4), spec.arg_n(1, 8), scale);
  }
  if (spec.kind == "cybershake") {
    return make_cybershake(spec.arg_n(0, 4), spec.arg_n(1, 20), scale);
  }
  if (spec.kind == "ligo") {
    return make_ligo(spec.arg_n(0, 50), spec.arg_n(1, 8), scale);
  }
  if (spec.kind == "sipht") {
    return make_sipht(spec.arg_n(0, 20), spec.arg_n(1, 8), scale);
  }
  if (spec.kind == "cholesky") {
    return make_cholesky(spec.arg_n(0, 8), spec.arg_n(1, 2048));
  }
  if (spec.kind == "lu") {
    return make_lu(spec.arg_n(0, 8), spec.arg_n(1, 2048));
  }
  if (spec.kind == "layered") {
    return make_random_layered(spec.arg_n(0, 8), spec.arg_n(1, 6),
                               spec.arg(2, 1.0),
                               spec.arg_n(3, 1));
  }
  if (spec.kind == "forkjoin") {
    return make_fork_join(spec.arg_n(0, 16), spec.arg_n(1, 4),
                          spec.arg(2, 0.5),
                          spec.arg_n(3, 1));
  }
  if (spec.kind == "wavefront") {
    return make_wavefront(spec.arg_n(0, 8));
  }
  if (spec.kind == "chain") {
    return make_chain(spec.arg_n(0, 100), spec.arg(1, 1e8),
                      spec.arg_n(2, 1 << 20));
  }
  if (spec.kind == "bag") {
    return make_bag(spec.arg_n(0, 100), spec.arg(1, 1e8),
                    spec.arg_n(2, 1 << 20));
  }
  throw ParseError("unknown workflow spec '" + text + "'");
}

hw::Platform make_platform_from_spec(const std::string& text) {
  if (util::ends_with(text, ".json")) {
    return hw::load_platform(text);
  }
  const Spec spec = parse_spec(text);
  if (spec.kind == "workstation") {
    return hw::make_workstation();
  }
  if (spec.kind == "edge") {
    return hw::make_edge_node();
  }
  if (spec.kind == "cpu") {
    return hw::make_cpu_only(spec.arg_n(0, 8));
  }
  if (spec.kind == "hpc") {
    return hw::make_hpc_node(spec.arg_n(0, 16), spec.arg_n(1, 4),
                             spec.arg_n(2, 0));
  }
  if (spec.kind == "cluster") {
    return hw::make_cluster(spec.arg_n(0, 2), spec.arg_n(1, 8),
                            spec.arg_n(2, 2));
  }
  throw ParseError("unknown platform spec '" + text + "'");
}

hw::Cluster make_cluster_from_spec(const std::string& text) {
  if (util::ends_with(text, ".json")) {
    return hw::load_cluster(text);
  }
  const Spec spec = parse_spec(text);
  if (spec.kind == "cluster") {
    return hw::make_hpc_cluster(spec.arg_n(0, 2), spec.arg_n(1, 8),
                                spec.arg_n(2, 2));
  }
  throw ParseError("platform spec '" + text +
                   "' is not a cluster (expected cluster:N,C,G or a "
                   ".json cluster file)");
}

}  // namespace hetflow::workflow
