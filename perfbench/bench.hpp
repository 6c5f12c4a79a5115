// Shared plumbing of the hetflow benchmark binary: the result a workload
// hands back to main(), host timing, statistics and the determinism
// digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "timing.hpp"

namespace perfbench {

/// What main() parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A workload's answer: metrics for the requested mode, operation counts
/// and every failed output/premise check.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  /// Failed task attempts + lost tasks + workflows or jobs that threw.
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Human-readable lines printed before the JSON result (seed, digest,
  /// sample counts, refusals, tracing overhead).
  std::vector<std::string> notes;
  SpanLog spans;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (copy sorted).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) {
    return values[lo];
  }
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Host-time figures are rescaled to the reference speed per measured
/// section (see HostSpeed), then summarized over a run's passes by their
/// median.
inline double median(const std::vector<double>& per_pass) {
  return quantile(per_pass, 0.5);
}

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// FNV-1a over the bit patterns of simulated results: equal digests mean
/// bitwise-equal results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const noexcept { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

Outcome run_campaign_workload(const RunConfig& config);
Outcome run_serve_workload(const RunConfig& config);

}  // namespace perfbench
