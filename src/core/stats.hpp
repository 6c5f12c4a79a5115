// Aggregate results of one runtime execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/manager.hpp"
#include "data/transfer.hpp"
#include "hw/platform.hpp"

namespace hetflow::core {

// Event counters are std::uint64_t, not std::size_t: campaign-scale runs
// accumulate well past 2^32 attempts across sweeps, and size_t is only
// guaranteed 16 bits. uint64_t makes the width explicit on every platform.
struct DeviceRunStats {
  hw::DeviceId device = 0;
  std::uint64_t tasks_assigned = 0;    ///< tasks queued on this device
  std::uint64_t tasks_completed = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t timeouts = 0;          ///< attempts cancelled by the watchdog
  std::uint64_t blacklist_events = 0;  ///< times this device was quarantined
  std::uint64_t retries = 0;           ///< failed attempts re-queued
  double busy_seconds = 0.0;     ///< compute time (successful + failed)
  double busy_energy_j = 0.0;    ///< energy while computing
  double idle_energy_j = 0.0;    ///< energy while idle over the makespan
};

struct RunStats {
  double makespan_s = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t failed_attempts = 0;
  /// Attempts cancelled for exceeding RetryPolicy::timeout_s (these are
  /// also counted in failed_attempts).
  std::uint64_t timeouts = 0;
  /// Tasks abandoned under ExhaustionPolicy::Drop, including the
  /// dependent subtrees of exhausted tasks.
  std::uint64_t tasks_lost = 0;
  /// Device quarantines triggered by RetryPolicy::blacklist_after.
  std::uint64_t blacklist_events = 0;
  /// Whole-node fault domains that fired (RuntimeOptions::node_faults).
  std::uint64_t node_failures = 0;
  /// Completed producers re-executed to regenerate data lost with a node.
  std::uint64_t tasks_resurrected = 0;
  /// Durable inputs re-materialized on a surviving node after a loss.
  std::uint64_t data_reseeded = 0;
  /// Dispatches parked at the device boundary waiting for a lost input's
  /// regeneration (each parked dispatch re-enters the scheduler).
  std::uint64_t tasks_parked = 0;
  std::vector<DeviceRunStats> devices;
  data::TransferStats transfers;
  data::DataManagerStats data;

  double total_busy_seconds() const noexcept;
  double busy_energy_j() const noexcept;
  double idle_energy_j() const noexcept;
  double total_energy_j() const noexcept {
    return busy_energy_j() + idle_energy_j();
  }
  /// Energy-delay product (J*s) — the energy-aware scheduling objective.
  double edp() const noexcept { return total_energy_j() * makespan_s; }
  /// Mean busy fraction across devices over the makespan.
  double mean_utilization() const noexcept;

  /// Multi-line human-readable summary.
  std::string summary(const hw::Platform& platform) const;
};

}  // namespace hetflow::core
