// CostModelCache — memoized (codelet, device) cost-model terms.
//
// Every scheduler candidate loop funnels through
// SchedContext::estimate_exec_seconds / estimate_completion /
// estimate_energy, and before this cache each call re-derived the same
// per-(codelet, device) constants: the analytic denominator
// peak_gflops * 1e9 * efficiency, the device's memory-node capacity and
// launch overhead, and — when the history model is on — a hash lookup of
// the calibrated seconds-per-flop keyed (codelet, device *type*), the
// Reshi/Tarema-style keying that makes the model memoizable at all. At
// 10^6 tasks × one to a few estimates per device class (five classes on
// the 20-device HPC node) that is millions of redundant recomputations.
//
// The cache stores one Entry per (codelet id, device id) in a flat arena
// indexed through a tiny open-addressing table keyed by codelet id (one
// integer probe on the hot path, no std::hash). Bitwise contract: an
// estimate computed through the cache is identical to the direct
// computation — the denominator is cached as the *exact* expression the
// analytic model evaluates (not its reciprocal; multiply-by-reciprocal
// rounds differently than divide), and the history term caches the mean
// seconds-per-flop, whose product with flops is precisely
// HistoryModel::estimate(). Checked per call against the direct formula
// by the test oracle in tests/memo_oracle.hpp.
//
// Invalidation: history drift is tracked automatically through
// HistoryModel::version() (each entry snapshots the generation it read).
// Platform mutations — DVFS table edits, capacity changes, device
// addition — are *not* observable from here; whoever mutates the
// platform must call invalidate() (Runtime::invalidate_cost_cache()
// re-exports it). The platform is immutable during a normal run, so the
// hot path never pays for that case.
#pragma once

#include <cstdint>
#include <vector>

#include "core/codelet.hpp"
#include "hw/platform.hpp"
#include "perf/history_model.hpp"

namespace hetflow::core {

class CostModelCache {
 public:
  struct Entry {
    /// peak_gflops * 1e9 * efficiency — the exact denominator
    /// Codelet::compute_seconds divides by. Valid only when supported.
    double denom = 0.0;
    double launch_overhead_s = 0.0;
    /// Calibrated mean seconds-per-flop, negative when uncalibrated
    /// (fall back to the analytic denominator).
    double hist_spf = -1.0;
    /// HistoryModel::version() at which hist_spf was snapshotted.
    std::uint64_t hist_gen = kNeverRefreshed;
    std::uint64_t capacity_bytes = 0;
    std::uint32_t nominal_dvfs = 0;
    bool supported = false;
  };

  /// Binds the cache to a platform. Entries are filled lazily per
  /// codelet; drops anything cached against a previous platform.
  void attach(const hw::Platform& platform) {
    platform_ = &platform;
    invalidate();
  }

  /// The entry for (codelet, device), refreshing its history snapshot if
  /// `history` (nullable — analytic-only runs pass nullptr) has recorded
  /// since the last read. The reference is invalidated by the next
  /// entry() call — read the fields before touching the cache again.
  const Entry& entry(const Codelet& codelet, const hw::Device& device,
                     const perf::HistoryModel* history) {
    Entry* row = find_row(codelet);
    Entry& slot = row[device.id()];
    if (history != nullptr && slot.supported &&
        slot.hist_gen != history->version()) {
      slot.hist_spf = history->seconds_per_flop(codelet.id(), device.type());
      slot.hist_gen = history->version();
    }
    return slot;
  }

  /// Drops every cached entry; they refill lazily. Must be called after
  /// any platform mutation (DVFS tables, capacities, device set) — see
  /// the invalidation contract above. The Runtime also calls this on
  /// every DeviceHealth blacklist transition (quarantine, probation,
  /// recovery): the cached terms themselves are health-independent, but
  /// dropping the memo on each transition keeps the contract simple and
  /// future-proofs any entry field that starts depending on health.
  void invalidate();

  /// Codelets currently cached (observability / tests).
  std::size_t cached_codelets() const noexcept { return filled_; }

  /// Times invalidate() has run since construction (observability /
  /// tests — regression coverage that health transitions drop the memo).
  std::uint64_t invalidations() const noexcept { return invalidations_; }

 private:
  static constexpr std::uint64_t kNeverRefreshed =
      0xffffffffffffffffULL;
  struct IndexSlot {
    std::uint32_t key = 0;  ///< codelet id + 1; 0 = empty
    std::uint32_t row = 0;  ///< offset into entries_ (units of Entry)
  };

  Entry* find_row(const Codelet& codelet) {
    if (index_.empty()) {
      grow_index();
    }
    const std::uint32_t key = codelet.id() + 1;
    std::size_t mask = index_.size() - 1;
    std::size_t pos = (codelet.id() * 2654435761U) & mask;
    while (true) {
      const IndexSlot& slot = index_[pos];
      if (slot.key == key) {
        return entries_.data() + slot.row;
      }
      if (slot.key == 0) {
        return fill_row(codelet);  // cold: first sight of this codelet
      }
      pos = (pos + 1) & mask;
    }
  }

  /// Appends a row of per-device entries for `codelet` and indexes it.
  Entry* fill_row(const Codelet& codelet);
  void grow_index();

  const hw::Platform* platform_ = nullptr;
  std::vector<Entry> entries_;     ///< filled_ rows × device_count
  std::vector<IndexSlot> index_;   ///< open addressing, power-of-two size
  std::size_t filled_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace hetflow::core
