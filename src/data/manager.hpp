// DataManager — the façade the runtime talks to for everything data:
// registration, coherent acquisition of a task's operands on a memory
// node (issuing transfers, evictions and write-backs in simulated time),
// pinning for the duration of execution, and estimates for cost-aware
// schedulers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/access.hpp"
#include "data/allocator.hpp"
#include "data/coherence.hpp"
#include "data/handle.hpp"
#include "data/transfer.hpp"
#include "hw/platform.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"

namespace hetflow::data {

struct DataManagerStats {
  std::uint64_t evictions = 0;    ///< replicas dropped for capacity
  std::uint64_t writebacks = 0;   ///< modified replicas flushed to home
  std::uint64_t fetches = 0;      ///< replica fetch transfers issued
  std::uint64_t prefetches = 0;   ///< fetches issued ahead of execution
};

class DataManager {
 public:
  DataManager(const hw::Platform& platform, sim::EventQueue& queue);

  DataManager(const DataManager&) = delete;
  DataManager& operator=(const DataManager&) = delete;

  /// Registers a datum; its initial copy lives on `home_node`.
  DataId register_data(std::string_view name, std::uint64_t bytes,
                       hw::MemoryNodeId home_node = 0);

  const DataRegistry& registry() const noexcept { return registry_; }
  const CoherenceDirectory& directory() const noexcept { return directory_; }
  const TransferEngine& transfers() const noexcept { return transfers_; }
  const MemoryLedger& ledger() const noexcept { return ledger_; }
  /// Totals over every memory node (computed from node_stats()).
  DataManagerStats stats() const;
  /// Per memory node: fetches and prefetches count toward the
  /// destination, evictions and write-backs toward the evicting node.
  const std::vector<DataManagerStats>& node_stats() const noexcept {
    return node_stats_;
  }

  /// Observability sink (null = off); forwarded to the transfer engine.
  /// Prefetch instant events land here.
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
    transfers_.set_recorder(recorder);
  }

  /// Makes every access in `accesses` available on `node`, starting
  /// transfers no earlier than `earliest`. Pins all touched replicas (the
  /// caller must release() when the task completes). Returns the absolute
  /// simulated time at which the last required replica lands.
  ///
  /// Precondition (guaranteed by runtime dependency tracking): no other
  /// in-flight task holds a conflicting access to any of these handles.
  sim::SimTime acquire(std::span<const Access> accesses,
                       hw::MemoryNodeId node, sim::SimTime earliest);

  /// Unpins the replicas pinned by the matching acquire().
  void release(std::span<const Access> accesses, hw::MemoryNodeId node);

  /// Starts moving the Read inputs of a *queued* task toward `node` so the
  /// transfers overlap whatever the device is still executing. Only legal
  /// once the task is Ready (all producers done — the inputs are final).
  /// Pins every Read replica involved; pair with release_prefetch().
  /// Completion times are remembered so a later acquire() on `node` waits
  /// for in-flight arrivals instead of double-transferring.
  void prefetch(std::span<const Access> accesses, hw::MemoryNodeId node,
                sim::SimTime earliest);

  /// Releases the pins taken by the matching prefetch().
  void release_prefetch(std::span<const Access> accesses,
                        hw::MemoryNodeId node);

  /// Side-effect-free estimate of acquire()'s ready time (ignores
  /// capacity pressure; includes current link occupancy).
  sim::SimTime estimate_ready_time(std::span<const Access> accesses,
                                   hw::MemoryNodeId node,
                                   sim::SimTime earliest) const;

  /// Bytes among read accesses that are NOT yet valid on `node` — the
  /// data-locality metric used by dmda-style schedulers (0 = everything
  /// already local).
  std::uint64_t missing_input_bytes(std::span<const Access> accesses,
                                    hw::MemoryNodeId node) const;

  /// Node failure: drops every replica, pin and in-flight prefetch on
  /// `node`. Returns the data ids whose LAST valid replica lived there —
  /// the runtime must re-home each (re-seed a durable input or re-execute
  /// its producer) before any consumer dispatches. The caller must have
  /// killed all attempts pinned to this node first.
  std::vector<DataId> invalidate_node(hw::MemoryNodeId node);

  /// Re-materializes a lost *durable input* (a never-overwritten staged
  /// file whose content exists outside the simulated memories) as a
  /// Shared replica on `node`. Not legal for data with surviving
  /// replicas — those fetch normally.
  void reseed(DataId data, hw::MemoryNodeId node, sim::SimTime earliest);

 private:
  const hw::Platform* platform_;
  DataRegistry registry_;
  MemoryLedger ledger_;  ///< before directory_, which reports to it
  CoherenceDirectory directory_;
  TransferEngine transfers_;
  std::vector<DataManagerStats> node_stats_;
  obs::Recorder* recorder_ = nullptr;
  /// Flat (data, node) directory of in-flight prefetch completion times,
  /// kNotInFlight when none; consumed (reset) by the acquire() that waits
  /// on it. Indexed data * node_count + node, like the coherence
  /// directory — a load instead of a hash probe on every acquire.
  static constexpr sim::SimTime kNotInFlight = -1.0;
  std::vector<sim::SimTime> in_flight_;

  std::size_t flight_key(DataId data, hw::MemoryNodeId node) const {
    return static_cast<std::size_t>(data) * platform_->memory_node_count() +
           node;
  }

  /// Frees space on `node` until `needed` more bytes fit; evicts unpinned
  /// LRU replicas (write-back to home first when the victim is the sole
  /// valid copy) in the order of the node's eviction index, building the
  /// index the first time the node must evict. `earliest` anchors
  /// write-back transfers in time. Throws ResourceExhausted when pinned
  /// data alone exceeds capacity.
  void ensure_capacity(hw::MemoryNodeId node, std::uint64_t needed,
                       sim::SimTime earliest,
                       std::span<const Access> do_not_evict);
};

}  // namespace hetflow::data
