// Test oracle for the eviction walk in DataManager::ensure_capacity
// (data/manager.cpp).
//
// reference_resident lists a node's valid replicas by its own scan of
// every handle id, so the oracle shares no residency code with the
// directory it checks. reference_victim_order is the victim selection
// the eviction index replaced: scan every replica resident on the node,
// drop pinned ones and those of the current acquire, and stable-sort
// the rest by last-use stamp (the scan is in id order, so ties — the
// never-touched replicas, stamp 0 — stay in id order, ahead of every
// touched one).
//
// ReferenceDataManager is the DataManager built on that selection: the
// same operations, over its own directory, ledger (pins and stamps only;
// it never builds an eviction index) and transfer engine. It logs every
// victim in eviction order and counts the paths a stream exercised.
// Tests drive it and a DataManager with one operation stream and compare
// results, victims, statistics and every replica after each call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/allocator.hpp"
#include "data/coherence.hpp"
#include "data/handle.hpp"
#include "data/manager.hpp"
#include "data/transfer.hpp"
#include "hw/platform.hpp"
#include "sim/event_queue.hpp"
#include "util/strings.hpp"

namespace hetflow::testing {

/// Handles 0 .. data_count-1 with a valid replica on `node`, ascending.
inline std::vector<data::DataId> reference_resident(
    const data::CoherenceDirectory& directory, std::size_t data_count,
    hw::MemoryNodeId node) {
  std::vector<data::DataId> ids;
  for (std::size_t data = 0; data < data_count; ++data) {
    if (directory.has_valid_replica(static_cast<data::DataId>(data), node)) {
      ids.push_back(static_cast<data::DataId>(data));
    }
  }
  return ids;
}

/// Replicas resident on `node` in victim order, minus pinned replicas
/// and those named in `do_not_evict`.
inline std::vector<data::DataId> reference_victim_order(
    const data::CoherenceDirectory& directory, std::size_t data_count,
    const data::MemoryLedger& ledger, hw::MemoryNodeId node,
    std::span<const data::Access> do_not_evict) {
  std::vector<data::DataId> candidates;
  for (const data::DataId data :
       reference_resident(directory, data_count, node)) {
    if (ledger.pinned(data, node)) {
      continue;
    }
    const bool in_use =
        std::any_of(do_not_evict.begin(), do_not_evict.end(),
                    [&](const data::Access& a) { return a.data == data; });
    if (!in_use) {
      candidates.push_back(data);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](data::DataId a, data::DataId b) {
                     return ledger.last_use(a, node) <
                            ledger.last_use(b, node);
                   });
  return candidates;
}

/// How often a stream took each eviction-relevant path.
struct EvictionCoverage {
  std::uint64_t pinned_skips = 0;      ///< resident but pinned
  std::uint64_t in_use_skips = 0;      ///< part of the current acquire
  std::uint64_t home_keeps = 0;        ///< the home copy, kept
  std::uint64_t writebacks = 0;
  std::uint64_t stale_home_revalidations = 0;  ///< write-back, old stamp
  std::uint64_t refetches = 0;         ///< fetch of a once-valid replica
  std::uint64_t acquire_exhausted = 0;
  std::uint64_t prefetch_exhausted = 0;
};

/// One victim, in eviction order.
struct Victim {
  hw::MemoryNodeId node = 0;
  data::DataId data = 0;
  bool operator==(const Victim&) const = default;
};

class ReferenceDataManager {
 public:
  ReferenceDataManager(const hw::Platform& platform, sim::EventQueue& queue)
      : platform_(&platform),
        directory_(platform, registry_),
        transfers_(platform, queue),
        ledger_(platform),
        node_stats_(platform.memory_node_count()) {}

  data::DataId register_data(std::string_view name, std::uint64_t bytes,
                             hw::MemoryNodeId home_node) {
    const data::DataId id = registry_.register_data(name, bytes, home_node);
    directory_.note_registered(registry_.handle(id));
    in_flight_.resize(registry_.count() * platform_->memory_node_count(),
                      kNotInFlight);
    return id;
  }

  const data::CoherenceDirectory& directory() const { return directory_; }
  const data::MemoryLedger& ledger() const { return ledger_; }
  const data::TransferEngine& transfers() const { return transfers_; }
  const std::vector<data::DataManagerStats>& node_stats() const {
    return node_stats_;
  }
  const EvictionCoverage& coverage() const { return coverage_; }
  /// Handles valid on `node`, by the oracle's own id scan.
  std::vector<data::DataId> resident(hw::MemoryNodeId node) const {
    return reference_resident(directory_, registry_.count(), node);
  }
  /// Victims since the last call, in eviction order.
  std::vector<Victim> take_victims() { return std::move(victims_); }

  sim::SimTime acquire(std::span<const data::Access> accesses,
                       hw::MemoryNodeId node, sim::SimTime earliest) {
    sim::SimTime ready = earliest;
    for (const data::Access& access : accesses) {
      const bool local = directory_.has_valid_replica(access.data, node);
      sim::SimTime& flight = in_flight_[slot(access.data, node)];
      if (flight != kNotInFlight) {
        if (data::is_read(access.mode)) {
          ready = std::max(ready, flight);
        }
        flight = kNotInFlight;
      } else if (!local) {
        const data::DataHandle& handle = registry_.handle(access.data);
        if (data::is_read(access.mode) && handle.bytes > 0) {
          try {
            ensure_capacity(node, handle.bytes, earliest, accesses);
          } catch (const ResourceExhausted&) {
            ++coverage_.acquire_exhausted;
            throw;
          }
          if (ledger_.last_use(access.data, node) > 0) {
            ++coverage_.refetches;
          }
          const hw::MemoryNodeId source =
              directory_.pick_source(access.data, node);
          const sim::SimTime done =
              transfers_.transfer(source, node, handle.bytes, earliest);
          ++node_stats_[node].fetches;
          if (directory_.state(access.data, source) ==
              data::ReplicaState::Modified) {
            directory_.mark_shared(access.data, source);
          }
          directory_.mark_shared(access.data, node);
          ready = std::max(ready, done);
        } else if (handle.bytes > 0) {
          try {
            ensure_capacity(node, handle.bytes, earliest, accesses);
          } catch (const ResourceExhausted&) {
            ++coverage_.acquire_exhausted;
            throw;
          }
          directory_.mark_shared(access.data, node);
        }
      }
      if (data::is_write(access.mode)) {
        directory_.mark_modified(access.data, node, [](hw::MemoryNodeId) {});
      }
      ledger_.pin(access.data, node);
      ledger_.touch(access.data, node);
    }
    return ready;
  }

  void release(std::span<const data::Access> accesses,
               hw::MemoryNodeId node) {
    for (const data::Access& access : accesses) {
      ledger_.unpin(access.data, node);
    }
  }

  void prefetch(std::span<const data::Access> accesses,
                hw::MemoryNodeId node, sim::SimTime earliest) {
    for (const data::Access& access : accesses) {
      if (!data::is_read(access.mode)) {
        continue;
      }
      const data::DataHandle& handle = registry_.handle(access.data);
      const bool local = directory_.has_valid_replica(access.data, node);
      const bool already_in_flight =
          in_flight_[slot(access.data, node)] != kNotInFlight;
      if (!local && !already_in_flight && handle.bytes > 0 &&
          directory_.any_valid(access.data)) {
        try {
          ensure_capacity(node, handle.bytes, earliest, accesses);
        } catch (const ResourceExhausted&) {
          ++coverage_.prefetch_exhausted;
          ledger_.pin(access.data, node);
          ledger_.touch(access.data, node);
          continue;
        }
        const hw::MemoryNodeId source =
            directory_.pick_source(access.data, node);
        const sim::SimTime done =
            transfers_.transfer(source, node, handle.bytes, earliest);
        ++node_stats_[node].fetches;
        ++node_stats_[node].prefetches;
        if (directory_.state(access.data, source) ==
            data::ReplicaState::Modified) {
          directory_.mark_shared(access.data, source);
        }
        directory_.mark_shared(access.data, node);
        in_flight_[slot(access.data, node)] = done;
      }
      ledger_.pin(access.data, node);
      ledger_.touch(access.data, node);
    }
  }

  void release_prefetch(std::span<const data::Access> accesses,
                        hw::MemoryNodeId node) {
    for (const data::Access& access : accesses) {
      if (data::is_read(access.mode)) {
        ledger_.unpin(access.data, node);
      }
    }
  }

  std::vector<data::DataId> invalidate_node(hw::MemoryNodeId node) {
    std::vector<data::DataId> lost;
    for (const data::DataId data : resident(node)) {
      if (directory_.valid_count(data) == 1) {
        lost.push_back(data);
      }
      directory_.mark_invalid(data, node);
    }
    for (std::size_t data = 0; data < registry_.count(); ++data) {
      in_flight_[slot(static_cast<data::DataId>(data), node)] = kNotInFlight;
    }
    ledger_.clear_node(node);
    return lost;
  }

  void reseed(data::DataId data, hw::MemoryNodeId node,
              sim::SimTime earliest) {
    const data::DataHandle& handle = registry_.handle(data);
    if (handle.bytes > 0) {
      ensure_capacity(node, handle.bytes, earliest, {});
    }
    directory_.mark_shared(data, node);
    ledger_.touch(data, node);
  }

 private:
  static constexpr sim::SimTime kNotInFlight = -1.0;

  const hw::Platform* platform_;
  data::DataRegistry registry_;
  data::CoherenceDirectory directory_;
  data::TransferEngine transfers_;
  data::MemoryLedger ledger_;
  std::vector<data::DataManagerStats> node_stats_;
  std::vector<sim::SimTime> in_flight_;
  std::vector<Victim> victims_;
  EvictionCoverage coverage_;

  std::size_t slot(data::DataId data, hw::MemoryNodeId node) const {
    return static_cast<std::size_t>(data) * platform_->memory_node_count() +
           node;
  }

  void count_skips(hw::MemoryNodeId node,
                   std::span<const data::Access> do_not_evict) {
    for (const data::DataId data : resident(node)) {
      if (ledger_.pinned(data, node)) {
        ++coverage_.pinned_skips;
      } else if (std::any_of(do_not_evict.begin(), do_not_evict.end(),
                             [&](const data::Access& a) {
                               return a.data == data;
                             })) {
        ++coverage_.in_use_skips;
      }
    }
  }

  void write_back(data::DataId victim, hw::MemoryNodeId node,
                  hw::MemoryNodeId home, sim::SimTime earliest) {
    transfers_.transfer(node, home, registry_.handle(victim).bytes,
                        earliest);
    ++node_stats_[node].writebacks;
    ++coverage_.writebacks;
    if (!directory_.has_valid_replica(victim, home) &&
        ledger_.last_use(victim, home) > 0) {
      ++coverage_.stale_home_revalidations;
    }
  }

  void ensure_capacity(hw::MemoryNodeId node, std::uint64_t needed,
                       sim::SimTime earliest,
                       std::span<const data::Access> do_not_evict) {
    const std::uint64_t capacity =
        platform_->memory_node(node).capacity_bytes();
    if (directory_.resident_bytes(node) + needed <= capacity) {
      return;
    }
    count_skips(node, do_not_evict);
    for (const data::DataId victim :
         reference_victim_order(directory_, registry_.count(), ledger_, node,
                                do_not_evict)) {
      if (directory_.resident_bytes(node) + needed <= capacity) {
        return;
      }
      const hw::MemoryNodeId home = registry_.handle(victim).home_node;
      if (directory_.state(victim, node) == data::ReplicaState::Modified) {
        if (home == node) {
          ++coverage_.home_keeps;
          continue;
        }
        write_back(victim, node, home, earliest);
        directory_.mark_shared(victim, node);
        directory_.mark_shared(victim, home);
      } else if (directory_.valid_count(victim) == 1) {
        if (home == node) {
          ++coverage_.home_keeps;
          continue;
        }
        write_back(victim, node, home, earliest);
        directory_.mark_shared(victim, home);
      }
      directory_.mark_invalid(victim, node);
      ++node_stats_[node].evictions;
      victims_.push_back({node, victim});
    }
    if (directory_.resident_bytes(node) + needed > capacity) {
      throw ResourceExhausted(util::format(
          "memory node %u ('%s') cannot fit %llu more bytes (resident %llu "
          "of %llu)",
          node, platform_->memory_node(node).name().c_str(),
          static_cast<unsigned long long>(needed),
          static_cast<unsigned long long>(directory_.resident_bytes(node)),
          static_cast<unsigned long long>(capacity)));
    }
  }
};

}  // namespace hetflow::testing
