#include "data/manager.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace hetflow::data {

DataManager::DataManager(const hw::Platform& platform,
                         sim::EventQueue& queue)
    : platform_(&platform),
      ledger_(platform),
      directory_(platform, registry_, &ledger_),
      transfers_(platform, queue),
      node_stats_(platform.memory_node_count()) {}

DataManagerStats DataManager::stats() const {
  DataManagerStats out;
  for (const DataManagerStats& node : node_stats_) {
    out.evictions += node.evictions;
    out.writebacks += node.writebacks;
    out.fetches += node.fetches;
    out.prefetches += node.prefetches;
  }
  return out;
}

DataId DataManager::register_data(std::string_view name, std::uint64_t bytes,
                                  hw::MemoryNodeId home_node) {
  HETFLOW_REQUIRE_MSG(home_node < platform_->memory_node_count(),
                      "home node out of range");
  HETFLOW_REQUIRE_MSG(
      bytes <= platform_->memory_node(home_node).capacity_bytes(),
      "datum larger than its home memory node");
  const DataId id = registry_.register_data(name, bytes, home_node);
  directory_.note_registered(registry_.handle(id));
  // Ids are dense, so the new handle's per-node slots are exactly the
  // vector tail. Appended with inline push_backs: the generic
  // fill-insert is an out-of-line call per registration, and this runs
  // a million times in a large submit phase.
  const std::size_t nodes = platform_->memory_node_count();
  for (std::size_t n = 0; n < nodes; ++n) {
    in_flight_.push_back(kNotInFlight);
  }
  return id;
}

void DataManager::ensure_capacity(hw::MemoryNodeId node, std::uint64_t needed,
                                  sim::SimTime earliest,
                                  std::span<const Access> do_not_evict) {
  const std::uint64_t capacity =
      platform_->memory_node(node).capacity_bytes();
  if (directory_.resident_bytes(node) + needed <= capacity) {
    return;
  }
  if (!ledger_.indexed(node)) {
    ledger_.build_index(node, directory_.resident(node));
  }
  // Victims: least recent first, skipping pinned replicas and those of
  // the current acquire.
  ledger_.walk_lru(node, [&](DataId victim) {
    if (directory_.resident_bytes(node) + needed <= capacity) {
      return false;
    }
    const bool in_use =
        std::any_of(do_not_evict.begin(), do_not_evict.end(),
                    [&](const Access& a) { return a.data == victim; });
    if (in_use || ledger_.pinned(victim, node)) {
      return true;
    }
    if (directory_.state(victim, node) == ReplicaState::Modified ||
        directory_.valid_count(victim) == 1) {
      // The only up-to-date copy, or the last copy anywhere: write back
      // before dropping, or the data would be lost.
      const DataHandle& handle = registry_.handle(victim);
      if (handle.home_node == node) {
        return true;  // this IS the home copy — keep it
      }
      transfers_.transfer(node, handle.home_node, handle.bytes, earliest);
      ++node_stats_[node].writebacks;
      directory_.mark_shared(victim, handle.home_node);
    }
    directory_.mark_invalid(victim, node);
    ++node_stats_[node].evictions;
    return true;
  });
  if (directory_.resident_bytes(node) + needed > capacity) {
    throw ResourceExhausted(util::format(
        "memory node %u ('%s') cannot fit %llu more bytes (resident %llu of "
        "%llu)",
        node, platform_->memory_node(node).name().c_str(),
        static_cast<unsigned long long>(needed),
        static_cast<unsigned long long>(directory_.resident_bytes(node)),
        static_cast<unsigned long long>(capacity)));
  }
}

sim::SimTime DataManager::acquire(std::span<const Access> accesses,
                                  hw::MemoryNodeId node,
                                  sim::SimTime earliest) {
  HETFLOW_REQUIRE_MSG(node < platform_->memory_node_count(),
                      "memory node out of range");
  sim::SimTime ready = earliest;
  for (const Access& access : accesses) {
    const bool local = directory_.has_valid_replica(access.data, node);
    // An in-flight prefetch counts as "arriving": wait for it instead of
    // transferring again.
    sim::SimTime& flight = in_flight_[flight_key(access.data, node)];
    const bool arriving = flight != kNotInFlight;
    // Only the transfer paths need the handle row (bytes); the
    // everything-local fast path never touches the registry.
    const DataHandle* missing =
        arriving || local ? nullptr : &registry_.handle(access.data);
    const bool allocate = missing != nullptr && missing->bytes > 0;
    if (allocate) {
      ensure_capacity(node, missing->bytes, earliest, accesses);
    }
    // Stamped after the only throw and before the replica can become
    // valid, so a fresh replica enters an eviction index at its tail.
    ledger_.touch(access.data, node);
    if (arriving) {
      if (is_read(access.mode)) {
        ready = std::max(ready, flight);
      }
      flight = kNotInFlight;
    } else if (allocate && is_read(access.mode)) {
      const hw::MemoryNodeId source =
          directory_.pick_source(access.data, node);
      const sim::SimTime done =
          transfers_.transfer(source, node, missing->bytes, earliest);
      ++node_stats_[node].fetches;
      // MSI remote read: a Modified owner loses exclusivity but keeps
      // its (up-to-date) copy — both ends are Shared afterwards.
      if (directory_.state(access.data, source) == ReplicaState::Modified) {
        directory_.mark_shared(access.data, source);
      }
      directory_.mark_shared(access.data, node);
      ready = std::max(ready, done);
    } else if (allocate) {
      // Write-only: allocate space, no fetch of the stale value.
      directory_.mark_shared(access.data, node);  // placeholder until write
    }
    if (is_write(access.mode)) {
      directory_.mark_modified(
          access.data, node, [&](hw::MemoryNodeId other) {
            HETFLOW_REQUIRE_MSG(
                !ledger_.pinned(access.data, other),
                "invalidating a pinned replica — conflicting concurrent "
                "access (runtime dependency bug)");
          });
    }
    ledger_.pin(access.data, node);
  }
  return ready;
}

void DataManager::release(std::span<const Access> accesses,
                          hw::MemoryNodeId node) {
  for (const Access& access : accesses) {
    ledger_.unpin(access.data, node);
  }
}

void DataManager::prefetch(std::span<const Access> accesses,
                           hw::MemoryNodeId node, sim::SimTime earliest) {
  for (const Access& access : accesses) {
    if (!is_read(access.mode)) {
      continue;
    }
    const DataHandle& handle = registry_.handle(access.data);
    const bool local = directory_.has_valid_replica(access.data, node);
    const bool already_in_flight =
        in_flight_[flight_key(access.data, node)] != kNotInFlight;
    bool fetch = !local && !already_in_flight && handle.bytes > 0 &&
                 directory_.any_valid(access.data);
    if (fetch) {
      // Best-effort: deep queues can want more than the memory holds
      // (everything already prefetched is pinned). Skip rather than
      // fail — the execution-time acquire() fetches on demand once the
      // earlier tasks release their pins.
      try {
        ensure_capacity(node, handle.bytes, earliest, accesses);
      } catch (const ResourceExhausted&) {
        fetch = false;
      }
    }
    ledger_.touch(access.data, node);  // as in acquire()
    if (fetch) {
      const hw::MemoryNodeId source =
          directory_.pick_source(access.data, node);
      const sim::SimTime done =
          transfers_.transfer(source, node, handle.bytes, earliest);
      ++node_stats_[node].fetches;
      ++node_stats_[node].prefetches;
      if (recorder_ != nullptr) {
        obs::Event event;
        event.kind = obs::EventKind::Prefetch;
        event.time = earliest;
        event.src = static_cast<std::int64_t>(source);
        event.dst = static_cast<std::int64_t>(node);
        event.bytes = handle.bytes;
        event.name = handle.name;
        recorder_->record(std::move(event));
      }
      // Same MSI downgrade as acquire(): remote read ends exclusivity.
      if (directory_.state(access.data, source) == ReplicaState::Modified) {
        directory_.mark_shared(access.data, source);
      }
      directory_.mark_shared(access.data, node);
      in_flight_[flight_key(access.data, node)] = done;
    }
    // Pin regardless (also protects already-local replicas until start).
    ledger_.pin(access.data, node);
  }
}

void DataManager::release_prefetch(std::span<const Access> accesses,
                                   hw::MemoryNodeId node) {
  for (const Access& access : accesses) {
    if (is_read(access.mode)) {
      ledger_.unpin(access.data, node);
    }
  }
}

sim::SimTime DataManager::estimate_ready_time(
    std::span<const Access> accesses, hw::MemoryNodeId node,
    sim::SimTime earliest) const {
  sim::SimTime ready = earliest;
  for (const Access& access : accesses) {
    if (!is_read(access.mode)) {
      continue;
    }
    const DataHandle& handle = registry_.handle(access.data);
    if (handle.bytes == 0 ||
        directory_.has_valid_replica(access.data, node)) {
      continue;
    }
    if (!directory_.any_valid(access.data)) {
      continue;  // produced by a not-yet-run task; transfer unknowable
    }
    const hw::MemoryNodeId source = directory_.pick_source(access.data, node);
    ready = std::max(
        ready, transfers_.estimate(source, node, handle.bytes, earliest));
  }
  return ready;
}

std::vector<DataId> DataManager::invalidate_node(hw::MemoryNodeId node) {
  HETFLOW_REQUIRE_MSG(node < platform_->memory_node_count(),
                      "memory node out of range");
  std::vector<DataId> lost;
  for (const DataId data : directory_.resident(node)) {
    if (directory_.valid_count(data) == 1) {
      lost.push_back(data);
    }
    directory_.mark_invalid(data, node);
  }
  // Prefetches still in flight toward the dead node will never land.
  for (std::size_t data = 0; data < registry_.count(); ++data) {
    in_flight_[flight_key(static_cast<DataId>(data), node)] = kNotInFlight;
  }
  ledger_.clear_node(node);
  return lost;
}

void DataManager::reseed(DataId data, hw::MemoryNodeId node,
                         sim::SimTime earliest) {
  HETFLOW_REQUIRE_MSG(!directory_.any_valid(data),
                      "reseed of a datum that still has a valid replica");
  const DataHandle& handle = registry_.handle(data);
  if (handle.bytes > 0) {
    ensure_capacity(node, handle.bytes, earliest, {});
  }
  ledger_.touch(data, node);  // as in acquire()
  directory_.mark_shared(data, node);
}

std::uint64_t DataManager::missing_input_bytes(
    std::span<const Access> accesses, hw::MemoryNodeId node) const {
  std::uint64_t missing = 0;
  for (const Access& access : accesses) {
    if (!is_read(access.mode)) {
      continue;
    }
    if (!directory_.has_valid_replica(access.data, node)) {
      missing += registry_.handle(access.data).bytes;
    }
  }
  return missing;
}

}  // namespace hetflow::data
