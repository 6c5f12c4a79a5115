#include "data/coherence.hpp"

#include <limits>

namespace hetflow::data {

const char* to_string(AccessMode mode) noexcept {
  switch (mode) {
    case AccessMode::Read:
      return "R";
    case AccessMode::Write:
      return "W";
    case AccessMode::ReadWrite:
      return "RW";
    case AccessMode::Redux:
      return "RED";
  }
  return "?";
}

const char* to_string(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::Invalid:
      return "I";
    case ReplicaState::Shared:
      return "S";
    case ReplicaState::Modified:
      return "M";
  }
  return "?";
}

CoherenceDirectory::CoherenceDirectory(const hw::Platform& platform,
                                       const DataRegistry& registry,
                                       MemoryLedger* ledger)
    : platform_(&platform),
      registry_(&registry),
      ledger_(ledger),
      node_count_(platform.memory_node_count()),
      resident_bytes_(node_count_, 0) {
  sync_with_registry();
}

void CoherenceDirectory::sync_with_registry() {
  const std::size_t known = states_.size() / node_count_;
  const std::size_t total = registry_->count();
  if (known == total) {
    return;
  }
  states_.resize(total * node_count_, ReplicaState::Invalid);
  for (std::size_t id = known; id < total; ++id) {
    const DataHandle& handle = registry_->handle(static_cast<DataId>(id));
    set_state(handle.id, handle.home_node, ReplicaState::Shared);
  }
}

void CoherenceDirectory::check(DataId data, hw::MemoryNodeId node) const {
  HETFLOW_REQUIRE_MSG(
      static_cast<std::size_t>(data) * node_count_ + node < states_.size(),
      "coherence query out of range (missing sync_with_registry?)");
}

ReplicaState CoherenceDirectory::state(DataId data,
                                       hw::MemoryNodeId node) const {
  check(data, node);
  return states_[static_cast<std::size_t>(data) * node_count_ + node];
}

void CoherenceDirectory::set_state(DataId data, hw::MemoryNodeId node,
                                   ReplicaState next) {
  check(data, node);
  ReplicaState& slot =
      states_[static_cast<std::size_t>(data) * node_count_ + node];
  if (slot == next) {
    return;
  }
  const bool was_valid = slot != ReplicaState::Invalid;
  const bool now_valid = next != ReplicaState::Invalid;
  slot = next;
  if (was_valid == now_valid) {
    // Shared<->Modified transition: residency unchanged. Returning before
    // the handle lookup keeps the (randomly indexed) registry row out of
    // the write hot path.
    return;
  }
  const std::uint64_t bytes = registry_->handle(data).bytes;
  if (now_valid) {
    resident_bytes_[node] += bytes;
  } else {
    resident_bytes_[node] -= bytes;
  }
  report_residency(data, node, now_valid);
}

std::size_t CoherenceDirectory::valid_count(DataId data) const {
  std::size_t count = 0;
  for (hw::MemoryNodeId node = 0; node < node_count_; ++node) {
    count += has_valid_replica(data, node) ? 1 : 0;
  }
  return count;
}

bool CoherenceDirectory::any_valid(DataId data) const {
  for (hw::MemoryNodeId node = 0; node < node_count_; ++node) {
    if (has_valid_replica(data, node)) {
      return true;
    }
  }
  return false;
}

hw::MemoryNodeId CoherenceDirectory::pick_source(DataId data,
                                                 hw::MemoryNodeId dst) const {
  const std::uint64_t bytes = registry_->handle(data).bytes;
  double best_time = std::numeric_limits<double>::infinity();
  hw::MemoryNodeId best = 0;
  bool found = false;
  for (hw::MemoryNodeId node = 0; node < node_count_; ++node) {
    if (!has_valid_replica(data, node)) {
      continue;
    }
    const double t = platform_->transfer_time_s(node, dst, bytes);
    if (t < best_time) {
      best_time = t;
      best = node;
      found = true;
    }
  }
  HETFLOW_REQUIRE_MSG(found,
                      "pick_source: no valid replica for handle '" +
                          std::string(registry_->handle(data).name) + "'");
  return best;
}

void CoherenceDirectory::mark_shared(DataId data, hw::MemoryNodeId node) {
  // A modified owner downgrading to shared keeps its (up-to-date) copy.
  set_state(data, node, ReplicaState::Shared);
}

void CoherenceDirectory::mark_invalid(DataId data, hw::MemoryNodeId node) {
  set_state(data, node, ReplicaState::Invalid);
}

std::vector<DataId> CoherenceDirectory::resident(hw::MemoryNodeId node) const {
  HETFLOW_REQUIRE_MSG(node < node_count_, "memory node id out of range");
  std::vector<DataId> ids;
  for (std::size_t slot = node; slot < states_.size(); slot += node_count_) {
    if (states_[slot] != ReplicaState::Invalid) {
      ids.push_back(static_cast<DataId>(slot / node_count_));
    }
  }
  return ids;
}

std::uint64_t CoherenceDirectory::resident_bytes(hw::MemoryNodeId node) const {
  HETFLOW_REQUIRE_MSG(node < node_count_, "memory node id out of range");
  return resident_bytes_[node];
}

}  // namespace hetflow::data
