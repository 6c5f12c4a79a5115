#include "data/allocator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hetflow::data {

namespace {
/// Grows a flat directory so `slot` exists (doubling amortizes the
/// resize over handle registrations).
template <typename T>
T& grow_to(std::vector<T>& directory, std::size_t slot) {
  if (slot >= directory.size()) {
    directory.resize(std::max(slot + 1, directory.size() * 2));
  }
  return directory[slot];
}
}  // namespace

MemoryLedger::MemoryLedger(const hw::Platform& platform)
    : node_count_(platform.memory_node_count()), indexes_(node_count_) {}

void MemoryLedger::pin(DataId data, hw::MemoryNodeId node) {
  ++grow_to(pins_, key(data, node));
}

void MemoryLedger::unpin(DataId data, hw::MemoryNodeId node) {
  const std::size_t slot = key(data, node);
  HETFLOW_REQUIRE_MSG(slot < pins_.size() && pins_[slot] > 0,
                      "unpin without matching pin");
  --pins_[slot];
}

bool MemoryLedger::pinned(DataId data, hw::MemoryNodeId node) const {
  const std::size_t slot = key(data, node);
  return slot < pins_.size() && pins_[slot] > 0;
}

std::size_t MemoryLedger::pin_count(DataId data, hw::MemoryNodeId node) const {
  const std::size_t slot = key(data, node);
  return slot < pins_.size() ? pins_[slot] : 0;
}

void MemoryLedger::touch(DataId data, hw::MemoryNodeId node) {
  std::uint64_t& stamp = grow_to(last_use_, key(data, node));
  NodeIndex& index = indexes_[node];
  if (index.built && data < index.links.size() &&
      index.links[data].prev != kAbsent) {
    detach(data, node);
    append(index, data);  // the newest stamp, set below, belongs there
  }
  stamp = ++clock_;
}

void MemoryLedger::build_index(hw::MemoryNodeId node,
                               std::span<const DataId> resident) {
  NodeIndex& index = indexes_[node];
  index = NodeIndex{};
  index.built = true;
  std::vector<DataId> order(resident.begin(), resident.end());
  std::sort(order.begin(), order.end(), [&](DataId a, DataId b) {
    return order_key(a, node) < order_key(b, node);
  });
  for (const DataId data : order) {
    grow_to(index.links, data);
    append(index, data);
  }
}

void MemoryLedger::note_valid(DataId data, hw::MemoryNodeId node) {
  NodeIndex& index = indexes_[node];
  Link& link = grow_to(index.links, data);
  HETFLOW_REQUIRE_MSG(link.prev == kAbsent, "replica indexed twice");
  if (index.tail == kNil ||
      order_key(index.tail, node) < order_key(data, node)) {
    append(index, data);
  } else {
    index.stale.insert(order_key(data, node));
    link = {kStale, kStale};
  }
}

void MemoryLedger::note_invalid(DataId data, hw::MemoryNodeId node) {
  NodeIndex& index = indexes_[node];
  HETFLOW_REQUIRE_MSG(
      data < index.links.size() && index.links[data].prev != kAbsent,
      "replica missing from its node's eviction index");
  detach(data, node);
  index.links[data] = Link{};
}

void MemoryLedger::detach(DataId data, hw::MemoryNodeId node) {
  NodeIndex& index = indexes_[node];
  if (index.links[data].prev == kStale) {
    index.stale.erase(order_key(data, node));
  } else {
    unlink(index, data);
  }
}

void MemoryLedger::append(NodeIndex& index, DataId data) {
  index.links[data] = {index.tail, kNil};
  if (index.tail == kNil) {
    index.head = data;
  } else {
    index.links[index.tail].next = data;
  }
  index.tail = data;
}

void MemoryLedger::unlink(NodeIndex& index, DataId data) {
  const Link link = index.links[data];
  if (link.prev == kNil) {
    index.head = link.next;
  } else {
    index.links[link.prev].next = link.next;
  }
  if (link.next == kNil) {
    index.tail = link.prev;
  } else {
    index.links[link.next].prev = link.prev;
  }
}

void MemoryLedger::clear_node(hw::MemoryNodeId node) {
  for (std::size_t slot = node; slot < pins_.size(); slot += node_count_) {
    pins_[slot] = 0;
  }
  for (std::size_t slot = node; slot < last_use_.size();
       slot += node_count_) {
    last_use_[slot] = 0;
  }
  indexes_[node] = NodeIndex{};
}

}  // namespace hetflow::data
