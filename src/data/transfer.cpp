#include "data/transfer.hpp"

#include <algorithm>
#include <cmath>

namespace hetflow::data {

TransferEngine::TransferEngine(const hw::Platform& platform,
                               sim::EventQueue& queue)
    : platform_(&platform),
      queue_(&queue),
      link_busy_until_(platform.links().size(), 0.0),
      link_bytes_(platform.links().size(), 0),
      routes_(platform.memory_node_count() * platform.memory_node_count()) {}

template <typename PerHop>
sim::SimTime TransferEngine::walk_route(hw::MemoryNodeId src,
                                        hw::MemoryNodeId dst,
                                        std::uint64_t bytes,
                                        sim::SimTime earliest,
                                        PerHop&& per_hop) const {
  if (src == dst) {
    return earliest;
  }
  sim::SimTime arrival = earliest;
  for (hw::LinkId link_id : platform_->route(src, dst)) {
    const hw::Link& link = platform_->link(link_id);
    const sim::SimTime start =
        std::max(arrival, link_busy_until_[link_id]);
    const sim::SimTime done = start + link.transfer_time_s(bytes);
    per_hop(link_id, start, done);
    arrival = done;
  }
  return arrival;
}

sim::SimTime TransferEngine::transfer(hw::MemoryNodeId src,
                                      hw::MemoryNodeId dst,
                                      std::uint64_t bytes,
                                      sim::SimTime earliest) {
  // Relative slack: at large sim times (e.g. ~1e7 s) one double ulp is
  // ~1.9e-9 s, far above any fixed 1e-12 margin, so a caller that is one
  // rounding error behind now would spuriously trip an absolute check.
  const sim::SimTime now = queue_->now();
  const sim::SimTime slack = 1e-12 * std::max(1.0, std::fabs(now));
  HETFLOW_REQUIRE_MSG(earliest >= now - slack,
                      "transfer cannot start in the past");
  sim::SimTime first_hop_start = earliest;
  bool first_hop = true;
  const sim::SimTime arrival = walk_route(
      src, dst, bytes, earliest,
      [&](hw::LinkId link_id, sim::SimTime start, sim::SimTime done) {
        if (first_hop) {
          first_hop_start = start;
          first_hop = false;
        }
        link_busy_until_[link_id] = done;
        link_bytes_[link_id] += bytes;
        busy_seconds_ += done - start;
      });
  if (src != dst) {
    RouteStats& route = routes_[src * platform_->memory_node_count() + dst];
    ++route.transfers;
    route.bytes += bytes;
    if (recorder_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::Transfer;
      event.time = first_hop_start;
      event.duration = arrival - first_hop_start;
      event.src = static_cast<std::int64_t>(src);
      event.dst = static_cast<std::int64_t>(dst);
      event.bytes = bytes;
      recorder_->record(std::move(event));
    }
  }
  return arrival;
}

sim::SimTime TransferEngine::estimate(hw::MemoryNodeId src,
                                      hw::MemoryNodeId dst,
                                      std::uint64_t bytes,
                                      sim::SimTime earliest) const {
  return walk_route(src, dst, bytes, earliest,
                    [](hw::LinkId, sim::SimTime, sim::SimTime) {});
}

sim::SimTime TransferEngine::link_free_at(hw::LinkId link) const {
  HETFLOW_REQUIRE_MSG(link < link_busy_until_.size(), "link id out of range");
  return link_busy_until_[link];
}

TransferStats TransferEngine::stats() const {
  TransferStats out;
  for (const RouteStats& route : routes_) {
    out.transfer_count += route.transfers;
    out.bytes_moved += route.bytes;
  }
  for (const std::uint64_t bytes : link_bytes_) {
    out.bytes_link_hops += bytes;
  }
  out.busy_seconds = busy_seconds_;
  return out;
}

std::uint64_t TransferEngine::link_bytes(hw::LinkId link) const {
  HETFLOW_REQUIRE_MSG(link < link_bytes_.size(), "link id out of range");
  return link_bytes_[link];
}

}  // namespace hetflow::data
