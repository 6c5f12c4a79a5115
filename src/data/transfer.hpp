// Simulated data movement over the platform interconnect.
//
// Each link is a FIFO channel: a transfer occupies the link from its start
// until its completion; later transfers queue behind it. Multi-hop routes
// use store-and-forward (each hop starts when the previous one lands and
// the next link frees up) — pessimistic versus cut-through, which is the
// safe direction for schedule-quality claims.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/platform.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"

namespace hetflow::data {

struct TransferStats {
  std::uint64_t transfer_count = 0;
  std::uint64_t bytes_moved = 0;       ///< payload bytes summed over transfers
  std::uint64_t bytes_link_hops = 0;   ///< payload bytes summed over each hop
  double busy_seconds = 0.0;           ///< total link occupancy
};

/// Booked src != dst transfers of one (src, dst) route.
struct RouteStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
};

class TransferEngine {
 public:
  TransferEngine(const hw::Platform& platform, sim::EventQueue& queue);

  /// Books a transfer of `bytes` from node `src` to node `dst`, starting no
  /// earlier than `earliest`. Mutates link occupancy. Returns the absolute
  /// completion time. src == dst completes at `earliest`.
  sim::SimTime transfer(hw::MemoryNodeId src, hw::MemoryNodeId dst,
                        std::uint64_t bytes, sim::SimTime earliest);

  /// Completion time the transfer *would* have, without booking anything
  /// (used by cost-aware schedulers for estimates).
  sim::SimTime estimate(hw::MemoryNodeId src, hw::MemoryNodeId dst,
                        std::uint64_t bytes, sim::SimTime earliest) const;

  /// Time at which a link next becomes free.
  sim::SimTime link_free_at(hw::LinkId link) const;

  /// Totals over every route and link (computed from the tallies below).
  TransferStats stats() const;
  std::uint64_t link_bytes(hw::LinkId link) const;
  const RouteStats& route_stats(hw::MemoryNodeId src,
                                hw::MemoryNodeId dst) const {
    return routes_[src * platform_->memory_node_count() + dst];
  }

  /// Observability sink (null = off). Each booked src != dst transfer
  /// emits a Transfer event spanning first-hop start to arrival.
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  const hw::Platform* platform_;
  sim::EventQueue* queue_;
  obs::Recorder* recorder_ = nullptr;
  std::vector<sim::SimTime> link_busy_until_;
  std::vector<std::uint64_t> link_bytes_;
  /// routes_[src * node_count + dst]
  std::vector<RouteStats> routes_;
  double busy_seconds_ = 0.0;

  /// Walks the route from `src` to `dst`, computing each hop's occupancy
  /// window against the current link state without mutating it. `per_hop`
  /// is invoked as (link, start, done) for every hop — `transfer` books
  /// the hop from inside the callback, `estimate` passes a no-op — so the
  /// walk itself is const and `estimate` needs no const_cast.
  template <typename PerHop>
  sim::SimTime walk_route(hw::MemoryNodeId src, hw::MemoryNodeId dst,
                          std::uint64_t bytes, sim::SimTime earliest,
                          PerHop&& per_hop) const;
};

}  // namespace hetflow::data
