// Platform = the complete static description of one heterogeneous machine
// (or small cluster): memory nodes, devices, interconnect links and the
// routing between nodes. Built once via PlatformBuilder, then shared
// read-only by any number of simulations.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/device.hpp"
#include "hw/link.hpp"
#include "hw/memory.hpp"

namespace hetflow::hw {

/// Device ids, ascending, that the cost model cannot tell apart.
using DeviceClass = std::vector<DeviceId>;

class Platform {
 public:
  const std::string& name() const noexcept { return name_; }

  const std::vector<Device>& devices() const noexcept { return devices_; }
  const Device& device(DeviceId id) const;
  std::size_t device_count() const noexcept { return devices_.size(); }

  const std::vector<MemoryNode>& memory_nodes() const noexcept {
    return nodes_;
  }
  const MemoryNode& memory_node(MemoryNodeId id) const;
  std::size_t memory_node_count() const noexcept { return nodes_.size(); }

  const std::vector<Link>& links() const noexcept { return links_; }
  const Link& link(LinkId id) const;

  /// Direct link from `src` to `dst`, if any.
  std::optional<LinkId> link_between(MemoryNodeId src, MemoryNodeId dst) const;

  /// Minimum-latency-sum route from `src` to `dst` as a sequence of link
  /// ids (empty when src == dst). Routes are precomputed with Dijkstra
  /// over link latency at build time. Throws InvalidArgument when the
  /// nodes are not connected.
  const std::vector<LinkId>& route(MemoryNodeId src, MemoryNodeId dst) const;

  /// True if every node can reach every other node.
  bool fully_connected() const noexcept { return fully_connected_; }

  /// Uncontended end-to-end transfer time over the route src -> dst.
  double transfer_time_s(MemoryNodeId src, MemoryNodeId dst,
                         std::uint64_t bytes) const;

  /// Devices of one type, in id order.
  std::vector<DeviceId> devices_of_type(DeviceType type) const;

  /// Devices executing out of a given memory node, in id order.
  std::vector<DeviceId> devices_on_node(MemoryNodeId node) const;

  /// The devices partitioned into classes of equal type, peak_gflops,
  /// launch overhead, DVFS table and nominal index, and memory node,
  /// ordered by lowest member id. Every device-dependent term of an
  /// execution or data-ready estimate is a function of this key, so a
  /// scheduler may score one member per class (sched/placement.hpp).
  /// Computed once at build().
  const std::vector<DeviceClass>& device_classes() const noexcept {
    return classes_;
  }
  /// Index into device_classes() of the class holding device `id`.
  std::size_t class_of(DeviceId id) const noexcept { return class_of_[id]; }

  /// Sum of peak_gflops over all devices (capacity upper bound used by
  /// area/throughput lower-bound computations).
  double total_gflops() const noexcept;

  /// Human-readable one-line-per-component description.
  std::string describe() const;

 private:
  friend class PlatformBuilder;
  friend class Cluster;         // holds an empty flat view until built
  friend class ClusterBuilder;  // assembles the flat view in place
  Platform() = default;

  std::string name_;
  std::vector<Device> devices_;
  std::vector<MemoryNode> nodes_;
  std::vector<Link> links_;
  std::map<std::pair<MemoryNodeId, MemoryNodeId>, LinkId> link_index_;
  // routes_[src * node_count + dst]
  std::vector<std::vector<LinkId>> routes_;
  bool fully_connected_ = true;
  std::vector<DeviceClass> classes_;
  std::vector<std::size_t> class_of_;  // device id -> index in classes_

  void compute_routes();
  void compute_classes();
};

/// Fluent builder with validation at build().
class PlatformBuilder {
 public:
  explicit PlatformBuilder(std::string name);

  /// Adds a memory pool. Returns its id (dense, starting at 0).
  MemoryNodeId add_memory_node(const std::string& name,
                               std::uint64_t capacity_bytes);

  /// Adds a processing element executing out of `memory_node`.
  DeviceId add_device(const std::string& name, DeviceType type,
                      double peak_gflops, MemoryNodeId memory_node,
                      double launch_overhead_s = 0.0);

  /// Sets DVFS operating points of the most recently added device.
  PlatformBuilder& with_dvfs(std::vector<DvfsState> states,
                             std::size_t nominal_index);

  /// Adds a link; when `bidirectional`, also adds the reverse direction
  /// with identical parameters.
  PlatformBuilder& add_link(MemoryNodeId a, MemoryNodeId b,
                            double bandwidth_gbps, double latency_s,
                            bool bidirectional = true);

  /// Validates and finalizes. Requirements: >= 1 device, >= 1 memory
  /// node, every device's node exists, no duplicate directed link.
  Platform build();

 private:
  Platform platform_;
  bool built_ = false;
};

}  // namespace hetflow::hw
