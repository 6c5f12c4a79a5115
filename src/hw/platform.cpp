#include "hw/platform.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>

#include "util/strings.hpp"

namespace hetflow::hw {

const Device& Platform::device(DeviceId id) const {
  HETFLOW_REQUIRE_MSG(id < devices_.size(), "device id out of range");
  return devices_[id];
}

const MemoryNode& Platform::memory_node(MemoryNodeId id) const {
  HETFLOW_REQUIRE_MSG(id < nodes_.size(), "memory node id out of range");
  return nodes_[id];
}

const Link& Platform::link(LinkId id) const {
  HETFLOW_REQUIRE_MSG(id < links_.size(), "link id out of range");
  return links_[id];
}

std::optional<LinkId> Platform::link_between(MemoryNodeId src,
                                             MemoryNodeId dst) const {
  const auto it = link_index_.find({src, dst});
  if (it == link_index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::vector<LinkId>& Platform::route(MemoryNodeId src,
                                           MemoryNodeId dst) const {
  HETFLOW_REQUIRE_MSG(src < nodes_.size() && dst < nodes_.size(),
                      "memory node id out of range");
  const std::vector<LinkId>& r = routes_[src * nodes_.size() + dst];
  if (src != dst && r.empty()) {
    throw InvalidArgument(util::format(
        "no route between memory nodes %u and %u on platform '%s'", src, dst,
        name_.c_str()));
  }
  return r;
}

double Platform::transfer_time_s(MemoryNodeId src, MemoryNodeId dst,
                                 std::uint64_t bytes) const {
  double total = 0.0;
  for (LinkId id : route(src, dst)) {
    total += links_[id].transfer_time_s(bytes);
  }
  return total;
}

std::vector<DeviceId> Platform::devices_of_type(DeviceType type) const {
  std::vector<DeviceId> out;
  for (const Device& d : devices_) {
    if (d.type() == type) {
      out.push_back(d.id());
    }
  }
  return out;
}

std::vector<DeviceId> Platform::devices_on_node(MemoryNodeId node) const {
  std::vector<DeviceId> out;
  for (const Device& d : devices_) {
    if (d.memory_node() == node) {
      out.push_back(d.id());
    }
  }
  return out;
}

double Platform::total_gflops() const noexcept {
  double total = 0.0;
  for (const Device& d : devices_) {
    total += d.peak_gflops();
  }
  return total;
}

std::string Platform::describe() const {
  std::ostringstream out;
  out << "platform '" << name_ << "': " << devices_.size() << " devices, "
      << nodes_.size() << " memory nodes, " << links_.size() << " links\n";
  for (const MemoryNode& n : nodes_) {
    out << "  mem[" << n.id() << "] " << n.name() << " ("
        << util::human_bytes(static_cast<double>(n.capacity_bytes())) << ")\n";
  }
  for (const Device& d : devices_) {
    out << "  dev[" << d.id() << "] " << d.name() << " ("
        << to_string(d.type()) << ", " << d.peak_gflops() << " GFLOPS, mem "
        << d.memory_node() << ", " << d.dvfs_states().size()
        << " dvfs states)\n";
  }
  for (const Link& l : links_) {
    out << "  link[" << l.id() << "] " << l.src() << " -> " << l.dst() << " ("
        << l.bandwidth_gbps() << " GB/s, "
        << util::human_seconds(l.latency_s()) << ")\n";
  }
  return out.str();
}

void Platform::compute_routes() {
  const std::size_t n = nodes_.size();
  routes_.assign(n * n, {});
  fully_connected_ = true;
  // Dijkstra from each source over link latency (+ tiny per-hop epsilon so
  // fewer hops win at equal latency).
  for (MemoryNodeId src = 0; src < n; ++src) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<LinkId> via_link(n, 0);
    std::vector<MemoryNodeId> via_node(n, src);
    std::vector<bool> done(n, false);
    dist[src] = 0.0;
    using Entry = std::pair<double, MemoryNodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    heap.push({0.0, src});
    while (!heap.empty()) {
      const auto [d, node] = heap.top();
      heap.pop();
      if (done[node]) {
        continue;
      }
      done[node] = true;
      for (const Link& link : links_) {
        if (link.src() != node) {
          continue;
        }
        const double cand = d + link.latency_s() + 1e-12;
        if (cand < dist[link.dst()]) {
          dist[link.dst()] = cand;
          via_link[link.dst()] = link.id();
          via_node[link.dst()] = node;
          heap.push({cand, link.dst()});
        }
      }
    }
    for (MemoryNodeId dst = 0; dst < n; ++dst) {
      if (dst == src) {
        continue;
      }
      if (!done[dst]) {
        fully_connected_ = false;
        continue;
      }
      std::vector<LinkId>& route = routes_[src * n + dst];
      for (MemoryNodeId cur = dst; cur != src; cur = via_node[cur]) {
        route.push_back(via_link[cur]);
      }
      std::reverse(route.begin(), route.end());
    }
  }
}

namespace {

bool same_dvfs_state(const DvfsState& a, const DvfsState& b) {
  return a.frequency_ghz == b.frequency_ghz && a.busy_watts == b.busy_watts &&
         a.idle_watts == b.idle_watts;
}

/// True when `a` and `b` share the DeviceClass key.
bool same_class(const Device& a, const Device& b) {
  return a.type() == b.type() && a.peak_gflops() == b.peak_gflops() &&
         a.launch_overhead_s() == b.launch_overhead_s() &&
         a.memory_node() == b.memory_node() &&
         a.nominal_dvfs_index() == b.nominal_dvfs_index() &&
         std::equal(a.dvfs_states().begin(), a.dvfs_states().end(),
                    b.dvfs_states().begin(), b.dvfs_states().end(),
                    same_dvfs_state);
}

}  // namespace

void Platform::compute_classes() {
  classes_.clear();
  for (const Device& d : devices_) {
    const auto home =
        std::find_if(classes_.begin(), classes_.end(),
                     [&](const DeviceClass& c) {
                       return same_class(devices_[c.front()], d);
                     });
    if (home != classes_.end()) {
      home->push_back(d.id());
    } else {
      classes_.push_back({d.id()});
    }
  }
}

PlatformBuilder::PlatformBuilder(std::string name) {
  platform_.name_ = std::move(name);
}

MemoryNodeId PlatformBuilder::add_memory_node(const std::string& name,
                                              std::uint64_t capacity_bytes) {
  HETFLOW_REQUIRE_MSG(!built_, "builder already consumed");
  const auto id = static_cast<MemoryNodeId>(platform_.nodes_.size());
  platform_.nodes_.emplace_back(id, name, capacity_bytes);
  return id;
}

DeviceId PlatformBuilder::add_device(const std::string& name, DeviceType type,
                                     double peak_gflops,
                                     MemoryNodeId memory_node,
                                     double launch_overhead_s) {
  HETFLOW_REQUIRE_MSG(!built_, "builder already consumed");
  HETFLOW_REQUIRE_MSG(memory_node < platform_.nodes_.size(),
                      "device references an unknown memory node");
  const auto id = static_cast<DeviceId>(platform_.devices_.size());
  platform_.devices_.emplace_back(id, name, type, peak_gflops, memory_node,
                                  launch_overhead_s);
  return id;
}

PlatformBuilder& PlatformBuilder::with_dvfs(std::vector<DvfsState> states,
                                            std::size_t nominal_index) {
  HETFLOW_REQUIRE_MSG(!platform_.devices_.empty(),
                      "with_dvfs requires a preceding add_device");
  platform_.devices_.back().set_dvfs_states(std::move(states), nominal_index);
  return *this;
}

PlatformBuilder& PlatformBuilder::add_link(MemoryNodeId a, MemoryNodeId b,
                                           double bandwidth_gbps,
                                           double latency_s,
                                           bool bidirectional) {
  HETFLOW_REQUIRE_MSG(!built_, "builder already consumed");
  HETFLOW_REQUIRE_MSG(a < platform_.nodes_.size() &&
                          b < platform_.nodes_.size(),
                      "link references an unknown memory node");
  const auto add_one = [&](MemoryNodeId src, MemoryNodeId dst) {
    HETFLOW_REQUIRE_MSG(
        platform_.link_index_.find({src, dst}) == platform_.link_index_.end(),
        "duplicate directed link");
    const auto id = static_cast<LinkId>(platform_.links_.size());
    platform_.links_.emplace_back(id, src, dst, bandwidth_gbps, latency_s);
    platform_.link_index_[{src, dst}] = id;
  };
  add_one(a, b);
  if (bidirectional) {
    add_one(b, a);
  }
  return *this;
}

Platform PlatformBuilder::build() {
  HETFLOW_REQUIRE_MSG(!built_, "builder already consumed");
  if (platform_.nodes_.empty()) {
    throw InvalidArgument("platform needs at least one memory node");
  }
  if (platform_.devices_.empty()) {
    throw InvalidArgument("platform needs at least one device");
  }
  platform_.compute_routes();
  platform_.compute_classes();
  built_ = true;
  return std::move(platform_);
}

}  // namespace hetflow::hw
