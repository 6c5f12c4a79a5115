#include "hw/platform.hpp"

#include <gtest/gtest.h>

#include "hw/cluster.hpp"
#include "hw/presets.hpp"
#include "util/error.hpp"

namespace hetflow::hw {
namespace {

constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;

Platform two_node_platform() {
  PlatformBuilder b("test");
  const MemoryNodeId host = b.add_memory_node("host", 8 * kGiB);
  const MemoryNodeId vram = b.add_memory_node("vram", 2 * kGiB);
  b.add_device("cpu0", DeviceType::Cpu, 10.0, host);
  b.add_device("gpu0", DeviceType::Gpu, 100.0, vram, 10e-6);
  b.add_link(host, vram, 10.0, 1e-6);
  return b.build();
}

TEST(PlatformBuilder, BuildValidPlatform) {
  const Platform p = two_node_platform();
  EXPECT_EQ(p.device_count(), 2u);
  EXPECT_EQ(p.memory_node_count(), 2u);
  EXPECT_EQ(p.links().size(), 2u);  // bidirectional -> two directed links
  EXPECT_TRUE(p.fully_connected());
  EXPECT_DOUBLE_EQ(p.total_gflops(), 110.0);
}

TEST(PlatformBuilder, RequiresDeviceAndNode) {
  {
    PlatformBuilder b("empty");
    EXPECT_THROW(b.build(), InvalidArgument);
  }
  {
    PlatformBuilder b("nodes-only");
    b.add_memory_node("m", kGiB);
    EXPECT_THROW(b.build(), InvalidArgument);
  }
}

TEST(PlatformBuilder, RejectsBadReferences) {
  PlatformBuilder b("bad");
  b.add_memory_node("m", kGiB);
  EXPECT_THROW(b.add_device("d", DeviceType::Cpu, 1.0, 7), InternalError);
  EXPECT_THROW(b.add_link(0, 9, 1.0, 0.0), InternalError);
}

TEST(PlatformBuilder, RejectsDuplicateLink) {
  PlatformBuilder b("dup");
  b.add_memory_node("a", kGiB);
  b.add_memory_node("b", kGiB);
  b.add_device("d", DeviceType::Cpu, 1.0, 0);
  b.add_link(0, 1, 1.0, 0.0);
  EXPECT_THROW(b.add_link(0, 1, 2.0, 0.0), InternalError);
}

TEST(PlatformBuilder, WithDvfsNeedsDevice) {
  PlatformBuilder b("dvfs");
  b.add_memory_node("m", kGiB);
  EXPECT_THROW(b.with_dvfs({{1.0, 5.0, 1.0}}, 0), InternalError);
}

TEST(PlatformBuilder, CannotBuildTwice) {
  PlatformBuilder b("once");
  b.add_memory_node("m", kGiB);
  b.add_device("d", DeviceType::Cpu, 1.0, 0);
  b.build();
  EXPECT_THROW(b.build(), InternalError);
}

TEST(Platform, LinkBetween) {
  const Platform p = two_node_platform();
  EXPECT_TRUE(p.link_between(0, 1).has_value());
  EXPECT_TRUE(p.link_between(1, 0).has_value());
  EXPECT_FALSE(p.link_between(0, 0).has_value());
}

TEST(Platform, RouteDirect) {
  const Platform p = two_node_platform();
  EXPECT_TRUE(p.route(0, 0).empty());
  const auto& route = p.route(0, 1);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(p.link(route[0]).src(), 0u);
  EXPECT_EQ(p.link(route[0]).dst(), 1u);
}

TEST(Platform, MultiHopRouting) {
  // a -- b -- c with no direct a-c link: route a->c goes through b.
  PlatformBuilder b("3node");
  const MemoryNodeId na = b.add_memory_node("a", kGiB);
  const MemoryNodeId nb = b.add_memory_node("b", kGiB);
  const MemoryNodeId nc = b.add_memory_node("c", kGiB);
  b.add_device("d", DeviceType::Cpu, 1.0, na);
  b.add_link(na, nb, 10.0, 1e-6);
  b.add_link(nb, nc, 10.0, 1e-6);
  const Platform p = b.build();
  const auto& route = p.route(na, nc);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(p.link(route[0]).src(), na);
  EXPECT_EQ(p.link(route[0]).dst(), nb);
  EXPECT_EQ(p.link(route[1]).src(), nb);
  EXPECT_EQ(p.link(route[1]).dst(), nc);
  EXPECT_TRUE(p.fully_connected());
}

TEST(Platform, RoutePrefersLowerLatency) {
  // Two routes a->c: direct high-latency vs 2-hop low-latency.
  PlatformBuilder b("routed");
  const MemoryNodeId na = b.add_memory_node("a", kGiB);
  const MemoryNodeId nb = b.add_memory_node("b", kGiB);
  const MemoryNodeId nc = b.add_memory_node("c", kGiB);
  b.add_device("d", DeviceType::Cpu, 1.0, na);
  b.add_link(na, nc, 10.0, 100e-6);  // slow direct
  b.add_link(na, nb, 10.0, 1e-6);
  b.add_link(nb, nc, 10.0, 1e-6);
  const Platform p = b.build();
  EXPECT_EQ(p.route(na, nc).size(), 2u);
}

TEST(Platform, DisconnectedNodesDetected) {
  PlatformBuilder b("split");
  b.add_memory_node("a", kGiB);
  b.add_memory_node("island", kGiB);
  b.add_device("d", DeviceType::Cpu, 1.0, 0);
  const Platform p = b.build();
  EXPECT_FALSE(p.fully_connected());
  EXPECT_THROW(p.route(0, 1), InvalidArgument);
}

TEST(Platform, TransferTime) {
  const Platform p = two_node_platform();
  // 10 GB/s, 1 us latency, 1e9 bytes -> 0.1 s + 1e-6.
  EXPECT_NEAR(p.transfer_time_s(0, 1, 1000000000ull), 0.100001, 1e-9);
  EXPECT_DOUBLE_EQ(p.transfer_time_s(0, 0, 12345), 0.0);
}

TEST(Platform, DeviceQueriesByTypeAndNode) {
  const Platform p = two_node_platform();
  EXPECT_EQ(p.devices_of_type(DeviceType::Cpu),
            (std::vector<DeviceId>{0}));
  EXPECT_EQ(p.devices_of_type(DeviceType::Gpu),
            (std::vector<DeviceId>{1}));
  EXPECT_TRUE(p.devices_of_type(DeviceType::Fpga).empty());
  EXPECT_EQ(p.devices_on_node(0), (std::vector<DeviceId>{0}));
  EXPECT_EQ(p.devices_on_node(1), (std::vector<DeviceId>{1}));
}

TEST(Platform, PresetDeviceClasses) {
  // 16 identical cores on host DRAM; each GPU has its own HBM node.
  std::vector<DeviceClass> hpc(1);
  for (DeviceId d = 0; d < 16; ++d) {
    hpc[0].push_back(d);
  }
  for (DeviceId g = 16; g < 20; ++g) {
    hpc.push_back({g});
  }
  EXPECT_EQ(make_hpc_node(16, 4).device_classes(), hpc);
  EXPECT_EQ(make_workstation().device_classes(),
            (std::vector<DeviceClass>{{0, 1, 2, 3}, {4}}));
}

TEST(Platform, ClusterFlatViewHasClassesPerNode) {
  // Every member's devices sit on that member's own memory nodes, so
  // the flat view splits per node: 4 cores and 1 GPU on each of 16.
  const Cluster cluster = make_hpc_cluster(16, 4, 1, 1.25);
  const std::vector<DeviceClass>& classes =
      cluster.platform().device_classes();
  ASSERT_EQ(classes.size(), 32u);
  for (DeviceId n = 0; n < 16; ++n) {
    const DeviceId first = 5 * n;
    EXPECT_EQ(classes[2 * n],
              (DeviceClass{first, first + 1, first + 2, first + 3}));
    EXPECT_EQ(classes[2 * n + 1], (DeviceClass{first + 4}));
    EXPECT_EQ(cluster.node_platform(n).device_classes(),
              (std::vector<DeviceClass>{{0, 1, 2, 3}, {4}}));
  }
}

TEST(Platform, EveryClassKeyFieldSplitsAClass) {
  PlatformBuilder b("near-duplicates");
  const MemoryNodeId host = b.add_memory_node("host", 8 * kGiB);
  const MemoryNodeId other = b.add_memory_node("other", 8 * kGiB);
  b.add_link(host, other, 10.0, 1e-6);
  const std::vector<DvfsState> dvfs{{1.0, 10.0, 1.0}, {2.0, 20.0, 2.0}};
  const auto cpu = [&](const std::string& name, double gflops,
                       MemoryNodeId node, double launch_s) {
    b.add_device(name, DeviceType::Cpu, gflops, node, launch_s);
  };
  cpu("base0", 10.0, host, 1e-6);
  b.with_dvfs(dvfs, 1);
  cpu("dvfs-watts", 10.0, host, 1e-6);
  b.with_dvfs({{1.0, 10.0, 1.0}, {2.0, 25.0, 2.0}}, 1);
  cpu("base1", 10.0, host, 1e-6);
  b.with_dvfs(dvfs, 1);
  cpu("nominal", 10.0, host, 1e-6);
  b.with_dvfs(dvfs, 0);
  cpu("launch", 10.0, host, 2e-6);
  b.with_dvfs(dvfs, 1);
  cpu("node", 10.0, other, 1e-6);
  b.with_dvfs(dvfs, 1);
  cpu("gflops", 11.0, host, 1e-6);
  b.with_dvfs(dvfs, 1);
  b.add_device("type", DeviceType::Gpu, 10.0, host, 1e-6);
  b.with_dvfs(dvfs, 1);
  const Platform p = b.build();
  EXPECT_EQ(p.device_classes(),
            (std::vector<DeviceClass>{{0, 2}, {1}, {3}, {4}, {5}, {6}, {7}}));
}

TEST(Platform, DescribeMentionsComponents) {
  const Platform p = two_node_platform();
  const std::string text = p.describe();
  EXPECT_NE(text.find("cpu0"), std::string::npos);
  EXPECT_NE(text.find("gpu0"), std::string::npos);
  EXPECT_NE(text.find("host"), std::string::npos);
  EXPECT_NE(text.find("2 devices"), std::string::npos);
}

TEST(Platform, OutOfRangeAccessorsThrow) {
  const Platform p = two_node_platform();
  EXPECT_THROW(p.device(9), InternalError);
  EXPECT_THROW(p.memory_node(9), InternalError);
  EXPECT_THROW(p.link(9), InternalError);
  EXPECT_THROW(p.route(0, 9), InternalError);
}

TEST(Link, TransferTimeFormula) {
  const Link l(0, 0, 1, 2.0, 5e-6);  // 2 GB/s
  EXPECT_NEAR(l.transfer_time_s(2000000000ull), 1.0 + 5e-6, 1e-12);
  EXPECT_DOUBLE_EQ(l.transfer_time_s(0), 5e-6);
}

TEST(Link, Validation) {
  EXPECT_THROW(Link(0, 1, 1, 1.0, 0.0), InternalError);   // same endpoints
  EXPECT_THROW(Link(0, 0, 1, 0.0, 0.0), InternalError);   // zero bandwidth
  EXPECT_THROW(Link(0, 0, 1, 1.0, -1.0), InternalError);  // negative latency
}

TEST(MemoryNode, Validation) {
  EXPECT_THROW(MemoryNode(0, "zero", 0), InternalError);
  const MemoryNode m(1, "ok", 42);
  EXPECT_EQ(m.capacity_bytes(), 42u);
  EXPECT_EQ(m.name(), "ok");
}

}  // namespace
}  // namespace hetflow::hw
