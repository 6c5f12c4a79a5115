#include "hw/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "hw/presets.hpp"

namespace hetflow::hw {
namespace {

void expect_platforms_equal(const Platform& a, const Platform& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.memory_node_count(), b.memory_node_count());
  ASSERT_EQ(a.device_count(), b.device_count());
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.memory_node_count(); ++i) {
    EXPECT_EQ(a.memory_node(static_cast<MemoryNodeId>(i)).name(),
              b.memory_node(static_cast<MemoryNodeId>(i)).name());
    EXPECT_EQ(a.memory_node(static_cast<MemoryNodeId>(i)).capacity_bytes(),
              b.memory_node(static_cast<MemoryNodeId>(i)).capacity_bytes());
  }
  for (std::size_t i = 0; i < a.device_count(); ++i) {
    const Device& da = a.device(static_cast<DeviceId>(i));
    const Device& db = b.device(static_cast<DeviceId>(i));
    EXPECT_EQ(da.name(), db.name());
    EXPECT_EQ(da.type(), db.type());
    EXPECT_DOUBLE_EQ(da.peak_gflops(), db.peak_gflops());
    EXPECT_EQ(da.memory_node(), db.memory_node());
    EXPECT_DOUBLE_EQ(da.launch_overhead_s(), db.launch_overhead_s());
    ASSERT_EQ(da.dvfs_states().size(), db.dvfs_states().size());
    EXPECT_EQ(da.nominal_dvfs_index(), db.nominal_dvfs_index());
    for (std::size_t s = 0; s < da.dvfs_states().size(); ++s) {
      EXPECT_DOUBLE_EQ(da.dvfs_states()[s].frequency_ghz,
                       db.dvfs_states()[s].frequency_ghz);
      EXPECT_DOUBLE_EQ(da.dvfs_states()[s].busy_watts,
                       db.dvfs_states()[s].busy_watts);
    }
  }
  EXPECT_EQ(a.device_classes(), b.device_classes());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].src(), b.links()[i].src());
    EXPECT_EQ(a.links()[i].dst(), b.links()[i].dst());
    EXPECT_DOUBLE_EQ(a.links()[i].bandwidth_gbps(),
                     b.links()[i].bandwidth_gbps());
    EXPECT_DOUBLE_EQ(a.links()[i].latency_s(), b.links()[i].latency_s());
  }
}

class PresetRoundTrip : public ::testing::TestWithParam<int> {
 public:
  static Platform make(int which) {
    switch (which) {
      case 0:
        return make_cpu_only(4);
      case 1:
        return make_workstation();
      case 2:
        return make_hpc_node(4, 2, 1);
      case 3:
        return make_edge_node();
      default:
        return make_cluster(2, 2, 1);
    }
  }
};

TEST_P(PresetRoundTrip, JsonPreservesEverything) {
  const Platform original = make(GetParam());
  const Platform reparsed = platform_from_json(to_json(original));
  expect_platforms_equal(original, reparsed);
}

TEST_P(PresetRoundTrip, RoundTripPreservesRouting) {
  const Platform original = make(GetParam());
  const Platform reparsed = platform_from_json(to_json(original));
  for (MemoryNodeId s = 0; s < original.memory_node_count(); ++s) {
    for (MemoryNodeId d = 0; d < original.memory_node_count(); ++d) {
      EXPECT_DOUBLE_EQ(original.transfer_time_s(s, d, 1 << 20),
                       reparsed.transfer_time_s(s, d, 1 << 20));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, PresetRoundTrip, ::testing::Range(0, 5));

TEST(PlatformJson, FileRoundTrip) {
  const Platform original = make_hpc_node(2, 1, 0);
  const std::string path = ::testing::TempDir() + "/hetflow_platform.json";
  save_platform(original, path);
  const Platform loaded = load_platform(path);
  expect_platforms_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(PlatformJson, RoundTripKeepsDeviceClasses) {
  // Three identical cores, one a DVFS table apart, one on another node.
  PlatformBuilder builder("near-duplicates");
  const MemoryNodeId host = builder.add_memory_node("host", 1ULL << 34);
  const MemoryNodeId far = builder.add_memory_node("far", 1ULL << 34);
  builder.add_link(host, far, 8.0, 2e-6);
  const std::vector<DvfsState> dvfs{{1.2, 7.0, 2.0}, {2.4, 15.0, 3.0}};
  for (int i = 0; i < 5; ++i) {
    builder.add_device("cpu" + std::to_string(i), DeviceType::Cpu, 12.0,
                       i == 4 ? far : host, 1e-6);
    builder.with_dvfs(i == 2 ? std::vector<DvfsState>{{1.2, 7.0, 2.5},
                                                      {2.4, 15.0, 3.0}}
                             : dvfs,
                      1);
  }
  const Platform original = builder.build();
  ASSERT_EQ(original.device_classes(),
            (std::vector<DeviceClass>{{0, 1, 3}, {2}, {4}}));
  const Platform reparsed = platform_from_json(to_json(original));
  EXPECT_EQ(reparsed.device_classes(), original.device_classes());
}

TEST(PlatformJson, ParseFromHandWrittenJson) {
  const Platform p = platform_from_json(util::Json::parse(R"({
    "name": "custom",
    "memory_nodes": [
      {"name": "host", "capacity_bytes": 1073741824},
      {"name": "acc", "capacity_bytes": 268435456}
    ],
    "devices": [
      {"name": "c0", "type": "cpu", "peak_gflops": 10, "memory_node": 0},
      {"name": "f0", "type": "fpga", "peak_gflops": 100, "memory_node": 1,
       "launch_overhead_s": 5e-05,
       "dvfs": {"nominal": 0, "states": [
         {"frequency_ghz": 0.25, "busy_watts": 20, "idle_watts": 4}]}}
    ],
    "links": [
      {"src": 0, "dst": 1, "bandwidth_gbps": 8, "latency_s": 1e-06,
       "bidirectional": true}
    ]
  })"));
  EXPECT_EQ(p.name(), "custom");
  EXPECT_EQ(p.device_count(), 2u);
  EXPECT_EQ(p.device(1).type(), DeviceType::Fpga);
  EXPECT_DOUBLE_EQ(p.device(1).launch_overhead_s(), 5e-5);
  EXPECT_EQ(p.links().size(), 2u);  // bidirectional expanded
  EXPECT_TRUE(p.fully_connected());
}

TEST(PlatformJson, MissingFieldsThrow) {
  EXPECT_THROW(platform_from_json(util::Json::parse("{}")), ParseError);
  EXPECT_THROW(platform_from_json(util::Json::parse(
                   R"({"memory_nodes": [], "devices": []})")),
               InvalidArgument);  // no nodes/devices
  EXPECT_THROW(
      platform_from_json(util::Json::parse(
          R"({"memory_nodes": [{"name": "m", "capacity_bytes": 1024}],
              "devices": [{"name": "d", "type": "warp-core",
                           "peak_gflops": 1, "memory_node": 0}]})")),
      ParseError);  // unknown device type
}

}  // namespace
}  // namespace hetflow::hw
