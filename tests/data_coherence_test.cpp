#include "data/coherence.hpp"

#include "data/distributed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hetflow::data {
namespace {

constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;

struct Fixture {
  Fixture() : platform(make_platform()) {}

  static hw::Platform make_platform() {
    hw::PlatformBuilder b("coh");
    const auto host = b.add_memory_node("host", 8 * kGiB);
    const auto v0 = b.add_memory_node("v0", 2 * kGiB);
    const auto v1 = b.add_memory_node("v1", 2 * kGiB);
    b.add_device("cpu", hw::DeviceType::Cpu, 10.0, host);
    b.add_link(host, v0, 10.0, 1e-6);
    b.add_link(host, v1, 10.0, 1e-6);
    b.add_link(v0, v1, 50.0, 1e-6);  // fast peer link
    return b.build();
  }

  hw::Platform platform;
  DataRegistry registry;
};

TEST(Coherence, HomeCopyStartsShared) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  EXPECT_EQ(dir.state(d, 0), ReplicaState::Shared);
  EXPECT_EQ(dir.state(d, 1), ReplicaState::Invalid);
  EXPECT_TRUE(dir.any_valid(d));
  EXPECT_EQ(dir.valid_count(d), 1u);
}

TEST(Coherence, SyncPicksUpLateRegistrations) {
  Fixture f;
  CoherenceDirectory dir(f.platform, f.registry);
  const DataId d = f.registry.register_data("late", 64, 2);
  dir.sync_with_registry();
  EXPECT_EQ(dir.state(d, 2), ReplicaState::Shared);
}

TEST(Coherence, MarkSharedAddsReplica) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  dir.mark_shared(d, 1);
  EXPECT_EQ(dir.state(d, 1), ReplicaState::Shared);
  EXPECT_EQ(dir.state(d, 0), ReplicaState::Shared);
  EXPECT_EQ(dir.valid_count(d), 2u);
}

TEST(Coherence, MarkModifiedInvalidatesOthers) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  dir.mark_shared(d, 1);
  dir.mark_shared(d, 2);
  std::vector<hw::MemoryNodeId> invalidated;
  dir.mark_modified(d, 1, [&](hw::MemoryNodeId other) {
    // Reported before the replica goes.
    EXPECT_EQ(dir.state(d, other), ReplicaState::Shared);
    invalidated.push_back(other);
  });
  EXPECT_EQ(invalidated, (std::vector<hw::MemoryNodeId>{0, 2}));
  EXPECT_EQ(dir.valid_count(d), 1u);
  EXPECT_EQ(dir.state(d, 0), ReplicaState::Invalid);
  EXPECT_EQ(dir.state(d, 1), ReplicaState::Modified);
  EXPECT_EQ(dir.state(d, 2), ReplicaState::Invalid);
}

TEST(Coherence, ModifiedDowngradesToShared) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  dir.mark_modified(d, 1, [](hw::MemoryNodeId) {});
  dir.mark_shared(d, 1);
  EXPECT_EQ(dir.state(d, 1), ReplicaState::Shared);
  EXPECT_TRUE(dir.any_valid(d));
}

TEST(Coherence, PickSourcePrefersFastestRoute) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 1000000000, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  // Valid on host (slow to v1) and v0 (fast peer to v1).
  dir.mark_shared(d, 1);
  EXPECT_EQ(dir.pick_source(d, 2), 1u);
}

TEST(Coherence, PickSourceWithSingleReplica) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  EXPECT_EQ(dir.pick_source(d, 2), 0u);
}

TEST(Coherence, PickSourceNoReplicaThrows) {
  Fixture f;
  const DataId d = f.registry.register_data("A", 100, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  dir.mark_invalid(d, 0);
  EXPECT_FALSE(dir.any_valid(d));
  EXPECT_THROW(dir.pick_source(d, 1), util::InternalError);
}

TEST(Coherence, ResidentTracking) {
  Fixture f;
  const DataId a = f.registry.register_data("A", 100, 0);
  const DataId b = f.registry.register_data("B", 50, 0);
  CoherenceDirectory dir(f.platform, f.registry);
  EXPECT_EQ(dir.resident(0), (std::vector<DataId>{a, b}));
  EXPECT_EQ(dir.resident_bytes(0), 150u);
  EXPECT_TRUE(dir.resident(1).empty());
  dir.mark_shared(a, 1);
  EXPECT_EQ(dir.resident_bytes(1), 100u);
  dir.mark_invalid(a, 0);
  EXPECT_EQ(dir.resident(0), (std::vector<DataId>{b}));
  EXPECT_EQ(dir.resident_bytes(0), 50u);
}

TEST(Coherence, ReplicaStateToString) {
  EXPECT_STREQ(to_string(ReplicaState::Invalid), "I");
  EXPECT_STREQ(to_string(ReplicaState::Shared), "S");
  EXPECT_STREQ(to_string(ReplicaState::Modified), "M");
}

TEST(Coherence, QueriesBeforeSyncThrow) {
  Fixture f;
  CoherenceDirectory dir(f.platform, f.registry);
  f.registry.register_data("new", 10, 0);
  EXPECT_THROW(dir.state(0, 0), util::InternalError);
}

TEST(Coherence, DistributedViewGroupsMemoryNodes) {
  // Cluster node 0 = {host, v0}, cluster node 1 = {v1}.
  Fixture f;
  const DataId a = f.registry.register_data("A", 100, 0);
  const DataId b = f.registry.register_data("B", 30, 2);
  CoherenceDirectory dir(f.platform, f.registry);
  const DistributedDirectory view(dir, {0, 0, 1});
  const auto replicas = [&view](DataId data) {
    std::vector<std::size_t> nodes = {7};  // appended to, never cleared
    view.append_replica_nodes(data, nodes);
    nodes.erase(nodes.begin());
    return nodes;
  };
  EXPECT_EQ(replicas(a), (std::vector<std::size_t>{0}));
  EXPECT_EQ(replicas(b), (std::vector<std::size_t>{1}));

  dir.mark_shared(a, 1);  // a second replica inside cluster node 0
  EXPECT_EQ(replicas(a), (std::vector<std::size_t>{0}));
  dir.mark_shared(a, 2);
  EXPECT_EQ(replicas(a), (std::vector<std::size_t>{0, 1}));
  dir.mark_modified(a, 2, [](hw::MemoryNodeId) {});
  EXPECT_EQ(replicas(a), (std::vector<std::size_t>{1}));
  dir.mark_invalid(a, 2);
  EXPECT_TRUE(replicas(a).empty());
}

/// What resident() and resident_bytes() must report, computed from the
/// per-replica states alone.
void expect_residency_matches_states(const CoherenceDirectory& dir,
                                     const DataRegistry& registry,
                                     std::size_t nodes) {
  for (hw::MemoryNodeId node = 0; node < nodes; ++node) {
    std::vector<DataId> ids;
    std::uint64_t bytes = 0;
    for (DataId data = 0; data < registry.count(); ++data) {
      if (dir.has_valid_replica(data, node)) {
        ids.push_back(data);
        bytes += registry.handle(data).bytes;
      }
    }
    EXPECT_EQ(dir.resident(node), ids) << "node " << node;
    EXPECT_EQ(dir.resident_bytes(node), bytes) << "node " << node;
  }
}

TEST(CoherenceProperty, ResidencyFollowsRandomTransitions) {
  std::uint64_t low_revalidations = 0;  // below the node's highest valid id
  std::uint64_t fan_outs = 0;           // mark_modified dropping >= 2
  std::uint64_t modified_steps = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(util::format("seed %llu",
                              static_cast<unsigned long long>(seed)));
    Fixture f;
    const std::size_t nodes = f.platform.memory_node_count();
    ASSERT_GE(nodes, 3u);
    util::Rng rng(seed);
    const auto register_random = [&] {
      return f.registry.register_data(
          util::format("d%zu", f.registry.count()), 1 + rng.index(1000),
          static_cast<hw::MemoryNodeId>(rng.index(nodes)));
    };
    for (int i = 0; i < 24; ++i) {
      register_random();  // seeded by the constructor's sync
    }
    CoherenceDirectory dir(f.platform, f.registry);
    expect_residency_matches_states(dir, f.registry, nodes);
    for (int step = 0; step < 600 && !HasFailure(); ++step) {
      SCOPED_TRACE(util::format("step %d", step));
      const double pick = rng.uniform();
      if (pick < 0.04) {
        dir.note_registered(f.registry.handle(register_random()));
        expect_residency_matches_states(dir, f.registry, nodes);
        continue;
      }
      const auto data = static_cast<DataId>(rng.index(f.registry.count()));
      const auto node = static_cast<hw::MemoryNodeId>(rng.index(nodes));
      if (pick < 0.55) {
        const std::vector<DataId> before = dir.resident(node);
        if (!dir.has_valid_replica(data, node) && !before.empty() &&
            before.back() > data) {
          ++low_revalidations;
        }
        dir.mark_shared(data, node);
      } else if (pick < 0.80) {
        std::size_t dropped = 0;
        dir.mark_modified(data, node, [&](hw::MemoryNodeId other) {
          EXPECT_NE(other, node);
          EXPECT_TRUE(dir.has_valid_replica(data, other));
          ++dropped;
        });
        EXPECT_EQ(dir.valid_count(data), 1u);
        ++modified_steps;
        fan_outs += dropped >= 2 ? 1 : 0;
      } else {
        dir.mark_invalid(data, node);
      }
      expect_residency_matches_states(dir, f.registry, nodes);
    }
  }
  // The streams re-validate low ids after high ones and fan out writes.
  EXPECT_GT(low_revalidations, 100u);
  EXPECT_GT(modified_steps, 100u);
  EXPECT_GT(fan_outs, 50u);
}

}  // namespace
}  // namespace hetflow::data
