#include "data/manager.hpp"

#include <gtest/gtest.h>

namespace hetflow::data {
namespace {

constexpr std::uint64_t kMiB = 1024ull * 1024;

/// host (large) + device memory (small, 10 MiB) over a 10 GB/s link.
hw::Platform small_vram_platform() {
  hw::PlatformBuilder b("mgr");
  const auto host = b.add_memory_node("host", 1024 * kMiB);
  const auto vram = b.add_memory_node("vram", 10 * kMiB);
  b.add_device("cpu", hw::DeviceType::Cpu, 10.0, host);
  b.add_device("gpu", hw::DeviceType::Gpu, 100.0, vram);
  b.add_link(host, vram, 10.0, 1e-6);
  return b.build();
}

TEST(DataManager, RegisterValidatesAgainstPlatform) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  EXPECT_THROW(mgr.register_data("big", 100 * kMiB, 1),
               util::InternalError);  // larger than vram
  EXPECT_THROW(mgr.register_data("x", 1, 9), util::InternalError);
  EXPECT_NO_THROW(mgr.register_data("ok", kMiB, 0));
}

TEST(DataManager, ReadAcquireFetchesReplica) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> accesses = {{d, AccessMode::Read}};
  const double ready = mgr.acquire(accesses, 1, 0.0);
  EXPECT_GT(ready, 0.0);  // transfer took time
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Shared);
  EXPECT_EQ(mgr.directory().state(d, 0), ReplicaState::Shared);
  EXPECT_EQ(mgr.stats().fetches, 1u);
  mgr.release(accesses, 1);
}

TEST(DataManager, LocalReadIsInstant) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> accesses = {{d, AccessMode::Read}};
  EXPECT_DOUBLE_EQ(mgr.acquire(accesses, 0, 3.0), 3.0);
  EXPECT_EQ(mgr.stats().fetches, 0u);
  mgr.release(accesses, 0);
}

TEST(DataManager, WriteInvalidatesOtherReplicas) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> read = {{d, AccessMode::Read}};
  mgr.acquire(read, 1, 0.0);
  mgr.release(read, 1);
  // Now write on host: vram replica must die.
  const std::vector<Access> write = {{d, AccessMode::Write}};
  mgr.acquire(write, 0, 1.0);
  EXPECT_EQ(mgr.directory().state(d, 0), ReplicaState::Modified);
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Invalid);
  mgr.release(write, 0);
}

TEST(DataManager, WriteOnlySkipsFetch) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", 5 * kMiB, 0);
  const std::vector<Access> write = {{d, AccessMode::Write}};
  const double ready = mgr.acquire(write, 1, 0.0);
  EXPECT_DOUBLE_EQ(ready, 0.0);  // no transfer of the stale value
  EXPECT_EQ(mgr.stats().fetches, 0u);
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Modified);
  mgr.release(write, 1);
}

TEST(DataManager, ReadWriteFetchesThenOwns) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> rw = {{d, AccessMode::ReadWrite}};
  const double ready = mgr.acquire(rw, 1, 0.0);
  EXPECT_GT(ready, 0.0);
  EXPECT_EQ(mgr.stats().fetches, 1u);
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Modified);
  EXPECT_EQ(mgr.directory().state(d, 0), ReplicaState::Invalid);
  mgr.release(rw, 1);
}

TEST(DataManager, EvictionMakesRoom) {
  const hw::Platform p = small_vram_platform();  // 10 MiB vram
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId a = mgr.register_data("A", 6 * kMiB, 0);
  const DataId b = mgr.register_data("B", 6 * kMiB, 0);
  const std::vector<Access> ra = {{a, AccessMode::Read}};
  const std::vector<Access> rb = {{b, AccessMode::Read}};
  mgr.acquire(ra, 1, 0.0);
  mgr.release(ra, 1);
  // B does not fit beside A: A (clean, home copy exists) gets dropped.
  mgr.acquire(rb, 1, 1.0);
  EXPECT_EQ(mgr.directory().state(a, 1), ReplicaState::Invalid);
  EXPECT_EQ(mgr.directory().state(b, 1), ReplicaState::Shared);
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.stats().writebacks, 0u);  // clean drop, home copy alive
  mgr.release(rb, 1);
}

TEST(DataManager, ModifiedVictimIsWrittenBack) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId a = mgr.register_data("A", 6 * kMiB, 0);
  const DataId b = mgr.register_data("B", 6 * kMiB, 0);
  const std::vector<Access> wa = {{a, AccessMode::ReadWrite}};
  mgr.acquire(wa, 1, 0.0);
  mgr.release(wa, 1);  // A is Modified on vram, sole copy
  const std::vector<Access> rb = {{b, AccessMode::Read}};
  mgr.acquire(rb, 1, 1.0);
  EXPECT_EQ(mgr.stats().writebacks, 1u);
  // A's only valid copy is now back home.
  EXPECT_EQ(mgr.directory().state(a, 0), ReplicaState::Shared);
  EXPECT_EQ(mgr.directory().state(a, 1), ReplicaState::Invalid);
  mgr.release(rb, 1);
}

TEST(DataManager, RemoteReadDowngradesModifiedOwner) {
  // Regression (found by the hetflow-verify coherence checker): a read
  // fetching from a Modified source must downgrade the source to Shared —
  // Modified means "sole valid copy", which stops being true the moment a
  // second replica materializes.
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> rw = {{d, AccessMode::ReadWrite}};
  mgr.acquire(rw, 1, 0.0);
  mgr.release(rw, 1);  // d is Modified on vram, Invalid at home
  ASSERT_EQ(mgr.directory().state(d, 1), ReplicaState::Modified);
  const std::vector<Access> read = {{d, AccessMode::Read}};
  mgr.acquire(read, 0, 1.0);
  EXPECT_EQ(mgr.directory().state(d, 0), ReplicaState::Shared);
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Shared);
  mgr.release(read, 0);
}

TEST(DataManager, PrefetchDowngradesModifiedSource) {
  // Same invariant through the prefetch path.
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", kMiB, 0);
  const std::vector<Access> rw = {{d, AccessMode::ReadWrite}};
  mgr.acquire(rw, 1, 0.0);
  mgr.release(rw, 1);
  const std::vector<Access> read = {{d, AccessMode::Read}};
  mgr.prefetch(read, 0, 1.0);
  EXPECT_EQ(mgr.directory().state(d, 0), ReplicaState::Shared);
  EXPECT_EQ(mgr.directory().state(d, 1), ReplicaState::Shared);
  mgr.release_prefetch(read, 0);
}

TEST(DataManager, PinnedReplicasAreNotEvicted) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId a = mgr.register_data("A", 6 * kMiB, 0);
  const DataId b = mgr.register_data("B", 6 * kMiB, 0);
  const std::vector<Access> ra = {{a, AccessMode::Read}};
  mgr.acquire(ra, 1, 0.0);  // A pinned (not released)
  const std::vector<Access> rb = {{b, AccessMode::Read}};
  EXPECT_THROW(mgr.acquire(rb, 1, 1.0), ResourceExhausted);
  mgr.release(ra, 1);
  EXPECT_NO_THROW(mgr.acquire(rb, 1, 2.0));
  mgr.release(rb, 1);
}

TEST(DataManager, EstimateMatchesAcquireForSimpleFetch) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("A", 2 * kMiB, 0);
  const std::vector<Access> read = {{d, AccessMode::Read}};
  const double est = mgr.estimate_ready_time(read, 1, 0.0);
  const double real = mgr.acquire(read, 1, 0.0);
  EXPECT_DOUBLE_EQ(est, real);
  mgr.release(read, 1);
  // Second estimate is now zero-cost: replica resident.
  EXPECT_DOUBLE_EQ(mgr.estimate_ready_time(read, 1, 5.0), 5.0);
}

TEST(DataManager, MissingInputBytes) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId a = mgr.register_data("A", 3 * kMiB, 0);
  const DataId b = mgr.register_data("B", 2 * kMiB, 0);
  const std::vector<Access> accesses = {{a, AccessMode::Read},
                                        {b, AccessMode::Read}};
  EXPECT_EQ(mgr.missing_input_bytes(accesses, 1), 5 * kMiB);
  EXPECT_EQ(mgr.missing_input_bytes(accesses, 0), 0u);
  const std::vector<Access> read_a = {{a, AccessMode::Read}};
  mgr.acquire(read_a, 1, 0.0);
  EXPECT_EQ(mgr.missing_input_bytes(accesses, 1), 2 * kMiB);
  mgr.release(read_a, 1);
}

TEST(DataManager, WriteOutputsDoNotCountAsMissing) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("out", 4 * kMiB, 0);
  const std::vector<Access> write_d = {{d, AccessMode::Write}};
  EXPECT_EQ(mgr.missing_input_bytes(write_d, 1), 0u);
}

TEST(DataManager, ZeroByteHandleNeedsNoTransfer) {
  const hw::Platform p = small_vram_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId d = mgr.register_data("ctrl", 0, 0);
  const std::vector<Access> read = {{d, AccessMode::Read}};
  EXPECT_DOUBLE_EQ(mgr.acquire(read, 1, 2.0), 2.0);
  EXPECT_EQ(mgr.stats().fetches, 0u);
  mgr.release(read, 1);
}

TEST(MemoryLedger, PinUnpinCounts) {
  const hw::Platform p = small_vram_platform();
  MemoryLedger ledger(p);
  ledger.pin(0, 1);
  ledger.pin(0, 1);
  EXPECT_TRUE(ledger.pinned(0, 1));
  EXPECT_EQ(ledger.pin_count(0, 1), 2u);
  ledger.unpin(0, 1);
  EXPECT_TRUE(ledger.pinned(0, 1));
  ledger.unpin(0, 1);
  EXPECT_FALSE(ledger.pinned(0, 1));
  EXPECT_THROW(ledger.unpin(0, 1), util::InternalError);
}

TEST(MemoryLedger, LruOrderLeastRecentFirst) {
  const hw::Platform p = small_vram_platform();
  MemoryLedger ledger(p);
  ledger.touch(0, 1);
  ledger.touch(1, 1);
  ledger.touch(0, 1);  // 0 is now most recent
  const std::vector<DataId> resident = {0, 1, 2};
  ledger.build_index(1, resident);
  const auto order = [&] {
    std::vector<DataId> out;
    ledger.walk_lru(1, [&](DataId data) {
      out.push_back(data);
      return true;
    });
    return out;
  };
  // 2 never touched -> first; then 1; then 0.
  EXPECT_EQ(order(), (std::vector<DataId>{2, 1, 0}));
  // A touch moves a replica to the tail; a never-touched replica that
  // becomes valid later goes ahead of every touched one, in id order.
  ledger.touch(1, 1);
  ledger.note_valid(3, 1);
  EXPECT_EQ(order(), (std::vector<DataId>{2, 3, 0, 1}));
  // An invalidated replica keeps its stamp and returns to its old place.
  ledger.note_invalid(0, 1);
  EXPECT_EQ(order(), (std::vector<DataId>{2, 3, 1}));
  ledger.note_valid(0, 1);
  EXPECT_EQ(order(), (std::vector<DataId>{2, 3, 0, 1}));
  // The walk stops when the visitor says so.
  std::vector<DataId> first_two;
  ledger.walk_lru(1, [&](DataId data) {
    first_two.push_back(data);
    return first_two.size() < 2;
  });
  EXPECT_EQ(first_two, (std::vector<DataId>{2, 3}));
  // Other nodes have no index until one is built.
  EXPECT_TRUE(ledger.indexed(1));
  EXPECT_FALSE(ledger.indexed(0));
  ledger.clear_node(1);
  EXPECT_FALSE(ledger.indexed(1));
  EXPECT_EQ(ledger.last_use(1, 1), 0u);
}

}  // namespace
}  // namespace hetflow::data
