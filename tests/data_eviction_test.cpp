// Eviction differential suite: seeded random operation streams on a
// small-memory platform run through DataManager (eviction index) and
// through ReferenceDataManager (tests/eviction_reference.hpp: resident
// scan + stable_sort, the selection the index replaced). After every
// call the two must agree on the result or exception, the victims in
// eviction order, node_stats(), transfer bookings and every replica's
// state, pins and stamp; each eviction index must hold exactly its
// node's resident replicas in (stamp, id) order.
//
// A runtime-level golden (tests/golden/workstation_eviction/) pins the
// eviction and write-back counts and the schedule of an evicting
// Montage run. Regenerate with HETFLOW_REGEN_GOLDEN=1 ./data_eviction_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "data/manager.hpp"
#include "eviction_reference.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "hw/serialize.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

#ifndef HETFLOW_GOLDEN_DIR
#error "build must define HETFLOW_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace hetflow::data {
namespace {

using testing::EvictionCoverage;
using testing::ReferenceDataManager;
using testing::Victim;

constexpr std::uint64_t kMiB = 1024ull * 1024;

/// Host plus two small device memories, all linked; every node can run
/// out of room.
hw::Platform small_memory_platform() {
  hw::PlatformBuilder b("evict");
  const auto host = b.add_memory_node("host", 40 * kMiB);
  const auto v0 = b.add_memory_node("v0", 12 * kMiB);
  const auto v1 = b.add_memory_node("v1", 12 * kMiB);
  b.add_device("cpu", hw::DeviceType::Cpu, 10.0, host);
  b.add_device("gpu0", hw::DeviceType::Gpu, 100.0, v0);
  b.add_device("gpu1", hw::DeviceType::Gpu, 100.0, v1);
  b.add_link(host, v0, 10.0, 1e-6);
  b.add_link(host, v1, 10.0, 1e-6);
  b.add_link(v0, v1, 20.0, 1e-6);
  return b.build();
}

/// The rule the index must follow: resident replicas by ascending
/// (stamp, id), pinned or not.
std::vector<DataId> expected_index_order(const CoherenceDirectory& directory,
                                         std::size_t data_count,
                                         const MemoryLedger& ledger,
                                         hw::MemoryNodeId node) {
  std::vector<DataId> order =
      testing::reference_resident(directory, data_count, node);
  std::stable_sort(order.begin(), order.end(), [&](DataId a, DataId b) {
    return ledger.last_use(a, node) < ledger.last_use(b, node);
  });
  return order;
}

std::vector<DataId> index_order(const MemoryLedger& ledger,
                                hw::MemoryNodeId node) {
  std::vector<DataId> order;
  ledger.walk_lru(node, [&](DataId data) {
    order.push_back(data);
    return true;
  });
  return order;
}

/// An outstanding acquire or prefetch whose pins are still held.
struct Hold {
  hw::MemoryNodeId node = 0;
  std::vector<Access> accesses;
  bool prefetch = false;
};

/// Paths the streams must reach, beyond what the reference counts.
struct StreamCoverage {
  std::uint64_t modes[4] = {0, 0, 0, 0};
  std::uint64_t stale_revalidations_indexed = 0;  ///< old stamp, no touch
  std::uint64_t stamp0_revalidations_indexed = 0;
  std::uint64_t invalidated_nodes = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t evictions = 0;
};

class Stream {
 public:
  explicit Stream(std::uint64_t seed)
      : platform_(small_memory_platform()),
        real_(platform_, real_queue_),
        ref_(platform_, ref_queue_),
        rng_(seed) {
    for (int i = 0; i < 18; ++i) {
      register_random();
    }
    register_one(0, 0);  // a zero-byte control handle
  }

  const EvictionCoverage& reference_coverage() const {
    return ref_.coverage();
  }
  const StreamCoverage& coverage() const { return coverage_; }

  /// One random operation, then the full comparison.
  void step() {
    now_ += rng_.uniform(0.0, 2e-3);
    const double pick = rng_.uniform();
    const Snapshot before = snapshot();
    std::optional<hw::MemoryNodeId> evicting;
    if (pick < 0.40) {
      evicting = acquire();
    } else if (pick < 0.62) {
      release_one(false);
    } else if (pick < 0.77) {
      evicting = prefetch();
    } else if (pick < 0.90) {
      release_one(true);
    } else if (pick < 0.97) {
      register_random();
    } else {
      invalidate();
    }
    compare(before, evicting);
  }

 private:
  struct Snapshot {
    std::vector<std::vector<DataId>> order;  ///< victim order per node
    std::vector<bool> valid;                 ///< data * nodes
    std::vector<std::uint64_t> stamps;
  };

  hw::Platform platform_;
  sim::EventQueue real_queue_;
  sim::EventQueue ref_queue_;
  DataManager real_;
  ReferenceDataManager ref_;
  util::Rng rng_;
  sim::SimTime now_ = 0.0;
  std::vector<Hold> holds_;
  std::vector<bool> lost_;  ///< no valid replica and no reseed succeeded
  StreamCoverage coverage_;

  std::size_t nodes() const { return platform_.memory_node_count(); }
  std::size_t data_count() const { return real_.registry().count(); }

  void register_one(std::uint64_t bytes, hw::MemoryNodeId home) {
    const std::string name = util::format("d%zu", data_count());
    const DataId id = real_.register_data(name, bytes, home);
    ASSERT_EQ(ref_.register_data(name, bytes, home), id);
    lost_.push_back(false);
    if (real_.ledger().indexed(home)) {
      ++coverage_.stamp0_revalidations_indexed;
    }
  }

  void register_random() {
    const std::uint64_t bytes =
        (1 + rng_.index(16)) * (kMiB / 4);  // 0.25 .. 4 MiB
    const double where = rng_.uniform();
    const hw::MemoryNodeId home = where < 0.6 ? 0 : where < 0.8 ? 1 : 2;
    register_one(bytes, home);
  }

  bool held(DataId data, bool for_write_only) const {
    for (const Hold& hold : holds_) {
      for (const Access& access : hold.accesses) {
        if (access.data == data &&
            (!for_write_only || (!hold.prefetch && is_write(access.mode)))) {
          return true;
        }
      }
    }
    return false;
  }

  /// Up to three distinct, accessible data with modes that respect the
  /// runtime's exclusion (a writer holds its datum alone).
  std::vector<Access> pick_accesses(bool reads_only) {
    std::vector<Access> accesses;
    const std::size_t want = 1 + rng_.index(3);
    for (std::size_t tries = 0; tries < 12 && accesses.size() < want;
         ++tries) {
      const DataId data =
          static_cast<DataId>(rng_.index(data_count()));
      const bool taken =
          std::any_of(accesses.begin(), accesses.end(),
                      [&](const Access& a) { return a.data == data; });
      if (taken || lost_[data] || held(data, true)) {
        continue;
      }
      auto mode = static_cast<AccessMode>(rng_.index(4));
      if (reads_only || (is_write(mode) && held(data, false))) {
        mode = AccessMode::Read;
      }
      accesses.push_back({data, mode});
    }
    return accesses;
  }

  hw::MemoryNodeId random_node() {
    return static_cast<hw::MemoryNodeId>(rng_.index(nodes()));
  }

  std::optional<hw::MemoryNodeId> acquire() {
    const std::vector<Access> accesses = pick_accesses(false);
    if (accesses.empty()) {
      return std::nullopt;
    }
    const hw::MemoryNodeId node = random_node();
    for (const Access& access : accesses) {
      ++coverage_.modes[static_cast<int>(access.mode)];
    }
    std::vector<std::size_t> pins_before;
    for (const Access& access : accesses) {
      pins_before.push_back(real_.ledger().pin_count(access.data, node));
    }
    std::optional<sim::SimTime> real_ready;
    std::optional<sim::SimTime> ref_ready;
    std::string real_error;
    std::string ref_error;
    try {
      real_ready = real_.acquire(accesses, node, now_);
    } catch (const ResourceExhausted& e) {
      real_error = e.what();
    }
    try {
      ref_ready = ref_.acquire(accesses, node, now_);
    } catch (const ResourceExhausted& e) {
      ref_error = e.what();
    }
    EXPECT_EQ(real_error, ref_error);
    EXPECT_EQ(real_ready, ref_ready);
    // A throwing acquire keeps the pins of the accesses before the one
    // that did not fit.
    Hold hold{node, {}, false};
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (real_.ledger().pin_count(accesses[i].data, node) > pins_before[i]) {
        hold.accesses.push_back(accesses[i]);
      }
    }
    if (!hold.accesses.empty()) {
      holds_.push_back(std::move(hold));
    }
    return node;
  }

  std::optional<hw::MemoryNodeId> prefetch() {
    const std::vector<Access> accesses = pick_accesses(true);
    if (accesses.empty()) {
      return std::nullopt;
    }
    const hw::MemoryNodeId node = random_node();
    real_.prefetch(accesses, node, now_);
    ref_.prefetch(accesses, node, now_);
    holds_.push_back({node, accesses, true});
    return node;
  }

  void release_one(bool prefetch) {
    std::vector<std::size_t> matching;
    for (std::size_t i = 0; i < holds_.size(); ++i) {
      if (holds_[i].prefetch == prefetch) {
        matching.push_back(i);
      }
    }
    if (matching.empty()) {
      return;
    }
    const std::size_t index =
        matching[rng_.index(matching.size())];
    const Hold& hold = holds_[index];
    if (prefetch) {
      real_.release_prefetch(hold.accesses, hold.node);
      ref_.release_prefetch(hold.accesses, hold.node);
    } else {
      real_.release(hold.accesses, hold.node);
      ref_.release(hold.accesses, hold.node);
    }
    holds_.erase(holds_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Node failure: the attempts holding pins there are gone, then every
  /// lost datum is re-seeded (each reseed compared on its own).
  void invalidate() {
    const hw::MemoryNodeId node = random_node();
    std::erase_if(holds_, [&](const Hold& h) { return h.node == node; });
    const std::vector<DataId> lost = real_.invalidate_node(node);
    ASSERT_EQ(ref_.invalidate_node(node), lost);
    ++coverage_.invalidated_nodes;
    for (const DataId data : lost) {
      lost_[data] = true;
      const hw::MemoryNodeId first = random_node();
      for (std::size_t k = 0; k < nodes() && lost_[data]; ++k) {
        const auto target =
            static_cast<hw::MemoryNodeId>((first + k) % nodes());
        const Snapshot before = snapshot();
        std::string real_error;
        std::string ref_error;
        try {
          real_.reseed(data, target, now_);
        } catch (const ResourceExhausted& e) {
          real_error = e.what();
        }
        try {
          ref_.reseed(data, target, now_);
        } catch (const ResourceExhausted& e) {
          ref_error = e.what();
        }
        EXPECT_EQ(real_error, ref_error);
        lost_[data] = !real_error.empty();
        coverage_.reseeds += real_error.empty() ? 1 : 0;
        compare(before, target);
      }
    }
  }

  Snapshot snapshot() const {
    Snapshot out;
    for (hw::MemoryNodeId node = 0; node < nodes(); ++node) {
      out.order.push_back(
          real_.ledger().indexed(node)
              ? index_order(real_.ledger(), node)
              : expected_index_order(real_.directory(), data_count(),
                                     real_.ledger(), node));
    }
    for (DataId data = 0; data < data_count(); ++data) {
      for (hw::MemoryNodeId node = 0; node < nodes(); ++node) {
        out.valid.push_back(real_.directory().has_valid_replica(data, node));
        out.stamps.push_back(real_.ledger().last_use(data, node));
      }
    }
    return out;
  }

  /// The real victims of a call that could evict only on `node`: the
  /// replicas it invalidated there, in the node's victim order before
  /// the call (the order the walk visits).
  std::vector<Victim> real_victims(const Snapshot& before,
                                   hw::MemoryNodeId node) const {
    std::vector<Victim> out;
    for (const DataId data : before.order[node]) {
      if (!real_.directory().has_valid_replica(data, node)) {
        out.push_back({node, data});
      }
    }
    return out;
  }

  void compare(const Snapshot& before,
               std::optional<hw::MemoryNodeId> evicting) {
    const std::vector<Victim> ref_victims = ref_.take_victims();
    if (evicting.has_value()) {
      EXPECT_EQ(real_victims(before, *evicting), ref_victims);
    }
    coverage_.evictions += ref_victims.size();
    for (hw::MemoryNodeId node = 0; node < nodes(); ++node) {
      SCOPED_TRACE(util::format("node %u", node));
      const DataManagerStats& a = real_.node_stats()[node];
      const DataManagerStats& b = ref_.node_stats()[node];
      EXPECT_EQ(a.fetches, b.fetches);
      EXPECT_EQ(a.prefetches, b.prefetches);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.writebacks, b.writebacks);
      EXPECT_EQ(real_.directory().resident(node), ref_.resident(node));
      EXPECT_EQ(real_.directory().resident_bytes(node),
                ref_.directory().resident_bytes(node));
      if (real_.ledger().indexed(node)) {
        EXPECT_EQ(index_order(real_.ledger(), node),
                  expected_index_order(real_.directory(), data_count(),
                                       real_.ledger(), node));
      }
    }
    for (DataId data = 0; data < data_count(); ++data) {
      for (hw::MemoryNodeId node = 0; node < nodes(); ++node) {
        SCOPED_TRACE(util::format("data %u node %u", data, node));
        EXPECT_EQ(real_.directory().state(data, node),
                  ref_.directory().state(data, node));
        EXPECT_EQ(real_.ledger().pin_count(data, node),
                  ref_.ledger().pin_count(data, node));
        EXPECT_EQ(real_.ledger().last_use(data, node),
                  ref_.ledger().last_use(data, node));
        // Valid again without a touch (write-back to the home copy):
        // the replica re-enters an index with its old stamp.
        const std::size_t slot = data * nodes() + node;
        if (slot < before.valid.size() && !before.valid[slot] &&
            real_.directory().has_valid_replica(data, node) &&
            real_.ledger().last_use(data, node) == before.stamps[slot] &&
            real_.ledger().indexed(node)) {
          ++(before.stamps[slot] == 0
                 ? coverage_.stamp0_revalidations_indexed
                 : coverage_.stale_revalidations_indexed);
        }
      }
    }
    for (hw::MemoryNodeId src = 0; src < nodes(); ++src) {
      for (hw::MemoryNodeId dst = 0; dst < nodes(); ++dst) {
        EXPECT_EQ(real_.transfers().route_stats(src, dst).transfers,
                  ref_.transfers().route_stats(src, dst).transfers);
      }
    }
    for (hw::LinkId link = 0; link < platform_.links().size(); ++link) {
      EXPECT_EQ(real_.transfers().link_free_at(link),
                ref_.transfers().link_free_at(link));
    }
  }
};

TEST(EvictionDifferential, RandomStreamsMatchTheReference) {
  EvictionCoverage reference;
  StreamCoverage stream;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(util::format("seed %llu",
                              static_cast<unsigned long long>(seed)));
    Stream s(seed);
    for (int op = 0; op < 400 && !HasFailure(); ++op) {
      SCOPED_TRACE(util::format("op %d", op));
      s.step();
    }
    if (HasFailure()) {
      return;  // the first diverging call is the useful report
    }
    const EvictionCoverage& r = s.reference_coverage();
    reference.pinned_skips += r.pinned_skips;
    reference.in_use_skips += r.in_use_skips;
    reference.home_keeps += r.home_keeps;
    reference.writebacks += r.writebacks;
    reference.refetches += r.refetches;
    reference.acquire_exhausted += r.acquire_exhausted;
    reference.prefetch_exhausted += r.prefetch_exhausted;
    const StreamCoverage& c = s.coverage();
    for (int m = 0; m < 4; ++m) {
      stream.modes[m] += c.modes[m];
    }
    stream.stale_revalidations_indexed += c.stale_revalidations_indexed;
    stream.stamp0_revalidations_indexed += c.stamp0_revalidations_indexed;
    stream.invalidated_nodes += c.invalidated_nodes;
    stream.reseeds += c.reseeds;
    stream.evictions += c.evictions;
  }
  // The streams reach every path the index has to get right.
  for (int m = 0; m < 4; ++m) {
    EXPECT_GT(stream.modes[m], 0u) << to_string(static_cast<AccessMode>(m));
  }
  EXPECT_GT(stream.evictions, 1000u);
  EXPECT_GT(reference.writebacks, 0u);
  EXPECT_GT(reference.pinned_skips, 0u);
  EXPECT_GT(reference.in_use_skips, 0u);
  EXPECT_GT(reference.home_keeps, 0u);
  EXPECT_GT(reference.refetches, 0u);
  EXPECT_GT(reference.acquire_exhausted, 0u);
  EXPECT_GT(reference.prefetch_exhausted, 0u);
  EXPECT_GT(stream.stale_revalidations_indexed, 0u);
  EXPECT_GT(stream.stamp0_revalidations_indexed, 0u);
  EXPECT_GT(stream.invalidated_nodes, 0u);
  EXPECT_GT(stream.reseeds, 0u);
}

TEST(EvictionDifferential, ResourceExhaustedNamesTheNode) {
  const hw::Platform p = small_memory_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  std::vector<Access> pinned;
  for (int i = 0; i < 3; ++i) {
    pinned.push_back({mgr.register_data(util::format("p%d", i), 4 * kMiB, 0),
                      AccessMode::Read});
  }
  const DataId extra = mgr.register_data("extra", kMiB, 0);
  mgr.acquire(pinned, 1, 0.0);  // 12 MiB pinned: v0 is full
  const std::vector<Access> more = {{extra, AccessMode::Read}};
  try {
    mgr.acquire(more, 1, 0.0);
    FAIL() << "acquire past pinned capacity must throw";
  } catch (const ResourceExhausted& e) {
    EXPECT_STREQ(e.what(),
                 "memory node 1 ('v0') cannot fit 1048576 more bytes "
                 "(resident 12582912 of 12582912)");
  }
  // The prefetch path swallows the same condition but still pins and
  // stamps the replica it could not fetch.
  mgr.prefetch(more, 1, 0.0);
  EXPECT_FALSE(mgr.directory().has_valid_replica(extra, 1));
  EXPECT_EQ(mgr.ledger().pin_count(extra, 1), 1u);
  EXPECT_GT(mgr.ledger().last_use(extra, 1), mgr.ledger().last_use(2, 1));
}

TEST(EvictionDifferential, InvalidateNodeLosesDataInIdOrder) {
  // Sole copies land on v0 in descending id order, with a low id
  // re-validated after its replica there was dropped. The lost list
  // must still be ascending: the runtime resurrects in that order.
  const hw::Platform p = small_memory_platform();
  sim::EventQueue real_queue;
  sim::EventQueue ref_queue;
  DataManager real(p, real_queue);
  ReferenceDataManager ref(p, ref_queue);
  std::vector<DataId> ids;
  for (int i = 0; i < 6; ++i) {
    const std::string name = util::format("d%d", i);
    ids.push_back(real.register_data(name, kMiB, 0));
    ASSERT_EQ(ref.register_data(name, kMiB, 0), ids.back());
  }
  const auto run = [&](DataId data, AccessMode mode, hw::MemoryNodeId node) {
    const std::vector<Access> accesses = {{data, mode}};
    ASSERT_EQ(real.acquire(accesses, node, 0.0),
              ref.acquire(accesses, node, 0.0));
    real.release(accesses, node);
    ref.release(accesses, node);
  };
  // v0 writes 5, 3, 1 (sole copies), reads 4 (host keeps one), and
  // writes 0 last, after 0's first v0 replica was invalidated by a
  // write on v1.
  run(ids[0], AccessMode::Read, 1);
  run(ids[0], AccessMode::ReadWrite, 2);
  for (const DataId data : {ids[5], ids[3], ids[1]}) {
    run(data, AccessMode::ReadWrite, 1);
  }
  run(ids[4], AccessMode::Read, 1);
  run(ids[0], AccessMode::ReadWrite, 1);
  EXPECT_EQ(real.directory().resident(1),
            (std::vector<DataId>{ids[0], ids[1], ids[3], ids[4], ids[5]}));
  const std::vector<DataId> lost = real.invalidate_node(1);
  EXPECT_EQ(lost, (std::vector<DataId>{ids[0], ids[1], ids[3], ids[5]}));
  EXPECT_EQ(ref.invalidate_node(1), lost);
  EXPECT_TRUE(real.directory().resident(1).empty());
  EXPECT_EQ(real.directory().resident_bytes(1), 0u);
}

TEST(EvictionIndex, StaleHomeCopyReturnsToItsStampPosition) {
  // The home copy of `a` on v0 is invalidated by a write on v1 and comes
  // back through v1's write-back. It keeps its old stamp, so it is again
  // v0's least recent replica, ahead of one touched after it.
  const hw::Platform p = small_memory_platform();
  sim::EventQueue q;
  DataManager mgr(p, q);
  const DataId a = mgr.register_data("a", 4 * kMiB, 1);
  const DataId b = mgr.register_data("b", 4 * kMiB, 0);
  const DataId c = mgr.register_data("c", 4 * kMiB, 0);
  const DataId fill = mgr.register_data("fill", 4 * kMiB, 0);
  const auto run = [&](std::vector<Access> accesses, hw::MemoryNodeId node) {
    mgr.acquire(accesses, node, 0.0);
    mgr.release(accesses, node);
  };
  run({{a, AccessMode::Read}}, 1);
  run({{b, AccessMode::Read}}, 1);
  run({{c, AccessMode::Read}}, 1);
  run({{fill, AccessMode::Read}}, 1);  // v0 full: evicts b (a is home)
  ASSERT_TRUE(mgr.ledger().indexed(1));
  EXPECT_EQ(index_order(mgr.ledger(), 1), (std::vector<DataId>{a, c, fill}));
  run({{a, AccessMode::ReadWrite}}, 2);  // v0's home copy invalidated
  EXPECT_EQ(index_order(mgr.ledger(), 1), (std::vector<DataId>{c, fill}));
  // Fill v1 until a (Modified there) is written back home to v0.
  run({{b, AccessMode::Read}}, 2);
  run({{c, AccessMode::Read}}, 2);
  run({{fill, AccessMode::Read}}, 2);
  EXPECT_EQ(mgr.directory().state(a, 1), ReplicaState::Shared);
  EXPECT_EQ(mgr.node_stats()[2].writebacks, 1u);
  EXPECT_EQ(index_order(mgr.ledger(), 1), (std::vector<DataId>{a, c, fill}));
}

// Runtime-level eviction golden: Montage on the workstation preset with
// the GPU memory cut to 128 MiB, so the GPU evicts and writes back.
hw::Platform small_gpu_workstation(std::uint64_t gpu_bytes) {
  util::Json doc = hw::to_json(hw::make_workstation());
  for (util::Json& node : doc["memory_nodes"].as_array()) {
    if (node.at("name").as_string() == "gpu0-hbm") {
      node["capacity_bytes"] = static_cast<double>(gpu_bytes);
    }
  }
  return hw::platform_from_json(doc);
}

std::string eviction_record(const core::Runtime& rt) {
  std::string out = "node,fetches,prefetches,evictions,writebacks\n";
  const auto& nodes = rt.data().node_stats();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    out += util::format("%s,%llu,%llu,%llu,%llu\n",
                        rt.platform().memory_node(n).name().c_str(),
                        static_cast<unsigned long long>(nodes[n].fetches),
                        static_cast<unsigned long long>(nodes[n].prefetches),
                        static_cast<unsigned long long>(nodes[n].evictions),
                        static_cast<unsigned long long>(nodes[n].writebacks));
  }
  out += util::format("makespan_s,%.17g\n", rt.stats().makespan_s);
  return out + trace::spans_to_csv(rt.tracer());
}

TEST(EvictionGolden, MontageOnSmallGpuWorkstation) {
  const hw::Platform platform = small_gpu_workstation(128 * kMiB);
  for (const bool prefetch : {false, true}) {
    core::RuntimeOptions options;
    options.seed = 7;
    options.enable_prefetch = prefetch;
    core::Runtime rt(platform, sched::make_scheduler("dmda", 7), options);
    workflow::submit_workflow(rt, workflow::make_montage(24),
                              workflow::CodeletLibrary::standard());
    rt.wait_all();
    EXPECT_GT(rt.data().stats().evictions, 0u);
    EXPECT_GT(rt.data().stats().writebacks, 0u);
    hetflow::testing::expect_golden_file(
        std::string(HETFLOW_GOLDEN_DIR) + "/workstation_eviction/" +
            (prefetch ? "dmda_prefetch.csv" : "dmda.csv"),
        eviction_record(rt));
  }
}

}  // namespace
}  // namespace hetflow::data
