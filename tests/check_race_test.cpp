// hetflow-verify race detector: known-bad runs must be flagged with the
// precise violation class, known-good runs must come back clean.
//
// The differential suite runs seeded random records through
// check_races and through reference_races (tests/race_reference.hpp:
// the dense closure and all-pairs loop it replaced); the two must
// report the same violations and agree on every reachability query.
// The scale case checks a 2x10^5-task chain under the ctest TIMEOUT.
#include "check/race.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "race_reference.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hetflow::check {
namespace {

using data::AccessMode;

/// The detector's slack: overlaps up to this long are legal.
constexpr double kEps = 1e-9;

/// Two tasks touching handle 0 with the given modes and intervals;
/// `ordered` adds the dependency edge 0 -> 1.
RunRecord two_task_run(AccessMode mode_a, AccessMode mode_b, double start_a,
                       double end_a, double start_b, double end_b,
                       bool ordered) {
  RunRecord run;
  run.device_count = 2;
  run.node_count = 2;
  run.device_memory_node = {0, 1};
  run.handle_bytes = {1024};
  run.handle_home = {0};
  TaskRecord a{0, "a", {{0, mode_a}}, {}, 0, start_a, end_a, true};
  TaskRecord b{1, "b", {{0, mode_b}}, {}, 1, start_b, end_b, true};
  if (ordered) {
    b.dependencies.push_back(0);
  }
  run.tasks = {a, b};
  return run;
}

std::size_t count_kind(const std::vector<Violation>& violations,
                       ViolationKind kind) {
  std::size_t n = 0;
  for (const Violation& violation : violations) {
    n += violation.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(CheckRaces, OverlappingUnorderedWritersAreARace) {
  const RunRecord run = two_task_run(AccessMode::Write, AccessMode::Write,
                                     0.0, 1.0, 0.5, 1.5, false);
  const auto violations = check_races(run);
  ASSERT_EQ(count_kind(violations, ViolationKind::ConflictingOverlap), 1u);
  EXPECT_NE(violations[0].message.find("WAW"), std::string::npos);
  EXPECT_EQ(violations[0].data, 0u);
}

TEST(CheckRaces, ReadOverlappingUnorderedWriterIsARace) {
  const auto raw = check_races(two_task_run(
      AccessMode::Write, AccessMode::Read, 0.0, 1.0, 0.5, 1.5, false));
  ASSERT_EQ(count_kind(raw, ViolationKind::ConflictingOverlap), 1u);
  EXPECT_NE(raw[0].message.find("RAW"), std::string::npos);

  const auto war = check_races(two_task_run(
      AccessMode::Read, AccessMode::Write, 0.0, 1.0, 0.5, 1.5, false));
  ASSERT_EQ(count_kind(war, ViolationKind::ConflictingOverlap), 1u);
  EXPECT_NE(war[0].message.find("WAR"), std::string::npos);

  // Just past the slack is already a race.
  EXPECT_EQ(count_kind(check_races(two_task_run(AccessMode::Write,
                                                AccessMode::Read, 0.0,
                                                1.0 + 3 * kEps, 1.0, 2.0,
                                                false)),
                       ViolationKind::ConflictingOverlap),
            1u);
}

TEST(CheckRaces, SerializedConflictIsClean) {
  EXPECT_TRUE(check_races(two_task_run(AccessMode::Write, AccessMode::Write,
                                       0.0, 1.0, 1.0, 2.0, true))
                  .empty());
  // An overlap within the slack counts as touching.
  EXPECT_TRUE(check_races(two_task_run(AccessMode::Write, AccessMode::Read,
                                       0.0, 1.0 + kEps / 2, 1.0, 2.0, false))
                  .empty());
  // Disjoint intervals without an edge: not flagged (the detector is
  // interval-based; ordering comes from the executed schedule).
  EXPECT_EQ(count_kind(check_races(two_task_run(AccessMode::Write,
                                                AccessMode::Write, 0.0, 1.0,
                                                2.0, 3.0, false)),
                       ViolationKind::ConflictingOverlap),
            0u);
}

TEST(CheckRaces, OverlapDespiteEdgeIsADependencyViolation) {
  const RunRecord run = two_task_run(AccessMode::Write, AccessMode::Write,
                                     0.0, 1.0, 0.5, 1.5, true);
  const auto violations = check_races(run);
  EXPECT_EQ(count_kind(violations, ViolationKind::ConflictingOverlap), 0u);
  // Both the edge-timing check and the pair check report it.
  EXPECT_GE(count_kind(violations, ViolationKind::DependencyViolation), 1u);
}

TEST(CheckRaces, ReduxContributorsMayOverlap) {
  EXPECT_TRUE(check_races(two_task_run(AccessMode::Redux, AccessMode::Redux,
                                       0.0, 1.0, 0.5, 1.5, false))
                  .empty());
  // ...but a Redux contributor still conflicts with a plain reader.
  EXPECT_EQ(count_kind(check_races(two_task_run(AccessMode::Redux,
                                                AccessMode::Read, 0.0, 1.0,
                                                0.5, 1.5, false)),
                       ViolationKind::ConflictingOverlap),
            1u);
}

TEST(CheckRaces, ConcurrentReadersAreClean) {
  EXPECT_TRUE(check_races(two_task_run(AccessMode::Read, AccessMode::Read,
                                       0.0, 1.0, 0.5, 1.5, false))
                  .empty());
}

TEST(CheckRaces, TransitiveOrderingIsRecognized) {
  // a -> m -> b with a and b conflicting and (bogusly) overlapping:
  // the overlap must be reported as a dependency violation, not as an
  // unordered race — the transitive edge exists.
  RunRecord run;
  run.device_count = 1;
  run.node_count = 1;
  run.device_memory_node = {0};
  run.handle_bytes = {64, 64};
  run.handle_home = {0, 0};
  run.tasks = {
      {0, "a", {{0, AccessMode::Write}}, {}, 0, 0.0, 1.0, true},
      {1, "m", {{1, AccessMode::Write}}, {0}, 0, 1.0, 2.0, true},
      {2, "b", {{0, AccessMode::Write}}, {1}, 0, 0.5, 1.5, true},
  };
  const auto violations = check_races(run);
  EXPECT_EQ(count_kind(violations, ViolationKind::ConflictingOverlap), 0u);
  EXPECT_GE(count_kind(violations, ViolationKind::DependencyViolation), 1u);
}

TEST(CheckRaces, DanglingReferencesAreReported) {
  RunRecord run;
  run.device_count = 1;
  run.node_count = 1;
  run.device_memory_node = {0};
  run.handle_bytes = {64};
  run.handle_home = {0};
  run.tasks = {{0, "a", {{7, AccessMode::Read}}, {42}, 3, 0.0, 1.0, true}};
  const auto violations = check_races(run);
  // Unknown handle 7, unknown dependency 42, unknown device 3.
  EXPECT_EQ(count_kind(violations, ViolationKind::DanglingReference), 3u);
}

TEST(CheckRaces, CycleIsReported) {
  RunRecord run;
  run.device_count = 1;
  run.node_count = 1;
  run.device_memory_node = {0};
  run.handle_bytes = {64};
  run.handle_home = {0};
  run.tasks = {
      {0, "a", {{0, AccessMode::Read}}, {1}, 0, 0.0, 1.0, true},
      {1, "b", {{0, AccessMode::Read}}, {0}, 0, 1.0, 2.0, true},
  };
  EXPECT_EQ(count_kind(check_races(run), ViolationKind::Cycle), 1u);

  // A task that depends on itself is a cycle too, whether it completed,
  // ran for no time, or never ran.
  run.tasks = {{0, "a", {{0, AccessMode::Write}}, {0}, 0, 0.0, 1.0, true}};
  for (const double end : {1.0, 0.0}) {
    for (const bool completed : {true, false}) {
      run.tasks[0].end = end;
      run.tasks[0].completed = completed;
      EXPECT_EQ(count_kind(check_races(run), ViolationKind::Cycle), 1u)
          << "end " << end << ", completed " << completed;
    }
  }
}

TEST(CheckRaces, IncompleteTasksAreIgnoredByThePairPass) {
  RunRecord run = two_task_run(AccessMode::Write, AccessMode::Write, 0.0,
                               1.0, 0.5, 1.5, false);
  run.tasks[1].completed = false;
  EXPECT_TRUE(check_races(run).empty());
}

TEST(HappensBeforeOracle, ReachabilityIsTransitiveAndDirected) {
  RunRecord run;
  run.device_count = 1;
  run.node_count = 1;
  run.device_memory_node = {0};
  run.tasks = {
      {0, "a", {}, {}, 0, 0.0, 1.0, true},
      {1, "b", {}, {0}, 0, 1.0, 2.0, true},
      {2, "c", {}, {1}, 0, 2.0, 3.0, true},
      {3, "d", {}, {}, 0, 0.0, 1.0, true},  // independent
  };
  const HappensBefore hb(run);
  EXPECT_FALSE(hb.has_cycle());
  EXPECT_TRUE(hb.reaches(0, 2));
  EXPECT_FALSE(hb.reaches(2, 0));
  EXPECT_TRUE(hb.ordered(0, 2));
  EXPECT_FALSE(hb.ordered(0, 3));
  EXPECT_FALSE(hb.ordered(2, 3));
}

TEST(HappensBeforeOracle, NodesBehindACycleOrderNothing) {
  RunRecord run;
  run.device_count = 1;
  run.node_count = 1;
  run.device_memory_node = {0};
  run.tasks = {
      {0, "a", {}, {}, 0, 0.0, 1.0, true},
      {1, "b", {}, {0, 2}, 0, 1.0, 2.0, true},  // b <-> c
      {2, "c", {}, {1}, 0, 2.0, 3.0, true},
      {3, "d", {}, {2}, 0, 3.0, 4.0, true},
  };
  const HappensBefore hb(run);
  EXPECT_TRUE(hb.has_cycle());
  EXPECT_TRUE(hb.reaches(0, 1));   // a is ranked; b is the end of the path
  EXPECT_FALSE(hb.reaches(0, 3));  // the path runs through the cycle
  EXPECT_FALSE(hb.reaches(1, 2));
}

// --- differential against the closure-based detector ----------------------

/// A random record of up to 40 tasks on up to 4 handles. Starts sit on a
/// half-second grid and lengths on the same grid plus 0, kEps/2, kEps or
/// 1.5 kEps, so intervals touch, tie, and overlap by kEps and just past
/// it. It mixes every access mode, zero-length, incomplete and
/// unknown-device tasks, accesses to unregistered handles, duplicate
/// task ids, dangling and duplicated edges, edges to later tasks (which
/// can close cycles), and sometimes one long use spanning the run.
/// No task depends on itself (the reference does not count that as a
/// cycle).
RunRecord random_run(std::uint64_t seed) {
  util::Rng rng(seed);
  RunRecord run;
  run.device_count = 4;
  run.node_count = 2;
  run.device_memory_node = {0, 0, 1, 1};
  const std::size_t handles = 1 + rng.index(4);
  run.handle_bytes.assign(handles, 64);
  run.handle_home.assign(handles, 0);
  const std::size_t count = 2 + rng.index(39);
  std::vector<std::uint64_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids[i] = i > 0 && rng.bernoulli(0.05) ? ids[rng.index(i)] : i;
  }
  const auto first_with_id = [&ids](std::uint64_t id) {
    return static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), id) - ids.begin());
  };
  const AccessMode modes[] = {AccessMode::Read, AccessMode::Write,
                              AccessMode::ReadWrite, AccessMode::Redux};
  const double slack[] = {0.0, kEps / 2, kEps, 1.5 * kEps};
  for (std::size_t i = 0; i < count; ++i) {
    TaskRecord task;
    task.id = ids[i];
    task.name = util::format("t%zu", i);
    for (std::size_t a = rng.index(4); a > 0; --a) {
      const auto handle = static_cast<data::DataId>(
          rng.bernoulli(0.03) ? handles + rng.index(2) : rng.index(handles));
      task.accesses.push_back({handle, modes[rng.index(4)]});
    }
    for (std::size_t d = rng.index(3); d > 0; --d) {
      if (rng.bernoulli(0.05)) {
        task.dependencies.push_back(1000 + rng.index(4));  // dangling
        continue;
      }
      // Mostly earlier tasks; an edge to a later one may close a cycle.
      const std::size_t parent =
          rng.bernoulli(0.9) && i > 0 ? rng.index(i) : rng.index(count);
      if (first_with_id(ids[parent]) != i) {
        task.dependencies.push_back(ids[parent]);
      }
    }
    task.device = static_cast<std::uint32_t>(
        rng.bernoulli(0.03) ? run.device_count : rng.index(4));
    task.start = 0.5 * static_cast<double>(rng.index(12));
    task.end = task.start + 0.5 * static_cast<double>(rng.index(4)) +
               slack[rng.index(4)];
    task.completed = rng.bernoulli(0.85);
    run.tasks.push_back(std::move(task));
  }
  if (rng.bernoulli(0.3)) {
    run.tasks.push_back({count, "long", {{0, modes[rng.index(4)]}}, {}, 0,
                         0.0, 8.0, true});
  }
  return run;
}

using Key = std::tuple<ViolationKind, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::string>;

std::vector<Key> keys(const std::vector<Violation>& violations) {
  std::vector<Key> out;
  for (const Violation& v : violations) {
    out.emplace_back(v.kind, v.task_a, v.task_b, v.data, v.message);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RaceDifferential, SweepMatchesTheAllPairsDetector) {
  std::size_t violations = 0;
  std::size_t cycles = 0;
  std::size_t ordered_overlaps = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const RunRecord run = random_run(seed);
    std::size_t swept = 0;
    std::size_t all_pairs = 0;
    const auto got = check_races(run, &swept);
    const auto want = testing::reference_races(run, &all_pairs);
    ASSERT_EQ(keys(got), keys(want)) << "seed " << seed;
    EXPECT_LE(swept, all_pairs) << "seed " << seed;
    violations += got.size();
    cycles += count_kind(got, ViolationKind::Cycle);
    for (const Violation& v : got) {
      ordered_overlaps += v.kind == ViolationKind::DependencyViolation &&
                          v.message.find("race on handle") != std::string::npos;
    }

    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < run.tasks.size(); ++i) {
      index.emplace(run.tasks[i].id, i);
    }
    const HappensBefore hb(run);
    const testing::ReferenceClosure closure(run, index);
    ASSERT_EQ(hb.has_cycle(), closure.has_cycle()) << "seed " << seed;
    for (std::size_t a = 0; a < run.tasks.size(); ++a) {
      for (std::size_t b = 0; b < run.tasks.size(); ++b) {
        ASSERT_EQ(hb.reaches(a, b), closure.reaches(a, b))
            << "seed " << seed << ", " << a << " -> " << b;
      }
    }
  }
  // The streams reach every branch that matters.
  EXPECT_GT(violations, 1000u);
  EXPECT_GT(cycles, 10u);
  EXPECT_GT(ordered_overlaps, 10u);
}

TEST(RaceDifferential, LongUseOverManyShortOnesReportsEachOnce) {
  // One writer spans 100 short readers: 100 races, one per reader, in
  // start order; the readers never meet each other.
  RunRecord run;
  run.device_count = 2;
  run.node_count = 1;
  run.device_memory_node = {0, 0};
  run.handle_bytes = {64};
  run.handle_home = {0};
  run.tasks.push_back({0, "long", {{0, AccessMode::Write}}, {}, 0, 0.0,
                       100.0, true});
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const double start = static_cast<double>(i - 1);
    run.tasks.push_back({i, "r", {{0, AccessMode::Read}}, {}, 1, start,
                         start + 1.0, true});
  }
  std::size_t pairs = 0;
  const auto violations = check_races(run, &pairs);
  EXPECT_EQ(keys(violations), keys(testing::reference_races(run)));
  ASSERT_EQ(violations.size(), 100u);
  EXPECT_EQ(pairs, 100u);
  for (std::size_t i = 0; i < violations.size(); ++i) {
    EXPECT_EQ(violations[i].task_a, 0u);
    EXPECT_EQ(violations[i].task_b, i + 1);
  }
}

// --- scale ---------------------------------------------------------------

TEST(RaceScale, TwoHundredThousandTaskChainChecksClean) {
  // A read-write chain on handle 0 whose links also read handle 1, and
  // one reader of handle 1 that spans the whole chain. The closure this
  // detector replaced needed 5 GB here; an all-pairs loop or a sweep that
  // keeps the long reader's followers live would take hours.
  constexpr std::size_t kTasks = 200000;
  RunRecord run;
  run.device_count = 2;
  run.node_count = 1;
  run.device_memory_node = {0, 0};
  run.handle_bytes = {64, 64};
  run.handle_home = {0, 0};
  run.tasks.reserve(kTasks + 1);
  for (std::size_t i = 0; i < kTasks; ++i) {
    TaskRecord task{i, "link",
                    {{0, AccessMode::ReadWrite}, {1, AccessMode::Read}},
                    {}, 0, static_cast<double>(i),
                    static_cast<double>(i + 1), true};
    if (i > 0) {
      task.dependencies.push_back(i - 1);
    }
    run.tasks.push_back(std::move(task));
  }
  run.tasks.push_back({kTasks, "scan", {{1, AccessMode::Read}}, {}, 1, 0.0,
                       static_cast<double>(kTasks), true});
  std::size_t pairs = 0;
  EXPECT_TRUE(check_races(run, &pairs).empty());
  EXPECT_EQ(pairs, 0u);
  const HappensBefore hb(run);
  EXPECT_FALSE(hb.has_cycle());
  EXPECT_TRUE(hb.reaches(0, kTasks - 1));
  EXPECT_FALSE(hb.reaches(kTasks - 1, 0));
  EXPECT_FALSE(hb.ordered(0, kTasks));
}

}  // namespace
}  // namespace hetflow::check
