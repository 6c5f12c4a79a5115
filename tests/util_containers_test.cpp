// Unit tests for the hot-path containers backing the million-task core:
// SmallVector (inline edge/access lists), SmallFunction (inline event
// callbacks), StableVector (chunked task pool with stable addresses).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/small_function.hpp"
#include "util/small_vector.hpp"
#include "util/stable_vector.hpp"

namespace hetflow::util {
namespace {

// ---------------------------------------------------------------- SmallVector

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVector, SpillsToHeapAndKeepsContents) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.is_inline());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  }
}

TEST(SmallVector, WorksWithNonTrivialElements) {
  SmallVector<std::string, 2> v;
  v.push_back("alpha");
  v.push_back("beta");
  v.push_back(std::string(200, 'x'));  // forces the spill with live strings
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[1], "beta");
  EXPECT_EQ(v[2].size(), 200u);
}

TEST(SmallVector, CopyIsDeep) {
  SmallVector<std::string, 2> a;
  a.push_back("one");
  a.push_back("two");
  a.push_back("three");
  SmallVector<std::string, 2> b(a);
  b[0] = "changed";
  EXPECT_EQ(a[0], "one");
  EXPECT_EQ(b.size(), a.size());
  a = b;
  EXPECT_EQ(a[0], "changed");
}

TEST(SmallVector, MoveStealsHeapBuffer) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 50; ++i) {
    a.push_back(i);
  }
  const int* heap_data = a.data();
  SmallVector<int, 2> b(std::move(a));
  EXPECT_EQ(b.data(), heap_data);  // buffer stolen, not copied
  EXPECT_EQ(b.size(), 50u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move) — spec'd state
  a.push_back(7);          // moved-from object is reusable
  EXPECT_EQ(a[0], 7);
}

TEST(SmallVector, MoveOfInlineContentsMovesElements) {
  SmallVector<std::string, 4> a;
  a.push_back("only");
  SmallVector<std::string, 4> b(std::move(a));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], "only");
}

TEST(SmallVector, IterationAndRangeFor) {
  SmallVector<int, 3> v{1, 2, 3, 4, 5};
  int sum = 0;
  for (int x : v) {
    sum += x;
  }
  EXPECT_EQ(sum, 15);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 5);
}

TEST(SmallVector, ComparesAgainstStdVector) {
  SmallVector<int, 2> v{1, 2, 3};
  EXPECT_TRUE(v == (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE((std::vector<int>{1, 2, 3}) == v);
  EXPECT_FALSE(v == (std::vector<int>{1, 2}));
}

TEST(SmallVector, ClearAndPopBackDestroyElements) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> count;
    ~Probe() {
      if (count != nullptr) {
        ++*count;
      }
    }
  };
  {
    SmallVector<Probe, 2> v;
    v.push_back(Probe{counter});
    v.push_back(Probe{counter});
    v.push_back(Probe{counter});  // spill: temporaries also destruct
    const int before = *counter;
    v.pop_back();
    EXPECT_EQ(*counter, before + 1);
    v.clear();
    EXPECT_EQ(*counter, before + 3);
    EXPECT_TRUE(v.empty());
  }
}

// ---------------------------------------------------------------- SmallFunction

TEST(SmallFunction, InvokesInlineLambda) {
  int hits = 0;
  SmallFunction<void(), 64> fn([&] { ++hits; });
  ASSERT_TRUE(fn != nullptr);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, NullByDefaultAndComparable) {
  SmallFunction<void(), 64> fn;
  EXPECT_TRUE(fn == nullptr);
  fn = [] {};
  EXPECT_TRUE(fn != nullptr);
  fn = nullptr;
  EXPECT_TRUE(fn == nullptr);
}

TEST(SmallFunction, MovePreservesCapturedState) {
  std::vector<int> seen;
  SmallFunction<void(), 64> a([&seen, tag = 42] { seen.push_back(tag); });
  SmallFunction<void(), 64> b(std::move(a));
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
  b();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 42);
}

TEST(SmallFunction, HeapFallbackForOversizeCaptures) {
  // Capture far beyond the 64-byte inline budget: must still work via
  // the heap path, including a move of the wrapper.
  std::array<std::uint64_t, 32> payload{};
  payload[31] = 9;
  std::uint64_t out = 0;
  SmallFunction<void(), 64> fn([payload, &out] { out = payload[31]; });
  SmallFunction<void(), 64> moved(std::move(fn));
  moved();
  EXPECT_EQ(out, 9u);
}

TEST(SmallFunction, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    SmallFunction<void(), 64> fn([counter] {});
    EXPECT_EQ(counter.use_count(), 2);
    SmallFunction<void(), 64> other(std::move(fn));
    EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  }
  EXPECT_EQ(counter.use_count(), 1);  // both wrappers released exactly once
}

// ---------------------------------------------------------------- StableVector

TEST(StableVector, AddressesSurviveGrowth) {
  StableVector<std::uint64_t, 4> pool;
  std::vector<const std::uint64_t*> addresses;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    addresses.push_back(&pool.emplace_back(i));
  }
  ASSERT_EQ(pool.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(*addresses[i], i);          // pointer still valid
    EXPECT_EQ(&pool[i], addresses[i]);    // indexing agrees with it
  }
}

TEST(StableVector, IterationVisitsAllInOrder) {
  StableVector<int, 8> pool;
  for (int i = 0; i < 37; ++i) {  // not a multiple of the chunk size
    pool.emplace_back(i);
  }
  int expect = 0;
  for (const int& x : pool) {
    EXPECT_EQ(x, expect++);
  }
  EXPECT_EQ(expect, 37);
}

TEST(StableVector, NonTrivialElementsDestroyed) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> count;
    explicit Probe(std::shared_ptr<int> c) : count(std::move(c)) {}
    ~Probe() { ++*count; }
  };
  {
    StableVector<Probe, 4> pool;
    for (int i = 0; i < 10; ++i) {
      pool.emplace_back(counter);
    }
  }
  EXPECT_EQ(*counter, 10);
}

#if defined(__linux__)
/// The VmFlags line of the mapping in /proc/self/smaps that holds `p`.
std::string vm_flags_at(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    char dash = 0;
    std::istringstream header(line);
    if (header >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return "";
}

TEST(StableVector, OnlyChunksAfterTheFirstAreAdvisedToHugePages) {
  // 40 MiB chunks: past glibc's largest mmap threshold, so each chunk is
  // a mapping of its own and its flags are the pool's advice alone.
  // Elements leave their storage unwritten, so the pool stays out of RSS.
  struct Untouched {
    Untouched() {}  // NOLINT(modernize-use-equals-default) — no zeroing
    std::uint64_t value;
  };
  constexpr std::size_t kChunk = std::size_t{5} << 20;
  StableVector<Untouched, kChunk> pool;
  while (pool.size() <= kChunk) {
    pool.emplace_back();
  }
  const std::string first = vm_flags_at(&pool[0]);
  const std::string second = vm_flags_at(&pool[kChunk]);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(first.find(" hg"), std::string::npos) << first;
  if (std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled")) {
    EXPECT_NE(second.find(" hg"), std::string::npos) << second;
  }
}
#endif

}  // namespace
}  // namespace hetflow::util
