#include "util/interner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/strings.hpp"

namespace hetflow::util {
namespace {

TEST(NameArena, StoreReturnsArenaBackedView) {
  NameArena arena;
  std::string transient = "task_name";
  const std::string_view view = arena.store(transient);
  // Mutate and destroy the caller's string: the view must be backed by
  // the arena, not the argument.
  transient.assign(transient.size(), 'x');
  transient.clear();
  EXPECT_EQ(view, "task_name");
}

TEST(NameArena, RepeatedNameSharesStorage) {
  NameArena arena;
  const std::string_view first = arena.store("label");
  const std::string_view again = arena.store(std::string("label"));
  EXPECT_EQ(again, "label");
  EXPECT_EQ(again.data(), first.data());
  // No lookup table: a name stored again after another one gets a copy
  // of its own, equal in content.
  EXPECT_EQ(arena.store("other"), "other");
  const std::string_view later = arena.store("label");
  EXPECT_EQ(later, "label");
  EXPECT_NE(later.data(), first.data());
}

TEST(NameArena, ViewsSurviveChunkGrowth) {
  // Force multiple 64 KiB chunks and keep every earlier view valid —
  // the property Task/DataHandle/Span lifetimes depend on.
  NameArena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 5000; ++i) {
    std::string name = format("name_%d", i);
    name.append(32, static_cast<char>('a' + i % 26));
    expected.push_back(std::move(name));
    views.push_back(arena.store(expected.back()));
  }
  EXPECT_GT(arena.arena_bytes(), 64u * 1024u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expected[i]);
  }
}

TEST(NameArena, HandlesEmptyAndOversizedStrings) {
  NameArena arena;
  EXPECT_EQ(arena.store(""), "");
  EXPECT_EQ(arena.arena_bytes(), 0u);  // nothing to copy, no chunk
  const std::string_view small = arena.store("small");
  EXPECT_EQ(arena.store(""), "");
  // A single string larger than the chunk size gets its own chunk.
  const std::string big(200 * 1024, 'z');
  const std::string_view view = arena.store(big);
  EXPECT_EQ(view.size(), big.size());
  EXPECT_EQ(view, big);
  EXPECT_EQ(arena.arena_bytes(), 64u * 1024u + big.size());
  // Small strings after the jumbo chunk still store, and the first
  // chunk's views are untouched.
  EXPECT_EQ(arena.store("after"), "after");
  EXPECT_EQ(small, "small");
}

}  // namespace
}  // namespace hetflow::util
