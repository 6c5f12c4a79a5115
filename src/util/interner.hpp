// NameArena — append-only storage for task and datum names with stable
// views.
//
// The million-task hot path names every task and datum, and copying those
// names into Task/DataHandle/Span objects (one std::string each) is a
// measurable per-task cost and a 32-byte-per-object footprint. The arena
// copies each name into a chunked character buffer and hands out a
// std::string_view into it. Views stay valid for the arena's lifetime:
// chunks are never reallocated or freed, so holders (Task, DataHandle,
// trace::Span, obs::Event) carry a 16-byte view instead of an owning
// string.
//
// The arena does not deduplicate: every task and file name of the
// generated workflows is unique, so a lookup table would miss on every
// name. Only a name equal to the one stored just before it shares that
// name's storage (callers that label a run of tasks alike).
//
// Lifetime contract: the arena must outlive every object holding one of
// its views — in practice it is the first-declared member of the owning
// Runtime/DataRegistry, destroyed last. Not thread-safe; each runtime owns
// its own arena (the sweep engine's thread-confinement rule covers it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace hetflow::util {

class NameArena {
 public:
  NameArena() = default;
  NameArena(const NameArena&) = delete;
  NameArena& operator=(const NameArena&) = delete;

  /// Copies `text` into the arena and returns the stable view. A name
  /// equal to the previous one returns the previous view.
  std::string_view store(std::string_view text) {
    if (text == last_) {
      return last_;
    }
    if (text.size() > chunk_capacity_ - chunk_used_) {
      add_chunk(text.size());
    }
    char* dest = chunks_.back().get() + chunk_used_;
    std::copy(text.begin(), text.end(), dest);
    chunk_used_ += text.size();
    last_ = {dest, text.size()};
    return last_;
  }

  /// Bytes reserved across all chunks (observability for memory audits).
  std::size_t arena_bytes() const noexcept { return arena_bytes_; }

 private:
  /// Starts a chunk of at least `min_bytes` (a name longer than the chunk
  /// size gets a chunk of its own).
  void add_chunk(std::size_t min_bytes);

  static constexpr std::size_t kChunkBytes = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_used_ = 0;      ///< bytes used in the last chunk
  std::size_t chunk_capacity_ = 0;  ///< size of the last chunk
  std::size_t arena_bytes_ = 0;
  std::string_view last_;  ///< the view store() returned last
};

}  // namespace hetflow::util
