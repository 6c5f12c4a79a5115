#include "util/interner.hpp"

namespace hetflow::util {

void NameArena::add_chunk(std::size_t min_bytes) {
  const std::size_t chunk_size = std::max(kChunkBytes, min_bytes);
  // for_overwrite: the chunk is written before it is read.
  chunks_.push_back(std::make_unique_for_overwrite<char[]>(chunk_size));
  chunk_used_ = 0;
  chunk_capacity_ = chunk_size;
  arena_bytes_ += chunk_size;
}

}  // namespace hetflow::util
