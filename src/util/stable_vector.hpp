// StableVector — a chunked pool with stable element addresses.
//
// The runtime hands out raw Task* pointers (handle-use chains, device
// queues, scheduler state), so task storage must never relocate; the seed
// used one unique_ptr per task — 10^6 individual heap objects with no
// locality. StableVector allocates fixed-size chunks and
// placement-constructs elements into them: one allocation per ChunkElems
// elements, contiguous within a chunk, addresses stable forever, O(1)
// index access. Elements live until clear()/destruction (no per-element
// free — matches the runtime's task lifetime, which is the whole run).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hetflow::util {

template <typename T, std::size_t ChunkElems = 256>
class StableVector {
  static_assert(ChunkElems > 0, "chunk must hold at least one element");

 public:
  StableVector() = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  StableVector(StableVector&& other) noexcept
      : chunks_(std::move(other.chunks_)), size_(other.size_) {
    other.chunks_.clear();
    other.size_ = 0;
  }

  StableVector& operator=(StableVector&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::move(other.chunks_);
      size_ = other.size_;
      other.chunks_.clear();
      other.size_ = 0;
    }
    return *this;
  }

  ~StableVector() { clear(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return *slot(i); }
  const T& operator[](std::size_t i) const noexcept { return *slot(i); }
  T& back() noexcept { return *slot(size_ - 1); }
  const T& back() const noexcept { return *slot(size_ - 1); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * ChunkElems) {
      chunks_.push_back(make_chunk(!chunks_.empty()));
    }
    T* fresh = slot(size_);
    ::new (static_cast<void*>(fresh)) T(std::forward<Args>(args)...);
    ++size_;
    return *fresh;
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      slot(i)->~T();
    }
    size_ = 0;
    chunks_.clear();
  }

  template <typename Self, typename Ref>
  class Iterator {
   public:
    Iterator(Self* owner, std::size_t index) : owner_(owner), index_(index) {}
    Ref operator*() const { return (*owner_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return index_ != other.index_;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    Self* owner_;
    std::size_t index_;
  };

  using iterator = Iterator<StableVector, T&>;
  using const_iterator = Iterator<const StableVector, const T&>;

  iterator begin() noexcept { return iterator(this, 0); }
  iterator end() noexcept { return iterator(this, size_); }
  const_iterator begin() const noexcept { return const_iterator(this, 0); }
  const_iterator end() const noexcept { return const_iterator(this, size_); }

 private:
  struct Chunk {
    alignas(T) std::byte storage[ChunkElems * sizeof(T)];
  };

  // Chunks of 2 MiB and up are allocated 2 MiB-aligned and advised to
  // transparent huge pages (Linux, best-effort). A million-element pool
  // walked in completion order touches its pages in an order chosen by
  // the DAG, so the difference between 4 KiB and 2 MiB pages is tens of
  // thousands of first-touch faults plus a dTLB working set the
  // hardware cannot hold — measurable on the 10^6-task bench. Callers
  // opt in simply by sizing ChunkElems past the threshold.
  //
  // Only a pool's second and later chunks take the advice. A pool that
  // fits one chunk (a serve batch's Runtime: a few thousand tasks in a
  // 4 MiB chunk) touches a fraction of it, and a process that builds one
  // such pool after another gets its chunks back from the malloc heap,
  // where the advice outlives the block: freed chunk ranges turned into
  // huge pages under whatever later allocation landed there, so peak RSS
  // followed how many huge pages the kernel could hand out at the time
  // (26 vs 63 MiB between runs of perfbench serve-tenants; 25.5 MiB in
  // every run, with or without huge pages, once first chunks go unadvised).
  static constexpr std::size_t kHugeAlign = std::size_t{2} << 20;
  static constexpr bool kHugeChunks =
#if defined(__linux__)
      sizeof(Chunk) >= kHugeAlign;
#else
      false;
#endif

  struct ChunkDeleter {
    void operator()(Chunk* chunk) const noexcept {
      if constexpr (kHugeChunks) {
        std::free(chunk);
      } else {
        delete chunk;
      }
    }
  };
  using ChunkPtr = std::unique_ptr<Chunk, ChunkDeleter>;

  static ChunkPtr make_chunk([[maybe_unused]] bool advise_huge) {
    if constexpr (kHugeChunks) {
      const std::size_t bytes =
          (sizeof(Chunk) + kHugeAlign - 1) / kHugeAlign * kHugeAlign;
      void* raw = std::aligned_alloc(kHugeAlign, bytes);
      if (raw == nullptr) {
        throw std::bad_alloc();
      }
#if defined(__linux__)
      if (advise_huge) {
        (void)madvise(raw, bytes, MADV_HUGEPAGE);  // hint; failure is fine
      }
#endif
      return ChunkPtr(::new (raw) Chunk);
    } else {
      return ChunkPtr(new Chunk);
    }
  }

  T* slot(std::size_t i) noexcept {
    return std::launder(reinterpret_cast<T*>(
        chunks_[i / ChunkElems]->storage + (i % ChunkElems) * sizeof(T)));
  }
  const T* slot(std::size_t i) const noexcept {
    return std::launder(reinterpret_cast<const T*>(
        chunks_[i / ChunkElems]->storage + (i % ChunkElems) * sizeof(T)));
  }

  std::vector<ChunkPtr> chunks_;
  std::size_t size_ = 0;
};

}  // namespace hetflow::util
