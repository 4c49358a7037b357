#include "sim/arena.hpp"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace perfcloud::sim {

namespace {

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

// Under ASan every byte at or past the bump position is poisoned, so a span
// read after its ArenaScope rewound (or after reset) is reported instead of
// silently returning recycled scratch. No-ops in other builds.
void poison(std::byte* p, std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

void unpoison(std::byte* p, std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      const std::size_t start = align_up(offset_, align);
      if (start + bytes <= b.size) {
        offset_ = start + bytes;
        unpoison(b.data.get() + start, bytes);
        return b.data.get() + start;
      }
      // This block is exhausted: charge its tail to the high-water mark and
      // move on (a later block may already exist after a rewind).
      offset_ = 0;
      ++current_;
      if (current_ < blocks_.size()) continue;
    }
    grow(bytes + align);
  }
}

void Arena::grow(std::size_t min_bytes) {
  std::size_t size = blocks_.empty() ? kInitialBlockBytes : blocks_.back().size * 2;
  size = std::max(size, min_bytes);
  blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
  poison(blocks_.back().data.get(), size);
  current_ = blocks_.size() - 1;
  offset_ = 0;
}

std::size_t Arena::used() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < current_ && i < blocks_.size(); ++i) total += blocks_[i].size;
  return total + offset_;
}

void Arena::reset() {
  high_water_ = std::max(high_water_, used());
  if (blocks_.size() > 1) {
    // Consolidate: one block covering everything the chain ever held, so the
    // next quantum bumps through a single contiguous block.
    const std::size_t size = std::max(high_water_, blocks_.back().size);
    blocks_.clear();
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
  }
  for (Block& b : blocks_) poison(b.data.get(), b.size);
  current_ = 0;
  offset_ = 0;
}

void Arena::rewind(Mark m) {
  // The scope being unwound held the peak usage reset() will see nothing of;
  // record it so consolidation sizes the single block to the true maximum.
  high_water_ = std::max(high_water_, used());
  // Only rewind backwards; blocks past m.block stay allocated (their memory
  // is dead until reset() consolidates) so earlier marks remain valid.
  if (m.block < current_ || (m.block == current_ && m.offset <= offset_)) {
    // Poison what the scope handed out; everything past the old bump
    // position is poisoned already.
    for (std::size_t b = m.block; b <= current_ && b < blocks_.size(); ++b) {
      const std::size_t from = b == m.block ? m.offset : 0;
      const std::size_t to = b == current_ ? offset_ : blocks_[b].size;
      poison(blocks_[b].data.get() + from, to - from);
    }
    current_ = m.block;
    offset_ = m.offset;
  }
}

Arena& scratch_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace perfcloud::sim
