// Per-shard bump arena for per-quantum scratch (suspect lists, sample
// pointer vectors, deviation scratch). Each pool participant — worker
// threads and the engine thread alike — owns a thread-local arena
// (scratch_arena()); shard tasks carve allocations from it with ArenaScope /
// ArenaVec and the pool resets it when the participant leaves the batch, so
// in steady state a quantum performs zero heap allocations for scratch.
//
// Under AddressSanitizer the arena poisons everything past its bump
// position, so scratch read after its ArenaScope rewound is reported.
//
// Growth: when a block is exhausted a new block of twice the size is
// chained on — previous allocations stay valid for the rest of the quantum.
// reset() rewinds to offset zero and, if the arena ever chained, replaces
// the chain with one block sized to the observed high-water mark, so a
// warmed arena never allocates again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace perfcloud::sim {

class Arena {
 public:
  static constexpr std::size_t kInitialBlockBytes = 16 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (a power of two). The memory
  /// is valid until the next reset()/rewind past it; nothing is destructed.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewind everything and consolidate chained blocks into one block sized
  /// to the high-water mark (allocates only after a quantum that grew).
  void reset();

  /// Watermark for scoped rewind (ArenaScope). A mark taken before
  /// allocations A is only valid while every block A landed in still exists,
  /// i.e. until the next reset().
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };
  [[nodiscard]] Mark mark() const { return Mark{current_, offset_}; }
  void rewind(Mark m);

  /// Total bytes handed out since the last reset (diagnostics).
  [[nodiscard]] std::size_t used() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< Block being bumped.
  std::size_t offset_ = 0;   ///< Next free byte in blocks_[current_].
  std::size_t high_water_ = 0;
};

/// The calling thread's scratch arena. Shard tasks may use it freely: tasks
/// never migrate threads mid-run, and the pool resets each participant's
/// arena at batch exit (the barrier), never another thread's.
[[nodiscard]] Arena& scratch_arena();

/// RAII watermark: frees (rewinds) everything allocated inside the scope.
/// Scopes must nest properly within one thread.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Minimal push_back vector on an arena, for trivially destructible scratch
/// (sample pointers, suspect signals, VM ids). Growth allocates a doubled
/// buffer from the arena and copies; the old buffer is abandoned until the
/// enclosing scope rewinds. No destructor runs for the elements.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_destructible_v<T>,
                "ArenaVec never destroys elements; T must not need it");
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec grows by memcpy-style copy; T must be trivially copyable");

 public:
  explicit ArenaVec(Arena& arena) : arena_(arena) {}
  /// `n` value-initialized elements — the fixed-size scratch and output
  /// columns of the per-tick hardware models.
  ArenaVec(Arena& arena, std::size_t n) : arena_(arena) { resize(n); }

  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow_to(n);
  }

  /// Set the size to `n`, value-initializing any new elements — the
  /// out-buffer shape the hardware models write their grants into.
  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void grow() { grow_to(capacity_ == 0 ? 8 : capacity_ * 2); }

  void grow_to(std::size_t cap) {
    T* fresh = static_cast<T*>(arena_.allocate(cap * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = data_[i];
    data_ = fresh;
    capacity_ = cap;
  }

  Arena& arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace perfcloud::sim
