// Scratch-arena contracts: sized ArenaVec columns come back value-initialized
// even on recycled memory, and under AddressSanitizer everything past the
// bump position is poisoned, so a span used after its ArenaScope rewound is
// reported instead of silently reading recycled scratch (the ASan build runs
// the poisoning tests; other builds do not compile them).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "sim/arena.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace perfcloud::sim {
namespace {

TEST(Arena, SizedArenaVecIsValueInitializedOnRecycledMemory) {
  Arena arena;
  void* dirty = nullptr;
  {
    const ArenaScope scope(arena);
    dirty = arena.allocate(8 * sizeof(double), alignof(double));
    std::memset(dirty, 0xff, 8 * sizeof(double));
  }
  const ArenaScope scope(arena);
  const ArenaVec<double> v(arena, 8);
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(static_cast<const void*>(v.data()), dirty);  // the scope's memory was reused
  for (const double x : v) EXPECT_EQ(x, 0.0);
}

#if defined(__SANITIZE_ADDRESS__)

bool poisoned(const void* p) { return __asan_address_is_poisoned(p) != 0; }

TEST(Arena, MemoryPastItsScopeIsPoisonedUnderAsan) {
  Arena arena;
  const std::byte* scoped = nullptr;
  {
    const ArenaScope scope(arena);
    scoped = static_cast<const std::byte*>(arena.allocate(64, 8));
    EXPECT_FALSE(poisoned(scoped));
    EXPECT_FALSE(poisoned(scoped + 63));
    EXPECT_TRUE(poisoned(scoped + 64));  // past the bump position
  }
  EXPECT_TRUE(poisoned(scoped));
  EXPECT_TRUE(poisoned(scoped + 63));

  // The next allocation reuses the rewound bytes and unpoisons exactly them.
  const auto* next = static_cast<const std::byte*>(arena.allocate(32, 8));
  EXPECT_EQ(next, scoped);
  EXPECT_FALSE(poisoned(next));
  EXPECT_FALSE(poisoned(next + 31));
  EXPECT_TRUE(poisoned(next + 32));

  arena.reset();
  EXPECT_TRUE(poisoned(next));
}

TEST(Arena, RewindAcrossChainedBlocksPoisonsBothUnderAsan) {
  Arena arena;
  const auto* first = static_cast<const std::byte*>(arena.allocate(64, 8));
  const std::byte* tail = nullptr;
  const std::byte* chained = nullptr;
  {
    const ArenaScope scope(arena);
    tail = static_cast<const std::byte*>(arena.allocate(128, 8));
    // Larger than the first block: forces a second block onto the chain.
    chained = static_cast<const std::byte*>(arena.allocate(Arena::kInitialBlockBytes, 8));
    EXPECT_FALSE(poisoned(tail));
    EXPECT_FALSE(poisoned(chained));
    EXPECT_FALSE(poisoned(chained + Arena::kInitialBlockBytes - 1));
  }
  EXPECT_FALSE(poisoned(first));  // allocated before the scope: still live
  EXPECT_TRUE(poisoned(tail));
  EXPECT_TRUE(poisoned(chained));
  EXPECT_TRUE(poisoned(chained + Arena::kInitialBlockBytes - 1));

  // reset() consolidates the chain into one fresh block, poisoned throughout.
  arena.reset();
  const auto* fresh = static_cast<const std::byte*>(arena.allocate(16, 8));
  EXPECT_FALSE(poisoned(fresh));
  EXPECT_TRUE(poisoned(fresh + 16));
}

#endif  // __SANITIZE_ADDRESS__

}  // namespace
}  // namespace perfcloud::sim
