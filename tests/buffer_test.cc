#include "common/buffer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mem/tier_cache.h"
#include "storage/block_store.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_buffer_" + tag + "_" +
         std::to_string(::getpid());
}

std::vector<uint8_t> Pattern(int64_t size, uint8_t seed) {
  std::vector<uint8_t> bytes(size);
  for (int64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(seed + i);
  }
  return bytes;
}

// ---------- Buffer ----------

TEST(BufferTest, DefaultIsEmpty) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.use_count(), 0);
}

TEST(BufferTest, CopySharesBytesInsteadOfCopying) {
  Buffer a = Buffer::CopyOf("ratel", 5);
  Buffer b = a;
  EXPECT_EQ(a.data(), b.data());  // a ref, not a second allocation
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_TRUE(a.shared());
  b.reset();
  EXPECT_FALSE(a.shared());
  EXPECT_EQ(std::memcmp(a.data(), "ratel", 5), 0);
}

TEST(BufferTest, MoveTransfersOwnership) {
  Buffer a = Buffer::CopyOf("xyz", 3);
  const uint8_t* ptr = a.data();
  Buffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): zeroed source
}

TEST(BufferTest, FromVectorAdoptsWithoutCopy) {
  std::vector<uint8_t> bytes = Pattern(1000, 7);
  const uint8_t* ptr = bytes.data();
  Buffer b = Buffer::FromVector(std::move(bytes));
  EXPECT_EQ(b.data(), ptr);  // adopted storage, no copy
  EXPECT_EQ(b.size(), 1000);
  EXPECT_EQ(b.data()[999], static_cast<uint8_t>(7 + 999));
}

// ---------- BufferPool ----------

// Powers of two up to 2 KiB, then 16 steps per octave: every lease
// wastes at most 1/16 of its size.
TEST(BufferPoolTest, SizeClassesBoundWasteToASixteenth) {
  BufferPool pool;
  EXPECT_EQ(pool.SizeClassFor(1), BufferPool::kDefaultMinBlockBytes);
  EXPECT_EQ(pool.SizeClassFor(256), 256);
  EXPECT_EQ(pool.SizeClassFor(257), 512);
  EXPECT_EQ(pool.SizeClassFor(2048), 2048);
  EXPECT_EQ(pool.SizeClassFor(2049), 2176);
  EXPECT_EQ(pool.SizeClassFor(4096), 4096);
  EXPECT_EQ(pool.SizeClassFor(5000), 5120);
  // A 64 KiB fp16 frame payload plus its 32-byte header: 68 KiB, not
  // the next power of two.
  EXPECT_EQ(pool.SizeClassFor((64 << 10) + 32), 68 << 10);
  for (int64_t size = 1; size <= (1 << 20); size += 97) {
    const int64_t cls = pool.SizeClassFor(size);
    ASSERT_GE(cls, size);
    ASSERT_EQ(pool.SizeClassFor(cls), cls) << "class of size " << size;
    if (size > BufferPool::kFineClassBytes) {
      ASSERT_LE(16 * (cls - size), size) << "size " << size;
    }
  }
}

TEST(BufferPoolTest, ReleasedBlocksAreReusedNotReallocated) {
  BufferPool pool;
  const uint8_t* first_block;
  {
    Buffer a = pool.Lease(1000);
    first_block = a.data();
  }  // returns to the 1024-class free list
  Buffer b = pool.Lease(900);  // same class: must reuse the block
  EXPECT_EQ(b.data(), first_block);
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.allocations, 1);
  EXPECT_EQ(stats.reuses, 1);
  EXPECT_EQ(stats.returns, 1);
  EXPECT_EQ(stats.outstanding_bytes, 1024);
  EXPECT_EQ(stats.pooled_bytes, 0);
}

TEST(BufferPoolTest, SteadyStateLoopMakesZeroAllocationsAfterWarmup) {
  BufferPool pool;
  // Warmup: the working set's size classes get their blocks.
  for (int i = 0; i < 3; ++i) {
    Buffer a = pool.Lease(4000);
    Buffer b = pool.Lease(2000);
  }
  const int64_t warm_allocs = pool.stats().allocations;
  for (int i = 0; i < 100; ++i) {
    Buffer a = pool.Lease(4000);
    Buffer b = pool.Lease(2000);
  }
  EXPECT_EQ(pool.stats().allocations, warm_allocs)
      << "steady-state leases must all be pool hits";
}

TEST(BufferPoolTest, StatsTrackOutstandingAndPooledBytes) {
  BufferPool pool;
  Buffer a = pool.Lease(300);  // class 512
  EXPECT_EQ(pool.stats().outstanding_bytes, 512);
  a.reset();
  EXPECT_EQ(pool.stats().outstanding_bytes, 0);
  EXPECT_EQ(pool.stats().pooled_bytes, 512);
  pool.Trim();
  EXPECT_EQ(pool.stats().pooled_bytes, 0);
}

TEST(BufferPoolTest, SharedLeaseReturnsOnlyWhenLastRefDrops) {
  BufferPool pool;
  Buffer a = pool.Lease(100);
  Buffer b = a;
  a.reset();
  EXPECT_EQ(pool.stats().returns, 0);  // b still holds the block
  b.reset();
  EXPECT_EQ(pool.stats().returns, 1);
}

TEST(BufferPoolTest, BuffersMayOutliveThePool) {
  Buffer survivor;
  {
    BufferPool pool;
    survivor = pool.Lease(128);
    std::memset(survivor.mutable_data(), 0xAB, 128);
  }  // pool dies first; the block frees to the heap on last ref
  EXPECT_EQ(survivor.data()[127], 0xAB);
  survivor.reset();  // must not crash or leak (ASan checks the latter)
}

TEST(BufferPoolTest, ZeroSizeLeaseDoesNotTouchThePool) {
  BufferPool pool;
  Buffer b = pool.Lease(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.stats().leases(), 0);
}

// The refcount/free-list churn TSan exists for: concurrent leases,
// cross-thread releases, and shared refs dropped from both sides.
TEST(BufferPoolTest, ConcurrentLeaseAndReleaseStress) {
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<int64_t> checksum_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &checksum_failures, t] {
      for (int i = 0; i < kIters; ++i) {
        const int64_t size = 64 + 97 * ((t * kIters + i) % 40);
        Buffer a = pool.Lease(size);
        std::memset(a.mutable_data(), static_cast<uint8_t>(t), size);
        Buffer b = a;  // share, then drop from this thread
        a.reset();
        if (b.data()[size - 1] != static_cast<uint8_t>(t)) {
          checksum_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(checksum_failures.load(), 0);
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.outstanding_bytes, 0);
  EXPECT_EQ(stats.returns, stats.leases());
}

// ---------- TierCache with Buffer entries ----------

TEST(TierCacheBufferTest, TryGetRefServesByReferenceWithoutCopy) {
  auto store = BlockStore::Open(TempDir("refhit"), 2, 1 << 16);
  ASSERT_TRUE(store.ok());
  TierCache cache(store->get(), 1 << 20);
  std::vector<uint8_t> blob = Pattern(512, 3);
  ASSERT_TRUE(cache.Put("k", blob.data(), blob.size()).ok());

  Buffer ref1, ref2;
  ASSERT_TRUE(cache.TryGetRef("k", 512, &ref1));
  ASSERT_TRUE(cache.TryGetRef("k", 512, &ref2));
  EXPECT_EQ(ref1.data(), ref2.data());  // both refs, one allocation
  EXPECT_EQ(std::memcmp(ref1.data(), blob.data(), 512), 0);
  EXPECT_EQ(cache.stats().hits, 2);

  Buffer miss;
  EXPECT_FALSE(cache.TryGetRef("absent", 512, &miss));
  EXPECT_FALSE(cache.TryGetRef("k", 100, &miss));  // size mismatch = miss
}

TEST(TierCacheBufferTest, OutstandingRefSurvivesEvictionUnaliased) {
  auto store = BlockStore::Open(TempDir("evict"), 2, 1 << 16);
  ASSERT_TRUE(store.ok());
  // Capacity fits exactly one 512-byte entry: every insert evicts.
  TierCache cache(store->get(), 512);
  std::vector<uint8_t> old_bytes = Pattern(512, 11);
  ASSERT_TRUE(cache.Put("k", old_bytes.data(), 512).ok());

  Buffer held;
  ASSERT_TRUE(cache.TryGetRef("k", 512, &held));

  // Evict "k" by caching another key, then rewrite "k" with new bytes.
  std::vector<uint8_t> filler = Pattern(512, 200);
  ASSERT_TRUE(cache.Put("other", filler.data(), 512).ok());
  std::vector<uint8_t> new_bytes = Pattern(512, 77);
  ASSERT_TRUE(cache.Put("k", new_bytes.data(), 512).ok());

  // The reader's ref still sees the *old* bytes — eviction and rewrite
  // released the cache's reference, not the reader's.
  EXPECT_EQ(std::memcmp(held.data(), old_bytes.data(), 512), 0);

  Buffer fresh;
  ASSERT_TRUE(cache.TryGetRef("k", 512, &fresh));
  EXPECT_EQ(std::memcmp(fresh.data(), new_bytes.data(), 512), 0);
  EXPECT_NE(fresh.data(), held.data()) << "rewrite must not alias old ref";
}

TEST(TierCacheBufferTest, AdmitBufferTakesReferenceNotCopy) {
  auto store = BlockStore::Open(TempDir("admit"), 2, 1 << 16);
  ASSERT_TRUE(store.ok());
  TierCache cache(store->get(), 1 << 20);
  Buffer published = Buffer::CopyOf(Pattern(256, 9).data(), 256);
  cache.AdmitBuffer("k", published);
  Buffer ref;
  ASSERT_TRUE(cache.TryGetRef("k", 256, &ref));
  EXPECT_EQ(ref.data(), published.data());  // the same allocation
  EXPECT_GE(published.use_count(), 3);      // holder + cache + ref
}

}  // namespace
}  // namespace ratel
