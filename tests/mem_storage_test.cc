#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/tier_cache.h"
#include "storage/block_store.h"
#include "storage/throttled_channel.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

// ---------- BlockStore ----------

using BlockStoreTest = TempDirTest;
TEST_F(BlockStoreTest, PutGetRoundTrip) {
  auto store = BlockStore::Open(tmp.path(), 4, 1024);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Rng rng(1);
  std::vector<uint8_t> data(10000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  ASSERT_TRUE((*store)->Put("t1", data.data(), data.size()).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE((*store)->Get("t1", out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(BlockStoreTest, StripesAcrossFiles) {
  auto store = BlockStore::Open(tmp.path(), 4, 100);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> data(1000, 0xAB);
  ASSERT_TRUE((*store)->Put("big", data.data(), data.size()).ok());
  EXPECT_EQ((*store)->allocated_bytes(), 1000);
  EXPECT_EQ((*store)->num_stripes(), 4);
}

TEST_F(BlockStoreTest, OverwriteSameSizeInPlace) {
  auto store = BlockStore::Open(tmp.path(), 2, 64);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> a(500, 1), b(500, 2);
  ASSERT_TRUE((*store)->Put("k", a.data(), a.size()).ok());
  const int64_t alloc1 = (*store)->allocated_bytes();
  ASSERT_TRUE((*store)->Put("k", b.data(), b.size()).ok());
  EXPECT_EQ((*store)->allocated_bytes(), alloc1);  // no new extents
  std::vector<uint8_t> out(500);
  ASSERT_TRUE((*store)->Get("k", out.data(), out.size()).ok());
  EXPECT_EQ(out, b);
}

TEST_F(BlockStoreTest, SizeChangingRewriteReallocates) {
  auto store = BlockStore::Open(tmp.path(), 2, 64);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> a(100, 1), b(300, 2);
  ASSERT_TRUE((*store)->Put("k", a.data(), a.size()).ok());
  ASSERT_TRUE((*store)->Put("k", b.data(), b.size()).ok());
  auto size = (*store)->BlobSize("k");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 300);
  std::vector<uint8_t> out(300);
  ASSERT_TRUE((*store)->Get("k", out.data(), out.size()).ok());
  EXPECT_EQ(out, b);
}

TEST_F(BlockStoreTest, GetMissingIsNotFound) {
  auto store = BlockStore::Open(tmp.path(), 1, 64);
  ASSERT_TRUE(store.ok());
  uint8_t buf[8];
  EXPECT_EQ((*store)->Get("nope", buf, 8).code(), StatusCode::kNotFound);
  EXPECT_FALSE((*store)->Contains("nope"));
}

TEST_F(BlockStoreTest, GetWrongSizeRejected) {
  auto store = BlockStore::Open(tmp.path(), 1, 64);
  ASSERT_TRUE(store.ok());
  uint8_t data[16] = {0};
  ASSERT_TRUE((*store)->Put("k", data, 16).ok());
  uint8_t buf[8];
  EXPECT_EQ((*store)->Get("k", buf, 8).code(), StatusCode::kInvalidArgument);
}

TEST_F(BlockStoreTest, DeleteRemovesKey) {
  auto store = BlockStore::Open(tmp.path(), 1, 64);
  ASSERT_TRUE(store.ok());
  uint8_t data[4] = {1, 2, 3, 4};
  ASSERT_TRUE((*store)->Put("k", data, 4).ok());
  EXPECT_EQ((*store)->num_blobs(), 1);
  ASSERT_TRUE((*store)->Delete("k").ok());
  EXPECT_EQ((*store)->num_blobs(), 0);
  EXPECT_EQ((*store)->Delete("k").code(), StatusCode::kNotFound);
}

TEST_F(BlockStoreTest, EmptyBlobAllowed) {
  auto store = BlockStore::Open(tmp.path(), 2, 64);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("nil", nullptr, 0).ok());
  EXPECT_TRUE((*store)->Contains("nil"));
  ASSERT_TRUE((*store)->Get("nil", nullptr, 0).ok());
}

TEST_F(BlockStoreTest, ManyKeysSurviveInterleavedWrites) {
  auto store = BlockStore::Open(tmp.path(), 3, 128);
  ASSERT_TRUE(store.ok());
  Rng rng(9);
  std::vector<std::vector<uint8_t>> blobs(50);
  for (int i = 0; i < 50; ++i) {
    blobs[i].resize(64 + rng.NextBelow(512));
    for (auto& b : blobs[i]) b = static_cast<uint8_t>(rng.NextU64());
    ASSERT_TRUE((*store)
                    ->Put("k" + std::to_string(i), blobs[i].data(),
                          static_cast<int64_t>(blobs[i].size()))
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> out(blobs[i].size());
    ASSERT_TRUE((*store)
                    ->Get("k" + std::to_string(i), out.data(),
                          static_cast<int64_t>(out.size()))
                    .ok());
    EXPECT_EQ(out, blobs[i]) << i;
  }
}

TEST_F(BlockStoreTest, ConcurrentDistinctKeys) {
  auto store = BlockStore::Open(tmp.path(), 4, 256);
  ASSERT_TRUE(store.ok());
  constexpr int kThreads = 4, kKeysPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kKeysPerThread; ++i) {
        std::vector<uint8_t> data(300 + rng.NextBelow(300));
        for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
        const std::string key =
            "t" + std::to_string(t) + "_k" + std::to_string(i);
        if (!(*store)
                 ->Put(key, data.data(), static_cast<int64_t>(data.size()))
                 .ok()) {
          ++failures;
        }
        std::vector<uint8_t> out(data.size());
        if (!(*store)
                 ->Get(key, out.data(), static_cast<int64_t>(out.size()))
                 .ok()) {
          ++failures;
        }
        if (out != data) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*store)->num_blobs(), kThreads * kKeysPerThread);
}

TEST_F(BlockStoreTest, InvalidConfigRejected) {
  EXPECT_FALSE(BlockStore::Open(tmp.path(), 0, 64).ok());
  EXPECT_FALSE(BlockStore::Open(tmp.path(), 2, 0).ok());
}

TEST_F(BlockStoreTest, ByteCountersTrackSuccessfulOps) {
  auto store = BlockStore::Open(tmp.path(), 2, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->total_bytes_read(), 0);
  EXPECT_EQ((*store)->total_bytes_written(), 0);
  std::vector<uint8_t> data(300, 0x42);
  ASSERT_TRUE((*store)->Put("a", data.data(), 300).ok());
  ASSERT_TRUE((*store)->Put("b", data.data(), 200).ok());
  EXPECT_EQ((*store)->total_bytes_written(), 500);
  std::vector<uint8_t> out(300);
  ASSERT_TRUE((*store)->Get("a", out.data(), 300).ok());
  EXPECT_EQ((*store)->total_bytes_read(), 300);
  // Failed operations do not count.
  EXPECT_FALSE((*store)->Get("missing", out.data(), 300).ok());
  EXPECT_FALSE((*store)->Get("a", out.data(), 7).ok());  // wrong size
  EXPECT_EQ((*store)->total_bytes_read(), 300);
  EXPECT_EQ((*store)->total_bytes_written(), 500);
}

// ---------- TierCache ----------

TEST(TierCacheTest, CountersReconcileWithStoreTraffic) {
  // The cache owns no store leg: its caller probes, reads the store on
  // a miss and promotes the result — the transfer engine's read path.
  const ScopedTempDir tmp("store");
  auto store = BlockStore::Open(tmp.path(), 2, 64);
  ASSERT_TRUE(store.ok());
  TierCache cache(1 << 20);
  int64_t issued_read_bytes = 0;
  auto read = [&](const std::string& key) {
    issued_read_bytes += 400;
    Buffer out;
    if (cache.TryGetRef(key, 400, &out)) return;
    out = Buffer::Allocate(400);
    ASSERT_TRUE((*store)->Get(key, out.mutable_data(), 400).ok());
    cache.AdmitBuffer(key, out);
  };
  const Buffer data = Buffer::Allocate(400);
  for (const char* key : {"a", "b"}) {
    ASSERT_TRUE((*store)->Put(key, data.data(), 400).ok());
    cache.AdmitBuffer(key, data);
  }
  read("a");  // hit
  cache.Invalidate("b");
  read("b");  // miss -> store
  read("b");  // promoted: hit
  const TierCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  // Reconciliation invariants: hit + miss bytes cover every issued
  // read; the store served exactly the miss bytes.
  EXPECT_EQ(stats.hit_bytes + stats.miss_bytes, issued_read_bytes);
  EXPECT_EQ(stats.miss_bytes, (*store)->total_bytes_read());
  EXPECT_EQ(stats.hit_bytes, 2 * 400);
}

TEST(TierCacheTest, TryGetProbesWithoutStoreIo) {
  TierCache cache(1 << 20);
  const Buffer data = Buffer::Allocate(128);
  // Never admitted: the probe misses and counts the miss.
  Buffer out;
  EXPECT_FALSE(cache.TryGetRef("cold", 128, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().miss_bytes, 128);
  cache.AdmitBuffer("cold", data);
  EXPECT_TRUE(cache.TryGetRef("cold", 128, &out));
  EXPECT_EQ(out.data(), data.data());  // a ref to the admitted bytes
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().hit_bytes, 128);
  // A size mismatch is a miss, not an error.
  Buffer wrong;
  EXPECT_FALSE(cache.TryGetRef("cold", 64, &wrong));
}

TEST(TierCacheTest, PinnedEntriesSurviveEvictionPressure) {
  TierCache cache(1024);  // fits ~2 entries of 400 B
  const Buffer data = Buffer::Allocate(400);
  cache.AdmitBuffer("pinned", data);
  ASSERT_TRUE(cache.Pin("pinned"));
  EXPECT_EQ(cache.stats().pinned_bytes, 400);
  // Flood the tier: the unpinned entries churn, the pinned one stays.
  for (int i = 0; i < 8; ++i) {
    cache.AdmitBuffer("churn" + std::to_string(i), Buffer::Allocate(400));
  }
  Buffer out;
  EXPECT_TRUE(cache.TryGetRef("pinned", 400, &out));
  EXPECT_EQ(out.data(), data.data());
  EXPECT_GT(cache.stats().evictions, 0);
  // Unpinned, it is evictable again (LRU order: push it to the back by
  // admitting fresh entries).
  cache.Unpin("pinned");
  EXPECT_EQ(cache.stats().pinned_bytes, 0);
  for (int i = 0; i < 8; ++i) {
    cache.AdmitBuffer("churn2_" + std::to_string(i), Buffer::Allocate(400));
  }
  EXPECT_FALSE(cache.TryGetRef("pinned", 400, &out));
}

TEST(TierCacheTest, PinContractEdges) {
  TierCache cache(512);
  const Buffer v1 = Buffer::Allocate(200), v2 = Buffer::Allocate(200);
  // Pin of a non-resident key fails (never admitted / oversized).
  EXPECT_FALSE(cache.Pin("absent"));
  cache.AdmitBuffer("huge", Buffer::Allocate(600));  // larger than the tier
  EXPECT_FALSE(cache.Pin("huge"));
  // Overwriting a pinned key keeps the pin on the fresher value.
  cache.AdmitBuffer("k", v1);
  ASSERT_TRUE(cache.Pin("k"));
  cache.AdmitBuffer("k", v2);
  for (int i = 0; i < 8; ++i) {
    cache.AdmitBuffer("fill" + std::to_string(i), Buffer::Allocate(200));
  }
  Buffer out;
  ASSERT_TRUE(cache.TryGetRef("k", 200, &out));
  EXPECT_EQ(out.data(), v2.data());
  EXPECT_EQ(cache.stats().pinned_bytes, 200);
  // Pins nest: one Unpin leaves the entry pinned.
  ASSERT_TRUE(cache.Pin("k"));
  cache.Unpin("k");
  for (int i = 0; i < 8; ++i) {
    cache.AdmitBuffer("fill2_" + std::to_string(i), Buffer::Allocate(200));
  }
  EXPECT_TRUE(cache.TryGetRef("k", 200, &out));
  // Invalidate drops even a pinned entry (a Delete supersedes the pin);
  // the late Unpin is a harmless no-op.
  cache.Invalidate("k");
  EXPECT_EQ(cache.stats().pinned_bytes, 0);
  EXPECT_FALSE(cache.TryGetRef("k", 200, &out));
  cache.Unpin("k");
}

// ---------- ThrottledChannel ----------

TEST(ThrottledChannelTest, EnforcesRate) {
  // 10 MB at 100 MB/s should take >= ~100 ms.
  ThrottledChannel ch("test", 100e6);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) ch.Consume(1'000'000);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.08);
  EXPECT_EQ(ch.total_bytes(), 10'000'000);
}

TEST(ThrottledChannelTest, ZeroBytesFree) {
  ThrottledChannel ch("test", 1.0);  // 1 byte/s
  const auto t0 = std::chrono::steady_clock::now();
  ch.Consume(0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.05);
}

TEST(ThrottledChannelTest, ConcurrentConsumersShareBandwidth) {
  ThrottledChannel ch("shared", 50e6);  // 50 MB/s
  const auto t0 = std::chrono::steady_clock::now();
  std::thread a([&] { ch.Consume(2'500'000); });
  std::thread b([&] { ch.Consume(2'500'000); });
  a.join();
  b.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // 5 MB total at 50 MB/s >= ~100 ms regardless of interleaving.
  EXPECT_GE(elapsed, 0.08);
}

}  // namespace
}  // namespace ratel
