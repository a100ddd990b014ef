#include "xfer/transfer_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_xfer_" + tag + "_" +
         std::to_string(::getpid());
}

Result<std::unique_ptr<TransferEngine>> OpenEngine(const std::string& tag,
                                                   int64_t cache_bytes = 0,
                                                   int workers = 2) {
  TransferOptions opts;
  opts.dir = TempDir(tag);
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  opts.host_cache_bytes = cache_bytes;
  opts.io_workers = workers;
  return TransferEngine::Open(opts);
}

TEST(TransferEngineTest, FlowClassMetadata) {
  EXPECT_EQ(kNumFlowClasses, 5);
  EXPECT_STREQ(FlowClassName(FlowClass::kParamFetch), "param_fetch");
  EXPECT_STREQ(FlowClassName(FlowClass::kGradState), "grad_state");
  EXPECT_STREQ(FlowClassName(FlowClass::kActivationSpill), "activation_spill");
  EXPECT_STREQ(FlowClassName(FlowClass::kCheckpoint), "checkpoint");
  EXPECT_STREQ(FlowClassName(FlowClass::kDeferredState), "deferred_state");
  // Fetch and spill traffic stalls the compute pipeline; the
  // foreground-waited grad/state stream rides the middle class so it
  // never queues FIFO behind the deferred-write backlog; checkpoint and
  // deferred-update traffic drains in the background (a deferred-tail
  // writeback must never block a param fetch or a state read).
  EXPECT_EQ(FlowPriority(FlowClass::kParamFetch),
            IoScheduler::Priority::kLatencyCritical);
  EXPECT_EQ(FlowPriority(FlowClass::kActivationSpill),
            IoScheduler::Priority::kLatencyCritical);
  EXPECT_EQ(FlowPriority(FlowClass::kGradState),
            IoScheduler::Priority::kNormal);
  EXPECT_EQ(FlowPriority(FlowClass::kCheckpoint),
            IoScheduler::Priority::kBackground);
  EXPECT_EQ(FlowPriority(FlowClass::kDeferredState),
            IoScheduler::Priority::kBackground);
}

TEST(TransferEngineTest, RoundTripPerFlowWithAccounting) {
  auto engine = OpenEngine("rt");
  ASSERT_TRUE(engine.ok());
  Rng rng(11);
  for (int i = 0; i < kNumFlowClasses; ++i) {
    const FlowClass flow = static_cast<FlowClass>(i);
    const std::string key = std::string("blob/") + FlowClassName(flow);
    std::vector<uint8_t> data(1000 + 100 * i);
    for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
    const auto wt = (*engine)->SubmitWrite(flow, key, data.data(),
                                           static_cast<int64_t>(data.size()));
    ASSERT_TRUE((*engine)->Wait(wt).ok());
    std::vector<uint8_t> out;
    const auto rt = (*engine)->SubmitRead(flow, key, &out,
                                          static_cast<int64_t>(data.size()));
    ASSERT_TRUE((*engine)->Wait(rt).ok());
    EXPECT_EQ(out, data);
    const TransferStats snap = (*engine)->stats();
    const FlowCounters& c = snap.Flow(flow);
    EXPECT_EQ(c.reads, 1);
    EXPECT_EQ(c.writes, 1);
    EXPECT_EQ(c.bytes_read, static_cast<int64_t>(data.size()));
    EXPECT_EQ(c.bytes_written, static_cast<int64_t>(data.size()));
    EXPECT_EQ(c.errors, 0);
    EXPECT_GE(c.read_seconds, 0.0);
  }
  // No cache tier: every byte came from the store.
  const TransferStats stats = (*engine)->stats();
  EXPECT_EQ(stats.TotalBytesRead(), stats.store_bytes_read);
  EXPECT_EQ(stats.TotalBytesWritten(), stats.store_bytes_written);
  EXPECT_EQ(stats.Flow(FlowClass::kParamFetch).bytes_from_cache, 0);
}

TEST(TransferEngineTest, DramTierServesHotReads) {
  auto engine = OpenEngine("cache", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(2048, 0x3C);
  // Write-through admits the DRAM copy at submit time, so a same-key
  // read resolves from DRAM even before the store write lands.
  const auto wt = (*engine)->SubmitWrite(FlowClass::kParamFetch, "hot",
                                         data.data(), 2048);
  std::vector<uint8_t> out;
  const auto rt =
      (*engine)->SubmitRead(FlowClass::kParamFetch, "hot", &out, 2048);
  ASSERT_TRUE((*engine)->Wait(rt).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE((*engine)->Wait(wt).ok());
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.cache_hits, 1);
  EXPECT_EQ(c.bytes_from_cache, 2048);
  EXPECT_EQ(stats.store_bytes_read, 0);  // never touched the store
  EXPECT_GT(stats.DramHitRate(), 0.99);
  // Delete drops both tiers: the key is gone everywhere.
  ASSERT_TRUE((*engine)->Delete("hot").ok());
  EXPECT_FALSE((*engine)->Contains("hot"));
}

TEST(TransferEngineTest, ColdReadPromotesIntoDram) {
  // Cache fits one blob: the second write evicts the first, making the
  // next read of "k" a genuine miss that must hit the store and then be
  // promoted back into DRAM.
  auto engine = OpenEngine("promote", /*cache_bytes=*/600);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(512, 0x7E);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kGradState, "k", data.data(), 512).ok());
  ASSERT_TRUE((*engine)->Write(FlowClass::kGradState, "evictor", data.data(),
                               512).ok());
  const TransferStats before = (*engine)->stats();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kParamFetch, "k", out.data(), 512).ok());
  EXPECT_EQ(out, data);
  const TransferStats mid = (*engine)->stats();
  EXPECT_EQ(mid.Flow(FlowClass::kParamFetch).cache_misses -
                before.Flow(FlowClass::kParamFetch).cache_misses,
            1);
  EXPECT_EQ(mid.store_bytes_read - before.store_bytes_read, 512);
  // The miss promoted "k": the second read is a DRAM hit, no store I/O.
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kParamFetch, "k", out.data(), 512).ok());
  const TransferStats after = (*engine)->stats();
  EXPECT_EQ(after.Flow(FlowClass::kParamFetch).cache_hits -
                mid.Flow(FlowClass::kParamFetch).cache_hits,
            1);
  EXPECT_EQ(after.store_bytes_read, mid.store_bytes_read);
  EXPECT_GT(after.cache.evictions, 0);
}

TEST(TransferEngineTest, ErrorsSurfaceAndAreCounted) {
  auto engine = OpenEngine("err");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> out;
  const auto bad =
      (*engine)->SubmitRead(FlowClass::kParamFetch, "missing", &out, 64);
  EXPECT_EQ((*engine)->Wait(bad).code(), StatusCode::kNotFound);
  const TransferStats snap = (*engine)->stats();
  const FlowCounters& c = snap.Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.errors, 1);
  EXPECT_EQ(c.bytes_read, 0);  // failed reads move no bytes
  EXPECT_FALSE((*engine)->Contains("missing"));
  EXPECT_FALSE((*engine)->BlobSize("missing").ok());
}

TEST(TransferEngineTest, DeltaIsolatesAWindow) {
  auto engine = OpenEngine("delta");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(256, 1);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kGradState, "a", data.data(), 256).ok());
  const TransferStats t0 = (*engine)->stats();
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kCheckpoint, "b", data.data(), 256).ok());
  const TransferStats d = Delta((*engine)->stats(), t0);
  EXPECT_EQ(d.Flow(FlowClass::kGradState).bytes_written, 0);
  EXPECT_EQ(d.Flow(FlowClass::kCheckpoint).bytes_written, 256);
  EXPECT_EQ(d.store_bytes_written, 256);
  EXPECT_EQ(d.TotalBytesWritten(), 256);
}

// The ISSUE's concurrency contract: 4+ threads submitting mixed flow
// classes; every ticket resolves, per-key read-after-write ordering
// holds, and the per-flow byte counters sum exactly to the store-level
// totals when reconciled with the DRAM tier.
TEST(TransferEngineTest, ConcurrentMixedFlowStress) {
  auto engine = OpenEngine("stress", /*cache_bytes=*/64 * 1024, /*workers=*/3);
  ASSERT_TRUE(engine.ok());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 48;
  std::atomic<int64_t> submitted_write_bytes{0};
  std::atomic<int64_t> failed_reads{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns its key space -> per-key ordering is the
      // submit order within one thread.
      Rng rng(100 + t);
      const FlowClass flow = static_cast<FlowClass>(t % kNumFlowClasses);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "/k" + std::to_string(i % 8);
        std::vector<uint8_t> data(64 + rng.NextBelow(512));
        for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
        const auto wt = (*engine)->SubmitWrite(
            flow, key, data.data(), static_cast<int64_t>(data.size()));
        ASSERT_TRUE((*engine)->Wait(wt).ok());
        submitted_write_bytes.fetch_add(static_cast<int64_t>(data.size()));
        // Read back after the write resolved: must observe this write.
        std::vector<uint8_t> out;
        const auto rt = (*engine)->SubmitRead(
            flow, key, &out, static_cast<int64_t>(data.size()));
        const Status read = (*engine)->Wait(rt);
        ASSERT_TRUE(read.ok()) << read.ToString();
        if (out != data) failed_reads.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE((*engine)->Drain().ok());
  EXPECT_EQ(failed_reads.load(), 0);

  const TransferStats stats = (*engine)->stats();
  int64_t flow_reads = 0, flow_writes = 0;
  int64_t flow_bytes_read = 0, flow_bytes_written = 0, from_cache = 0;
  for (int i = 0; i < kNumFlowClasses; ++i) {
    const FlowCounters& c = stats.flow[i];
    flow_reads += c.reads;
    flow_writes += c.writes;
    flow_bytes_read += c.bytes_read;
    flow_bytes_written += c.bytes_written;
    from_cache += c.bytes_from_cache;
    EXPECT_EQ(c.errors, 0) << FlowClassName(static_cast<FlowClass>(i));
    EXPECT_EQ(c.cache_hits + c.cache_misses, c.reads)
        << FlowClassName(static_cast<FlowClass>(i));
    // Legacy-API traffic with the DRAM tier on copies exactly once per
    // direction: the write's staging copy, and either the hit memcpy or
    // the miss promotion on the read side. Never twice.
    EXPECT_EQ(c.bytes_copied, c.bytes_read + c.bytes_written)
        << FlowClassName(static_cast<FlowClass>(i));
    // Every legacy write still avoids one allocation: the DRAM tier
    // takes a reference to the staged buffer instead of its own copy.
    EXPECT_EQ(c.allocs_avoided, c.writes)
        << FlowClassName(static_cast<FlowClass>(i));
  }
  EXPECT_EQ(flow_reads, kThreads * kOpsPerThread);
  EXPECT_EQ(flow_writes, kThreads * kOpsPerThread);
  // Exact reconciliation against the layers below: every written byte
  // reached the store; every read byte came from the store or the DRAM
  // tier, and the cache's own hit/miss accounting agrees.
  EXPECT_EQ(flow_bytes_written, submitted_write_bytes.load());
  EXPECT_EQ(flow_bytes_written, stats.store_bytes_written);
  EXPECT_EQ(flow_bytes_read - from_cache, stats.store_bytes_read);
  EXPECT_EQ(stats.cache.hit_bytes, from_cache);
  EXPECT_EQ(stats.cache.hit_bytes + stats.cache.miss_bytes, flow_bytes_read);
}

TEST(TransferEngineTest, DrainConsumesAbandonedTickets) {
  auto engine = OpenEngine("drain");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(128, 9);
  std::vector<std::vector<uint8_t>> outs(16);
  // Never waited any ticket: each Drain settles everything in flight.
  // The reads go in only after the writes' drain, because a read of a
  // key observes its write only once that write has resolved.
  for (int i = 0; i < 16; ++i) {
    (void)(*engine)->SubmitWrite(FlowClass::kCheckpoint,
                                 "d" + std::to_string(i), data.data(), 128);
  }
  ASSERT_TRUE((*engine)->Drain().ok());
  for (int i = 0; i < 16; ++i) {
    (void)(*engine)->SubmitRead(FlowClass::kCheckpoint,
                                "d" + std::to_string(i), &outs[i], 128);
  }
  ASSERT_TRUE((*engine)->Drain().ok());
  const TransferStats stats = (*engine)->stats();
  EXPECT_EQ(stats.Flow(FlowClass::kCheckpoint).writes, 16);
  EXPECT_EQ(stats.Flow(FlowClass::kCheckpoint).reads, 16);
  for (const auto& out : outs) EXPECT_EQ(out, data);
  // Fresh submissions still work after a drain.
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kGradState, "post", data.data(), 128).ok());
  EXPECT_TRUE((*engine)->Contains("post"));
}

// ----- Zero-copy data path (measured, not asserted) -----

// A buffer-native write publishes ONE allocation shared by the caller,
// the DRAM tier, and the store path; a same-key buffer read hands back
// a reference to that very allocation. Zero host copies end to end.
TEST(TransferEngineZeroCopyTest, BufferWritePublishesOneSharedAllocation) {
  auto engine = OpenEngine("zc_write", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  Buffer payload = (*engine)->buffer_pool().Lease(4096);
  std::memset(payload.mutable_data(), 0x5A, 4096);
  const uint8_t* published = payload.data();

  ASSERT_TRUE(
      (*engine)
          ->Wait((*engine)->SubmitWrite(FlowClass::kGradState, "zc", payload))
          .ok());
  Buffer ref;
  ASSERT_TRUE(
      (*engine)
          ->Wait((*engine)->SubmitRead(FlowClass::kGradState, "zc", &ref, 4096))
          .ok());
  EXPECT_EQ(ref.data(), published);  // the same bytes, not a copy
  EXPECT_EQ(ref.data()[4095], 0x5A);

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kGradState);
  EXPECT_EQ(c.bytes_copied, 0) << "buffer-native round trip must not copy";
  // Write avoided the tier copy + the staging copy; the hit read avoided
  // the read allocation by serving a reference.
  EXPECT_EQ(c.allocs_avoided, 3);
  EXPECT_EQ(c.cache_hits, 1);
  EXPECT_EQ(stats.store_bytes_read, 0);
}

// The legacy pointer API now costs exactly ONE host copy per direction
// (it used to cost two with the DRAM tier: staging + tier admit).
TEST(TransferEngineZeroCopyTest, LegacyApiCopiesAtMostOncePerDirection) {
  auto engine = OpenEngine("zc_legacy", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(512, 0x11);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kParamFetch, "k", data.data(), 512).ok());
  {
    const TransferStats stats = (*engine)->stats();
    const FlowCounters& c = stats.Flow(FlowClass::kParamFetch);
    EXPECT_EQ(c.bytes_copied, 512) << "write = one staging copy, tier by ref";
    EXPECT_EQ(c.bytes_written, 512);
  }
  std::vector<uint8_t> out;
  ASSERT_TRUE(
      (*engine)
          ->Wait((*engine)->SubmitRead(FlowClass::kParamFetch, "k", &out, 512))
          .ok());
  EXPECT_EQ(out, data);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.cache_hits, 1);
  EXPECT_EQ(c.bytes_copied, c.bytes_read + c.bytes_written)
      << "one copy per direction, never two";
}

// Read() convenience on a hot key: one memcpy into the caller's raw
// pointer and nothing else (previously two: cache -> vector -> out).
TEST(TransferEngineZeroCopyTest, RawReadOnHotKeyCostsOneCopy) {
  auto engine = OpenEngine("zc_raw", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  Buffer payload = (*engine)->buffer_pool().Lease(1024);
  std::memset(payload.mutable_data(), 0x22, 1024);
  ASSERT_TRUE((*engine)
                  ->WriteBuffer(FlowClass::kActivationSpill, "hot",
                                std::move(payload))
                  .ok());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(
      (*engine)
          ->Read(FlowClass::kActivationSpill, "hot", out.data(), 1024)
          .ok());
  EXPECT_EQ(out[1023], 0x22);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.bytes_copied, 1024);  // exactly the final delivery memcpy
}

// A cold buffer read leases from the pool, promotes into DRAM *by
// reference*, and the next read shares that promoted allocation —
// still zero copies on the whole miss+hit sequence.
TEST(TransferEngineZeroCopyTest, ColdBufferReadPromotesByReference) {
  auto engine = OpenEngine("zc_cold", /*cache_bytes=*/600);
  ASSERT_TRUE(engine.ok());
  Buffer payload = (*engine)->buffer_pool().Lease(512);
  std::memset(payload.mutable_data(), 0x33, 512);
  ASSERT_TRUE(
      (*engine)->WriteBuffer(FlowClass::kGradState, "k", std::move(payload))
          .ok());
  // Evict "k" from the one-entry tier.
  Buffer evictor = (*engine)->buffer_pool().Lease(512);
  std::memset(evictor.mutable_data(), 0x44, 512);
  ASSERT_TRUE(
      (*engine)->WriteBuffer(FlowClass::kGradState, "other", std::move(evictor))
          .ok());
  const TransferStats before = (*engine)->stats();

  Buffer cold;
  ASSERT_TRUE(
      (*engine)
          ->Wait((*engine)->SubmitRead(FlowClass::kParamFetch, "k", &cold, 512))
          .ok());
  EXPECT_EQ(cold.data()[0], 0x33);
  Buffer hot;
  ASSERT_TRUE(
      (*engine)
          ->Wait((*engine)->SubmitRead(FlowClass::kParamFetch, "k", &hot, 512))
          .ok());
  EXPECT_EQ(hot.data(), cold.data()) << "hit must share the promoted buffer";

  const TransferStats d = Delta((*engine)->stats(), before);
  const FlowCounters& c = d.Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.cache_misses, 1);
  EXPECT_EQ(c.cache_hits, 1);
  EXPECT_EQ(c.bytes_copied, 0);
  EXPECT_EQ(c.allocs_avoided, 2);  // ref promotion + ref-served hit
}

// Steady state: re-reading and re-writing the same working set leases
// every buffer from the pool's free lists — zero pool misses (fresh
// allocations) after warmup.
TEST(TransferEngineZeroCopyTest, SteadyStatePoolMissesAreZeroAfterWarmup) {
  auto engine = OpenEngine("zc_steady", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  auto step = [&] {
    for (int i = 0; i < 4; ++i) {
      const std::string key = "w" + std::to_string(i);
      Buffer in;
      (void)(*engine)->Wait(
          (*engine)->SubmitRead(FlowClass::kGradState, key, &in, 2048));
      Buffer out = (*engine)->buffer_pool().Lease(2048);
      std::memset(out.mutable_data(), i, 2048);
      in.reset();  // release the old generation before publishing the new
      ASSERT_TRUE(
          (*engine)->WriteBuffer(FlowClass::kGradState, key, std::move(out))
              .ok());
    }
  };
  for (int warm = 0; warm < 3; ++warm) step();
  const int64_t warm_allocs = (*engine)->buffer_pool().stats().allocations;
  for (int i = 0; i < 20; ++i) step();
  EXPECT_EQ((*engine)->buffer_pool().stats().allocations, warm_allocs)
      << "movement path must run allocation-free at steady state";
}

// ----- Checked ticket lifecycle -----

TEST(TransferEngineTest, WaitOnUnknownTicketIsInvalidArgument) {
  auto engine = OpenEngine("badticket");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Wait(123456).code(), StatusCode::kInvalidArgument);
}

TEST(TransferEngineTest, DoubleWaitIsInvalidArgument) {
  auto engine = OpenEngine("doublewait", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(64, 5);
  const auto wt =
      (*engine)->SubmitWrite(FlowClass::kCheckpoint, "k", data.data(), 64);
  ASSERT_TRUE((*engine)->Wait(wt).ok());
  EXPECT_EQ((*engine)->Wait(wt).code(), StatusCode::kInvalidArgument);
  // Cache-resolved tickets are single-use too.
  std::vector<uint8_t> out;
  const auto rt = (*engine)->SubmitRead(FlowClass::kCheckpoint, "k", &out, 64);
  ASSERT_TRUE((*engine)->Wait(rt).ok());
  EXPECT_EQ((*engine)->Wait(rt).code(), StatusCode::kInvalidArgument);
}

// ----- Batched waits (the optimizer's state-read/writeback sets) -----

TEST(TransferEngineTest, WaitAllResolvesABatchAndConsumesEveryTicket) {
  auto engine = OpenEngine("waitall", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(256, 0xAB);
  std::vector<TransferEngine::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back((*engine)->SubmitWrite(FlowClass::kGradState,
                                             "k" + std::to_string(i),
                                             data.data(), 256));
  }
  // With the DRAM tier on, the same-key reads resolve at submit time:
  // WaitAll must consume cache-resolved and inflight tickets alike.
  std::vector<std::vector<uint8_t>> outs(4);
  for (int i = 0; i < 4; ++i) {
    tickets.push_back((*engine)->SubmitRead(
        FlowClass::kGradState, "k" + std::to_string(i), &outs[i], 256));
  }
  ASSERT_TRUE((*engine)->WaitAll(tickets).ok());
  for (const auto& out : outs) EXPECT_EQ(out, data);
  // Every ticket was consumed exactly as by a per-ticket Wait.
  for (const auto t : tickets) {
    EXPECT_EQ((*engine)->Wait(t).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE((*engine)->WaitAll({}).ok());
}

TEST(TransferEngineTest, WaitAllReturnsTheFirstErrorInIssueOrder) {
  auto engine = OpenEngine("waitallerr");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(64, 1);
  const auto good =
      (*engine)->SubmitWrite(FlowClass::kCheckpoint, "ok", data.data(), 64);
  std::vector<uint8_t> out;
  const auto missing =
      (*engine)->SubmitRead(FlowClass::kParamFetch, "missing", &out, 64);
  // Issue order: ok, kNotFound, kInvalidArgument — the first failure
  // wins regardless of which transfer completed first.
  const Status s = (*engine)->WaitAll({good, missing, 987654});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // The passing ticket was still consumed, not leaked.
  EXPECT_EQ((*engine)->Wait(good).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*engine)->Wait(missing).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*engine)->Contains("ok"));
}

TEST(TransferEngineTest, WaitAllNeverMasksARealErrorWithTicketBookkeeping) {
  auto engine = OpenEngine("waitallmask");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> out;
  const auto missing =
      (*engine)->SubmitRead(FlowClass::kGradState, "missing", &out, 64);
  // A never-issued ticket EARLIER in issue order must not hide the
  // genuine store failure behind kInvalidArgument — callers (e.g. the
  // reaper's sticky epoch status) act on the I/O error.
  EXPECT_EQ((*engine)->WaitAll({424242, missing}).code(),
            StatusCode::kNotFound);
  // With no real failure in the set, the bookkeeping mistake surfaces.
  std::vector<uint8_t> data(64, 2);
  const auto good =
      (*engine)->SubmitWrite(FlowClass::kCheckpoint, "ok2", data.data(), 64);
  EXPECT_EQ((*engine)->WaitAll({424243, good}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TransferEngineTest, DrainIsIdempotent) {
  auto engine = OpenEngine("redrain");
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(128, 7);
  const auto t =
      (*engine)->SubmitWrite(FlowClass::kGradState, "k", data.data(), 128);
  ASSERT_TRUE((*engine)->Drain().ok());
  ASSERT_TRUE((*engine)->Drain().ok());  // drained twice: still fine
  ASSERT_TRUE((*engine)->Drain().ok());  // and on an idle engine
  // The abandoned ticket was consumed by the first drain.
  EXPECT_EQ((*engine)->Wait(t).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*engine)->Contains("k"));
}

}  // namespace
}  // namespace ratel
