#include "xfer/transfer_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fp16.h"
#include "common/rng.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

std::vector<uint8_t> Vec(const Buffer& b) { return {b.begin(), b.end()}; }

Result<std::unique_ptr<TransferEngine>> OpenEngine(const std::string& dir,
                                                   int64_t cache_bytes = 0,
                                                   int workers = 2) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  opts.host_cache_bytes = cache_bytes;
  opts.io_workers = workers;
  return TransferEngine::Open(opts);
}

using TransferEngineTest = TempDirTest;
TEST_F(TransferEngineTest, FlowClassMetadata) {
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
  // Spill writes are never waited in-step (reads are forwarded), so
  // they queue as background work; every other flow writes at its read
  // priority.
  EXPECT_EQ(FlowWritePriority(FlowClass::kActivationSpill),
            IoScheduler::Priority::kBackground);
  EXPECT_EQ(FlowWritePriority(FlowClass::kParamFetch),
            IoScheduler::Priority::kLatencyCritical);
  EXPECT_EQ(FlowPriority(FlowClass::kDeferredState),
            IoScheduler::Priority::kBackground);
}

TEST_F(TransferEngineTest, RoundTripPerFlowWithAccounting) {
  auto engine = OpenEngine(tmp.path());
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
    Buffer out;
    const auto rt = (*engine)->SubmitRead(flow, key, &out,
                                          static_cast<int64_t>(data.size()));
    ASSERT_TRUE((*engine)->Wait(rt).ok());
    EXPECT_EQ(Vec(out), data);
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

TEST_F(TransferEngineTest, DramTierServesHotReads) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(2048, 0x3C);
  // Write-through admits the DRAM copy at submit time, so a same-key
  // read resolves from DRAM even before the store write lands.
  const auto wt = (*engine)->SubmitWrite(FlowClass::kParamFetch, "hot",
                                         data.data(), 2048);
  Buffer out;
  const auto rt =
      (*engine)->SubmitRead(FlowClass::kParamFetch, "hot", &out, 2048);
  ASSERT_TRUE((*engine)->Wait(rt).ok());
  EXPECT_EQ(Vec(out), data);
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

TEST_F(TransferEngineTest, ColdReadPromotesIntoDram) {
  // Cache fits one blob: the second write evicts the first, making the
  // next read of "k" a genuine miss that must hit the store and then be
  // promoted back into DRAM.
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/600);
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

TEST_F(TransferEngineTest, ErrorsSurfaceAndAreCounted) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  Buffer out;
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

TEST_F(TransferEngineTest, DeltaIsolatesAWindow) {
  auto engine = OpenEngine(tmp.path());
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
TEST_F(TransferEngineTest, ConcurrentMixedFlowStress) {
  auto engine =
      OpenEngine(tmp.path(), /*cache_bytes=*/64 * 1024, /*workers=*/3);
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
        Buffer out;
        const auto rt = (*engine)->SubmitRead(
            flow, key, &out, static_cast<int64_t>(data.size()));
        const Status read = (*engine)->Wait(rt);
        ASSERT_TRUE(read.ok()) << read.ToString();
        if (Vec(out) != data) failed_reads.fetch_add(1);
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
    // Pointer writes copy once (the staging copy); buffer reads never
    // copy, whether served by reference from DRAM or promoted by it.
    EXPECT_EQ(c.bytes_copied, c.bytes_written)
        << FlowClassName(static_cast<FlowClass>(i));
    // Every write avoids one allocation (the DRAM tier takes a reference
    // to the staged buffer) and so does every read (served or promoted
    // by reference).
    EXPECT_EQ(c.allocs_avoided, c.writes + c.reads)
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

TEST_F(TransferEngineTest, DrainConsumesAbandonedTickets) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(128, 9);
  std::vector<Buffer> outs(16);
  for (int i = 0; i < 16; ++i) {
    const std::string key = "d" + std::to_string(i);
    (void)(*engine)->SubmitWrite(FlowClass::kCheckpoint, key, data.data(),
                                 128);
    (void)(*engine)->SubmitRead(FlowClass::kCheckpoint, key, &outs[i], 128);
  }
  // Never waited any ticket: Drain settles everything.
  ASSERT_TRUE((*engine)->Drain().ok());
  const TransferStats stats = (*engine)->stats();
  EXPECT_EQ(stats.Flow(FlowClass::kCheckpoint).writes, 16);
  EXPECT_EQ(stats.Flow(FlowClass::kCheckpoint).reads, 16);
  for (const Buffer& out : outs) EXPECT_EQ(Vec(out), data);
  // Fresh submissions still work after a drain.
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kGradState, "post", data.data(), 128).ok());
  EXPECT_TRUE((*engine)->Contains("post"));
}

// ----- Zero-copy data path -----

using TransferEngineZeroCopyTest = TempDirTest;
// A buffer-native write publishes ONE allocation shared by the caller,
// the DRAM tier, and the store path; a same-key buffer read hands back
// a reference to that very allocation. Zero host copies end to end.
TEST_F(TransferEngineZeroCopyTest, BufferWritePublishesOneSharedAllocation) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
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

// The pointer conveniences cost exactly ONE host copy per direction: the
// write's staging copy (the DRAM tier shares it by reference) and the
// read's copy into the caller's memory.
TEST_F(TransferEngineZeroCopyTest, LegacyApiCopiesAtMostOncePerDirection) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
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
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kParamFetch, "k", out.data(), 512).ok());
  EXPECT_EQ(out, data);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.cache_hits, 1);
  EXPECT_EQ(c.bytes_copied, c.bytes_read + c.bytes_written)
      << "one copy per direction, never two";
}

// Read() convenience on a hot key: one memcpy into the caller's raw
// pointer and nothing else (previously two: cache -> vector -> out).
TEST_F(TransferEngineZeroCopyTest, RawReadOnHotKeyCostsOneCopy) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
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
TEST_F(TransferEngineZeroCopyTest, ColdBufferReadPromotesByReference) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/600);
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
TEST_F(TransferEngineZeroCopyTest, SteadyStatePoolMissesAreZeroAfterWarmup) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
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

TEST_F(TransferEngineTest, WaitOnUnknownTicketIsInvalidArgument) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Wait(123456).code(), StatusCode::kInvalidArgument);
}

TEST_F(TransferEngineTest, DoubleWaitIsInvalidArgument) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(64, 5);
  const auto wt =
      (*engine)->SubmitWrite(FlowClass::kCheckpoint, "k", data.data(), 64);
  ASSERT_TRUE((*engine)->Wait(wt).ok());
  EXPECT_EQ((*engine)->Wait(wt).code(), StatusCode::kInvalidArgument);
  // Cache-resolved tickets are single-use too.
  Buffer out;
  const auto rt = (*engine)->SubmitRead(FlowClass::kCheckpoint, "k", &out, 64);
  ASSERT_TRUE((*engine)->Wait(rt).ok());
  EXPECT_EQ((*engine)->Wait(rt).code(), StatusCode::kInvalidArgument);
}

// ----- Batched waits (the optimizer's state-read/writeback sets) -----

TEST_F(TransferEngineTest, WaitAllResolvesABatchAndConsumesEveryTicket) {
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/1 << 20);
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
  std::vector<Buffer> outs(4);
  for (int i = 0; i < 4; ++i) {
    tickets.push_back((*engine)->SubmitRead(
        FlowClass::kGradState, "k" + std::to_string(i), &outs[i], 256));
  }
  ASSERT_TRUE((*engine)->WaitAll(tickets).ok());
  for (const Buffer& out : outs) EXPECT_EQ(Vec(out), data);
  // Every ticket was consumed exactly as by a per-ticket Wait.
  for (const auto t : tickets) {
    EXPECT_EQ((*engine)->Wait(t).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE((*engine)->WaitAll({}).ok());
}

TEST_F(TransferEngineTest, WaitAllReturnsTheFirstErrorInIssueOrder) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(64, 1);
  const auto good =
      (*engine)->SubmitWrite(FlowClass::kCheckpoint, "ok", data.data(), 64);
  Buffer out;
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

TEST_F(TransferEngineTest, WaitAllNeverMasksARealErrorWithTicketBookkeeping) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  Buffer out;
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

TEST_F(TransferEngineTest, DrainIsIdempotent) {
  auto engine = OpenEngine(tmp.path());
  ASSERT_TRUE(engine.ok());
  std::vector<uint8_t> data(128, 7);
  const auto t =
      (*engine)->SubmitWrite(FlowClass::kGradState, "k", data.data(), 128);
  ASSERT_TRUE((*engine)->Drain().ok());
  ASSERT_TRUE((*engine)->Drain().ok());  // drained twice: still fine
  ASSERT_TRUE((*engine)->Drain().ok());  // and on an idle engine
  // Draining consumed no ticket: on a shared engine the writer still
  // holds it, and it waits exactly once.
  EXPECT_TRUE((*engine)->Wait(t).ok());
  EXPECT_EQ((*engine)->Wait(t).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*engine)->Contains("k"));
}

// ----- Same-key ordering: store-to-load forwarding -----

// An engine whose store operations on chosen keys can be parked inside
// the store (FaultInjector::StallOpsOn), so a write is provably
// unresolved while the test reads its key.
struct ForwardingRig {
  explicit ForwardingRig(const std::string& codec, FaultConfig faults = {})
      : injector(faults) {
    TransferOptions opts;
    opts.dir = tmp.path();
    opts.num_stripes = 2;
    opts.chunk_bytes = 4096;
    opts.io_workers = 2;
    opts.fault_injector = &injector;
    opts.codec.spec(FlowClass::kActivationSpill) = codec;
    auto engine_or = TransferEngine::Open(opts);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    engine = std::move(engine_or).value();
  }

  const ScopedTempDir tmp{"xfer_fwd"};
  FaultInjector injector;
  std::unique_ptr<TransferEngine> engine;
};

std::vector<float> RandomFloats(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.NextGaussian());
  return out;
}

// A read issued while its write is parked in the store returns, bitwise,
// what a read after the write resolved returns — on a raw flow and
// through the fp16 codec (where both are decode(encode(x)), not x).
TEST(TransferEngineForwardingTest, ForwardedReadEqualsAResolvedRead) {
  for (const std::string codec : {"", "fp16"}) {
    SCOPED_TRACE("codec '" + codec + "'");
    ForwardingRig rig(codec);
    TransferEngine& engine = *rig.engine;
    const std::vector<float> values = RandomFloats(11, 1001);
    const int64_t bytes = static_cast<int64_t>(4 * values.size());
    rig.injector.StallOpsOn("act");
    const auto write = engine.SubmitWrite(FlowClass::kActivationSpill, "act",
                                          values.data(), bytes);
    rig.injector.WaitForStalled(1);  // the store write is in progress

    Buffer forwarded, forwarded_again;
    ASSERT_TRUE(engine
                    .Wait(engine.SubmitRead(FlowClass::kActivationSpill, "act",
                                            &forwarded, bytes))
                    .ok());
    ASSERT_TRUE(engine
                    .Wait(engine.SubmitRead(FlowClass::kActivationSpill, "act",
                                            &forwarded_again, bytes))
                    .ok());
    const FlowCounters before = engine.stats().Flow(FlowClass::kActivationSpill);
    EXPECT_EQ(before.bytes_forwarded, 2 * bytes);
    EXPECT_EQ(before.encoded_bytes_read, 0);
    EXPECT_EQ(before.writes, 0);  // still unresolved

    rig.injector.ReleaseStalled();
    ASSERT_TRUE(engine.Wait(write).ok());
    Buffer resolved;
    ASSERT_TRUE(engine
                    .Wait(engine.SubmitRead(FlowClass::kActivationSpill, "act",
                                            &resolved, bytes))
                    .ok());
    ASSERT_EQ(forwarded.size(), bytes);
    ASSERT_EQ(resolved.size(), bytes);
    EXPECT_EQ(std::memcmp(forwarded.data(), resolved.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(forwarded_again.data(), resolved.data(), bytes), 0);
    if (codec.empty()) {
      EXPECT_EQ(std::memcmp(resolved.data(), values.data(), bytes), 0);
    }
    // The forwarded reads moved no store bytes, so the store-leg ledger
    // still reconciles exactly.
    const TransferStats stats = engine.stats();
    const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
    EXPECT_EQ(c.bytes_forwarded, 2 * bytes);
    EXPECT_EQ(c.encoded_bytes_read, stats.store_bytes_read);
    EXPECT_EQ(c.bytes_read, 3 * bytes);
  }
}

// A write that ultimately fails still served the reads forwarded before
// it resolved; the failure surfaces on the write's own ticket.
TEST(TransferEngineForwardingTest, ForwardingSurvivesAnInjectedWriteFault) {
  FaultConfig faults;
  faults.write_error_every = 1;  // every attempt fails: the write gives up
  ForwardingRig rig("fp16", faults);
  TransferEngine& engine = *rig.engine;
  const std::vector<float> values = RandomFloats(12, 257);
  const int64_t bytes = static_cast<int64_t>(4 * values.size());
  std::vector<Fp16> halves(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    halves[i] = FloatToHalf(values[i]);
  }
  rig.injector.StallOpsOn("act");
  const auto write = engine.SubmitWrite(FlowClass::kActivationSpill, "act",
                                        values.data(), bytes);
  rig.injector.WaitForStalled(1);
  Buffer forwarded;
  ASSERT_TRUE(engine
                  .Wait(engine.SubmitRead(FlowClass::kActivationSpill, "act",
                                          &forwarded, bytes))
                  .ok());
  ASSERT_EQ(forwarded.size(), bytes);
  const auto* got = reinterpret_cast<const float*>(forwarded.data());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(got[i], HalfToFloat(halves[i])) << "element " << i;
  }
  rig.injector.ReleaseStalled();
  EXPECT_EQ(engine.Wait(write).code(), StatusCode::kUnavailable);
  const FlowCounters c = engine.stats().Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.errors, 1);
  EXPECT_EQ(c.giveups, 1);
  // Resolved and failed: the key is gone from the forwarding table, so
  // a read now goes to the store, which never received the value.
  Buffer after;
  EXPECT_FALSE(engine
                   .Wait(engine.SubmitRead(FlowClass::kActivationSpill, "act",
                                           &after, bytes))
                   .ok());
  EXPECT_EQ(engine.stats().Flow(FlowClass::kActivationSpill).bytes_forwarded,
            bytes);
}

// Write after write, 4 workers, no DRAM tier: a read issued right after
// the second write sees it, and so does a read after both resolved (the
// store applied them in submission order).
TEST(TransferEngineForwardingTest, WriteAfterWriteReadsTheNewerValue) {
  const ScopedTempDir tmp("xfer");
  auto engine = OpenEngine(tmp.path(), /*cache_bytes=*/0, /*workers=*/4);
  ASSERT_TRUE(engine.ok());
  constexpr int kTrials = 10000;
  constexpr int64_t kBytes = 64;
  int newer_forwarded = 0;
  int newer_stored = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<uint8_t> older(kBytes, static_cast<uint8_t>(2 * trial));
    const std::vector<uint8_t> newer(kBytes,
                                     static_cast<uint8_t>(2 * trial + 1));
    const auto w1 = (*engine)->SubmitWrite(FlowClass::kCheckpoint, "waw",
                                           older.data(), kBytes);
    const auto w2 = (*engine)->SubmitWrite(FlowClass::kCheckpoint, "waw",
                                           newer.data(), kBytes);
    Buffer early;
    const auto r = (*engine)->SubmitRead(FlowClass::kCheckpoint, "waw",
                                         &early, kBytes);
    ASSERT_TRUE((*engine)->WaitAll({w1, w2, r}).ok());
    Buffer late;
    ASSERT_TRUE((*engine)
                    ->Wait((*engine)->SubmitRead(FlowClass::kCheckpoint, "waw",
                                                 &late, kBytes))
                    .ok());
    newer_forwarded += Vec(early) == newer ? 1 : 0;
    newer_stored += Vec(late) == newer ? 1 : 0;
  }
  EXPECT_EQ(newer_forwarded, kTrials);
  EXPECT_EQ(newer_stored, kTrials);
}

}  // namespace
}  // namespace ratel
