// Tenancy layer: ScopedTenant thread-locals, the DWRR FairQueue, the
// I/O scheduler's per-class tenant lanes, per-tenant TierCache quotas,
// and the TransferEngine's per-tenant accounting / in-flight quotas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mem/tier_cache.h"
#include "storage/fair_queue.h"
#include "storage/fault_injector.h"
#include "storage/io_scheduler.h"
#include "xfer/tenant.h"
#include "xfer/transfer_engine.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

// ---------- ScopedTenant ----------

TEST(ScopedTenantTest, DefaultIsTenantZero) {
  EXPECT_EQ(CurrentTenant(), kDefaultTenant);
}

TEST(ScopedTenantTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentTenant(), 0);
  {
    ScopedTenant outer(3);
    EXPECT_EQ(CurrentTenant(), 3);
    {
      ScopedTenant inner(7);
      EXPECT_EQ(CurrentTenant(), 7);
    }
    EXPECT_EQ(CurrentTenant(), 3);
  }
  EXPECT_EQ(CurrentTenant(), 0);
}

TEST(ScopedTenantTest, ThreadLocalIsolation) {
  ScopedTenant mine(5);
  TenantId seen = -1;
  std::thread other([&] { seen = CurrentTenant(); });
  other.join();
  EXPECT_EQ(seen, kDefaultTenant);  // scopes never leak across threads
  EXPECT_EQ(CurrentTenant(), 5);
}

// ---------- FairQueue ----------

TEST(FairQueueTest, SingleLaneIsFifo) {
  FairQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(1, 100, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.PopNext(), i);
  EXPECT_TRUE(q.empty());
}

TEST(FairQueueTest, FairShareOffIsGlobalFifoAcrossTenants) {
  FairQueue<int> q(/*quantum_bytes=*/1, /*fair_share=*/false);
  q.Push(1, 100, 10);
  q.Push(2, 100, 20);
  q.Push(1, 100, 11);
  q.Push(2, 100, 21);
  EXPECT_EQ(q.PopNext(), 10);
  EXPECT_EQ(q.PopNext(), 20);
  EXPECT_EQ(q.PopNext(), 11);
  EXPECT_EQ(q.PopNext(), 21);
}

TEST(FairQueueTest, EqualWeightsAlternate) {
  // Two backlogged lanes, unit-size requests, unit quantum: DWRR must
  // strictly alternate even though lane 1's burst arrived first.
  FairQueue<int> q(/*quantum_bytes=*/1);
  for (int i = 0; i < 4; ++i) q.Push(1, 1, 100 + i);
  for (int i = 0; i < 4; ++i) q.Push(2, 1, 200 + i);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.PopNext());
  EXPECT_EQ(order,
            (std::vector<int>{100, 200, 101, 201, 102, 202, 103, 203}));
}

TEST(FairQueueTest, ServedBytesTrackWeights) {
  // Weight 3 vs 1 under sustained backlog: after the first full
  // rotation, tenant 1 has been served three bytes for tenant 2's one.
  FairQueue<int> q(/*quantum_bytes=*/1);
  q.SetWeight(1, 3);
  q.SetWeight(2, 1);
  for (int i = 0; i < 12; ++i) q.Push(1, 1, i);
  for (int i = 0; i < 12; ++i) q.Push(2, 1, 100 + i);
  for (int i = 0; i < 8; ++i) q.PopNext();
  EXPECT_EQ(q.served_bytes(1), 6);
  EXPECT_EQ(q.served_bytes(2), 2);
}

TEST(FairQueueTest, WorkConservingWhenOneLaneIdles) {
  // Lane 2 drains out; lane 1 must then be served back to back — idle
  // share flows to the backlogged lane instead of going unused.
  FairQueue<int> q(/*quantum_bytes=*/1);
  for (int i = 0; i < 6; ++i) q.Push(1, 1, i);
  q.Push(2, 1, 100);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.PopNext());
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(std::count_if(order.begin(), order.end(),
                          [](int v) { return v < 100; }),
            6);
}

TEST(FairQueueTest, OldestFrontAndPopOldestCrossLanes) {
  FairQueue<int> q(/*quantum_bytes=*/1);
  q.Push(2, 1, 20);  // globally oldest
  q.Push(1, 1, 10);
  EXPECT_EQ(q.OldestFront(), 20);
  EXPECT_EQ(q.PopOldest(), 20);
  EXPECT_EQ(q.OldestFront(), 10);
  EXPECT_EQ(q.PopOldest(), 10);
  EXPECT_TRUE(q.empty());
}

TEST(FairQueueTest, EraseIfEmptiesALaneOutOfTheRotation) {
  // Three backlogged lanes in strict alternation; erasing lane 2's only
  // request retires the lane, and DWRR keeps alternating over the other
  // two with no charge for the bytes that were never served.
  FairQueue<int> q(/*quantum_bytes=*/1);
  q.Push(1, 1, 10);
  q.Push(2, 1, 20);
  q.Push(3, 1, 30);
  q.Push(1, 1, 11);
  q.Push(3, 1, 31);
  EXPECT_EQ(q.PopNext(), 10);
  int erased = 0;
  EXPECT_TRUE(q.EraseIf([](int v) { return v == 20; }, &erased));
  EXPECT_EQ(erased, 20);
  EXPECT_FALSE(q.EraseIf([](int v) { return v == 20; }, &erased));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.served_bytes(2), 0);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.PopNext());
  EXPECT_EQ(order, (std::vector<int>{30, 11, 31}));
}

TEST(FairQueueTest, EraseIfKeepsLaneFifoAndTheOldestFront) {
  FairQueue<int> q;
  for (int i = 0; i < 5; ++i) q.Push(1, 100, i);
  int erased = -1;
  EXPECT_TRUE(q.EraseIf([](int v) { return v == 0; }, &erased));
  EXPECT_EQ(q.OldestFront(), 1);
  EXPECT_TRUE(q.EraseIf([](int v) { return v == 3; }, &erased));
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.PopNext());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
}

// ---------- IoScheduler tenant lanes ----------

// Stall-gate harness (see io_scheduler_test.cc): the single worker is
// parked inside a "gate" request so later submissions queue while it is
// provably busy; completion order == service order, deterministically.
class TenantHarness {
 public:
  explicit TenantHarness(const std::string& tag, IoScheduler::Tuning tuning)
      : tmp_("tenant_" + tag) {
    auto store_or = BlockStore::Open(tmp_.path(), 2, 4096,
                                     BlockStore::Tuning{&injector_, 3});
    EXPECT_TRUE(store_or.ok());
    store_ = std::move(store_or).value();
    sched_ = std::make_unique<IoScheduler>(store_.get(), 1, tuning);
    injector_.StallOpsOn("gate");
    sched_->SubmitWrite("gate", Buffer::CopyOf(byte_.data(), 1),
                        IoScheduler::Priority::kLatencyCritical);
    injector_.WaitForStalled(1);
  }

  void SubmitTenant(const std::string& key, int tenant,
                    IoScheduler::Priority priority =
                        IoScheduler::Priority::kBackground) {
    sched_->SubmitWrite(key, Buffer::CopyOf(byte_.data(), 1), priority,
                        [this, key](const IoResult&) {
                          std::lock_guard<std::mutex> lock(mu_);
                          order_.push_back(key);
                        },
                        /*flow_tag=*/-1, tenant);
  }

  void ReleaseGate() { injector_.ReleaseStalled(); }

  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

  IoScheduler& sched() { return *sched_; }

 private:
  const ScopedTempDir tmp_;
  FaultInjector injector_{FaultConfig{}};
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<IoScheduler> sched_;
  std::vector<uint8_t> byte_ = {0x01};
  std::mutex mu_;
  std::vector<std::string> order_;
};

TEST(IoSchedulerTenantTest, DwrrInterleavesTenantsWithinAClass) {
  // Tenant 1's whole burst is queued before tenant 2's, yet DWRR with
  // equal weights serves them alternating — tenant 2 is not stuck
  // behind the bully's backlog.
  IoScheduler::Tuning tuning;
  tuning.fair_quantum_bytes = 1;
  TenantHarness harness("dwrr", tuning);
  for (int i = 0; i < 4; ++i) {
    harness.SubmitTenant("a" + std::to_string(i), 1);
  }
  for (int i = 0; i < 4; ++i) {
    harness.SubmitTenant("b" + std::to_string(i), 2);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  EXPECT_EQ(harness.order(),
            (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2",
                                      "a3", "b3"}));
  EXPECT_EQ(harness.sched().tenant_served_bytes(1), 4);
  EXPECT_EQ(harness.sched().tenant_served_bytes(2), 4);
}

TEST(IoSchedulerTenantTest, FairShareOffKeepsGlobalFifo) {
  // The A/B baseline: same submissions, fair_share=false — pure
  // arrival order, tenant tags ignored.
  IoScheduler::Tuning tuning;
  tuning.fair_share = false;
  TenantHarness harness("fifo", tuning);
  for (int i = 0; i < 4; ++i) {
    harness.SubmitTenant("a" + std::to_string(i), 1);
  }
  for (int i = 0; i < 4; ++i) {
    harness.SubmitTenant("b" + std::to_string(i), 2);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  EXPECT_EQ(harness.order(),
            (std::vector<std::string>{"a0", "a1", "a2", "a3", "b0", "b1",
                                      "b2", "b3"}));
}

TEST(IoSchedulerTenantTest, PriorityLadderStaysAboveFairShare) {
  // A latency-critical request from ANY tenant overtakes every queued
  // background request: the three-class ladder is layered strictly
  // above the tenant lanes.
  IoScheduler::Tuning tuning;
  tuning.fair_quantum_bytes = 1;
  TenantHarness harness("ladder", tuning);
  for (int i = 0; i < 6; ++i) {
    harness.SubmitTenant("bg" + std::to_string(i), 1);
  }
  harness.SubmitTenant("hot", 2, IoScheduler::Priority::kLatencyCritical);
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  EXPECT_EQ(harness.order().front(), "hot");
}

TEST(IoSchedulerTenantTest, WeightsSkewServiceOrder) {
  // Weight 3 vs 1, unit requests: the first full rotation serves three
  // of tenant 1 for each of tenant 2.
  IoScheduler::Tuning tuning;
  tuning.fair_quantum_bytes = 1;
  TenantHarness harness("weights", tuning);
  harness.sched().SetTenantWeight(1, 3);
  for (int i = 0; i < 6; ++i) {
    harness.SubmitTenant("a" + std::to_string(i), 1);
  }
  for (int i = 0; i < 6; ++i) {
    harness.SubmitTenant("b" + std::to_string(i), 2);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 12u);
  int a_in_first_8 = 0;
  for (int i = 0; i < 8; ++i) a_in_first_8 += order[i][0] == 'a';
  EXPECT_EQ(a_in_first_8, 6);  // 3:1 share through the first rotations
  EXPECT_EQ(harness.sched().tenant_served_bytes(1), 6);
  EXPECT_EQ(harness.sched().tenant_served_bytes(2), 6);
}

// ---------- TierCache tenant quotas ----------

TEST(TierCacheTenantTest, QuotaEvictsOwnEntriesOnly) {
  TierCache cache(/*capacity_bytes=*/64 * 1024);
  cache.SetTenantQuota(1, 2048);
  const Buffer kb = Buffer::Allocate(1024);

  cache.AdmitBuffer("t2/a", kb, /*tenant=*/2);
  cache.AdmitBuffer("t1/a", kb, /*tenant=*/1);
  cache.AdmitBuffer("t1/b", kb, /*tenant=*/1);
  EXPECT_EQ(cache.TenantBytes(1), 2048);

  // A third admission breaches tenant 1's quota: its own LRU entry
  // (t1/a) goes; tenant 2's entry must survive untouched.
  cache.AdmitBuffer("t1/c", kb, /*tenant=*/1);
  EXPECT_EQ(cache.TenantBytes(1), 2048);
  Buffer out;
  EXPECT_FALSE(cache.TryGetRef("t1/a", 1024, &out));
  EXPECT_TRUE(cache.TryGetRef("t1/b", 1024, &out));
  EXPECT_TRUE(cache.TryGetRef("t1/c", 1024, &out));
  EXPECT_TRUE(cache.TryGetRef("t2/a", 1024, &out));
  EXPECT_EQ(cache.TenantBytes(2), 1024);
}

TEST(TierCacheTenantTest, UnquotaedTenantsShareCapacityAsBefore) {
  TierCache cache(/*capacity_bytes=*/4096);
  const Buffer kb = Buffer::Allocate(1024);
  for (int i = 0; i < 6; ++i) {
    cache.AdmitBuffer("k" + std::to_string(i), kb, i % 2);
  }
  // Plain capacity eviction: the two oldest entries are gone whatever
  // tenant they carried.
  Buffer out;
  EXPECT_FALSE(cache.TryGetRef("k0", 1024, &out));
  EXPECT_FALSE(cache.TryGetRef("k1", 1024, &out));
  for (int i = 2; i < 6; ++i) {
    EXPECT_TRUE(cache.TryGetRef("k" + std::to_string(i), 1024, &out));
  }
  EXPECT_EQ(cache.TenantBytes(0) + cache.TenantBytes(1), 4096);
}

// ---------- TransferEngine tenancy ----------

TransferOptions EngineOptions(const std::string& dir) {
  TransferOptions options;
  options.dir = dir;
  options.num_stripes = 2;
  options.chunk_bytes = 4096;
  options.io_workers = 2;
  return options;
}

void ExpectCountersSum(const TransferStats& total,
                       const std::vector<TransferStats>& parts) {
  for (int f = 0; f < kNumFlowClasses; ++f) {
    FlowCounters sum;
    for (const TransferStats& p : parts) {
      const FlowCounters& c = p.flow[f];
      sum.reads += c.reads;
      sum.writes += c.writes;
      sum.bytes_read += c.bytes_read;
      sum.bytes_written += c.bytes_written;
      sum.bytes_from_cache += c.bytes_from_cache;
      sum.cache_hits += c.cache_hits;
      sum.cache_misses += c.cache_misses;
      sum.read_seconds += c.read_seconds;
      sum.write_seconds += c.write_seconds;
      sum.errors += c.errors;
      sum.retries += c.retries;
      sum.giveups += c.giveups;
      sum.backoff_seconds += c.backoff_seconds;
      sum.bytes_copied += c.bytes_copied;
      sum.allocs_avoided += c.allocs_avoided;
    }
    const FlowCounters& g = total.flow[f];
    EXPECT_EQ(sum.reads, g.reads) << "flow " << f;
    EXPECT_EQ(sum.writes, g.writes) << "flow " << f;
    EXPECT_EQ(sum.bytes_read, g.bytes_read) << "flow " << f;
    EXPECT_EQ(sum.bytes_written, g.bytes_written) << "flow " << f;
    EXPECT_EQ(sum.bytes_from_cache, g.bytes_from_cache) << "flow " << f;
    EXPECT_EQ(sum.cache_hits, g.cache_hits) << "flow " << f;
    EXPECT_EQ(sum.cache_misses, g.cache_misses) << "flow " << f;
    EXPECT_EQ(sum.errors, g.errors) << "flow " << f;
    EXPECT_EQ(sum.retries, g.retries) << "flow " << f;
    EXPECT_EQ(sum.giveups, g.giveups) << "flow " << f;
    EXPECT_EQ(sum.bytes_copied, g.bytes_copied) << "flow " << f;
    EXPECT_EQ(sum.allocs_avoided, g.allocs_avoided) << "flow " << f;
    // The same deltas are applied to both copies, but global and
    // per-tenant accumulate in different orders — fp sums may differ
    // in the last ulp.
    EXPECT_NEAR(sum.read_seconds, g.read_seconds, 1e-9) << "flow " << f;
    EXPECT_NEAR(sum.write_seconds, g.write_seconds, 1e-9) << "flow " << f;
    EXPECT_NEAR(sum.backoff_seconds, g.backoff_seconds, 1e-9) << "flow " << f;
  }
}

using TransferEngineTenantTest = TempDirTest;
TEST_F(TransferEngineTenantTest, PerTenantAccountingReconcilesExactly) {
  TransferOptions options = EngineOptions(tmp.path());
  options.host_cache_bytes = 64 * 1024;  // exercise hit/miss counters too
  auto engine_or = TransferEngine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  TransferEngine& engine = **engine_or;

  auto worker = [&engine](TenantId tenant, FlowClass flow, uint64_t seed) {
    ScopedTenant scope(tenant);
    Rng rng(seed);
    std::vector<uint8_t> blob(2048);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.NextU64());
    const std::string base = "t" + std::to_string(tenant) + "/k";
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          engine.Write(flow, base + std::to_string(i), blob.data(),
                       blob.size())
              .ok());
    }
    std::vector<uint8_t> out(blob.size());
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(engine
                      .Read(flow, base + std::to_string(i), out.data(),
                            blob.size())
                      .ok());
      EXPECT_EQ(out, blob);
    }
    // A read of a missing key: the error must land in this tenant's
    // error counter and nowhere else.
    std::vector<uint8_t> miss(16);
    EXPECT_FALSE(
        engine.Read(flow, base + "missing", miss.data(), miss.size()).ok());
  };

  std::thread t1(worker, 1, FlowClass::kParamFetch, 11);
  std::thread t2(worker, 2, FlowClass::kGradState, 22);
  std::thread t3(worker, 3, FlowClass::kDeferredState, 33);
  t1.join();
  t2.join();
  t3.join();
  // Drain surfaces the first error — the three intentional missing-key
  // reads above.
  EXPECT_EQ(engine.Drain().code(), StatusCode::kNotFound);

  const std::vector<TenantId> tenants = engine.tenants();
  ASSERT_EQ(tenants, (std::vector<TenantId>{1, 2, 3}));
  std::vector<TransferStats> parts;
  for (TenantId t : tenants) parts.push_back(engine.tenant_stats(t));
  ExpectCountersSum(engine.stats(), parts);

  // Each tenant's traffic stayed in its own flow bucket, with exactly
  // one error charged.
  EXPECT_GT(parts[0].Flow(FlowClass::kParamFetch).bytes_written, 0);
  EXPECT_EQ(parts[0].Flow(FlowClass::kGradState).bytes_written, 0);
  EXPECT_EQ(parts[0].Flow(FlowClass::kParamFetch).errors, 1);
  EXPECT_GT(parts[1].Flow(FlowClass::kGradState).bytes_written, 0);
  EXPECT_GT(parts[2].Flow(FlowClass::kDeferredState).bytes_written, 0);
}

TEST_F(TransferEngineTenantTest, UnscopedTrafficIsTenantZero) {
  auto engine_or = TransferEngine::Open(EngineOptions(tmp.path()));
  ASSERT_TRUE(engine_or.ok());
  TransferEngine& engine = **engine_or;
  std::vector<uint8_t> blob(512, 0x7E);
  ASSERT_TRUE(
      engine.Write(FlowClass::kCheckpoint, "k", blob.data(), blob.size())
          .ok());
  EXPECT_EQ(engine.tenants(), (std::vector<TenantId>{0}));
  EXPECT_EQ(engine.tenant_stats(0).Flow(FlowClass::kCheckpoint).bytes_written,
            static_cast<int64_t>(blob.size()));
}

TEST_F(TransferEngineTenantTest, InflightQuotaBackpressuresAndDrainsToZero) {
  auto engine_or = TransferEngine::Open(EngineOptions(tmp.path()));
  ASSERT_TRUE(engine_or.ok());
  TransferEngine& engine = **engine_or;
  TenantConfig config;
  config.quota.inflight_bytes = 4096;  // two 2 KiB writes at a time
  engine.ConfigureTenant(1, config);

  ScopedTenant scope(1);
  std::vector<uint8_t> blob(2048, 0x3C);
  std::vector<TransferEngine::Ticket> tickets;
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(engine.SubmitWrite(
        FlowClass::kDeferredState, "q" + std::to_string(i), blob.data(),
        blob.size()));
  }
  ASSERT_TRUE(engine.WaitAll(tickets).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.tenant_inflight_bytes(1), 0);
  EXPECT_EQ(engine.tenant_stats(1).Flow(FlowClass::kDeferredState).writes, 12);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(engine.Contains("q" + std::to_string(i)));
  }
}

TEST_F(TransferEngineTenantTest, OversizedRequestStillAdmittedWhenIdle) {
  // A single write larger than the whole in-flight quota must go
  // through once the tenant is idle instead of deadlocking.
  auto engine_or = TransferEngine::Open(EngineOptions(tmp.path()));
  ASSERT_TRUE(engine_or.ok());
  TransferEngine& engine = **engine_or;
  TenantConfig config;
  config.quota.inflight_bytes = 1024;
  engine.ConfigureTenant(1, config);

  ScopedTenant scope(1);
  std::vector<uint8_t> big(8192, 0x44);
  ASSERT_TRUE(
      engine.Write(FlowClass::kCheckpoint, "big", big.data(), big.size())
          .ok());
  EXPECT_EQ(engine.tenant_inflight_bytes(1), 0);
}

TEST_F(TransferEngineTenantTest, DramQuotaKeepsNeighborsResident) {
  TransferOptions options = EngineOptions(tmp.path());
  options.host_cache_bytes = 64 * 1024;
  auto engine_or = TransferEngine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  TransferEngine& engine = **engine_or;
  TenantConfig config;
  config.quota.dram_bytes = 4096;
  engine.ConfigureTenant(1, config);

  std::vector<uint8_t> blob(2048, 0x66);
  {
    ScopedTenant scope(2);
    ASSERT_TRUE(engine.Write(FlowClass::kParamFetch, "t2/hot", blob.data(),
                             blob.size())
                    .ok());
  }
  {
    ScopedTenant scope(1);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.Write(FlowClass::kGradState,
                               "t1/k" + std::to_string(i), blob.data(),
                               blob.size())
                      .ok());
    }
  }
  ASSERT_TRUE(engine.Drain().ok());
  // Tenant 1 churned 16 KiB through a 4 KiB quota; tenant 2's entry is
  // still a DRAM hit (no store read) — the quota evicted tenant 1's own
  // entries, never the neighbor's.
  const TransferStats before = engine.stats();
  {
    ScopedTenant scope(2);
    std::vector<uint8_t> out(blob.size());
    ASSERT_TRUE(
        engine.Read(FlowClass::kParamFetch, "t2/hot", out.data(), out.size())
            .ok());
    EXPECT_EQ(out, blob);
  }
  const TransferStats after = engine.stats();
  EXPECT_EQ(after.Flow(FlowClass::kParamFetch).cache_hits,
            before.Flow(FlowClass::kParamFetch).cache_hits + 1);
  EXPECT_EQ(after.store_bytes_read, before.store_bytes_read);
}

}  // namespace
}  // namespace ratel
