#include "storage/io_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/fault_injector.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

Buffer Bytes(const std::vector<uint8_t>& v) {
  return Buffer::CopyOf(v.data(), static_cast<int64_t>(v.size()));
}

std::vector<uint8_t> Vec(const Buffer& b) { return {b.begin(), b.end()}; }

using IoSchedulerTest = TempDirTest;
TEST_F(IoSchedulerTest, WriteThenReadRoundTrip) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 2);
  Rng rng(1);
  std::vector<uint8_t> data(5000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  const auto wt = sched.SubmitWrite("blob", Bytes(data),
                                    IoScheduler::Priority::kBackground);
  ASSERT_TRUE(sched.Wait(wt).ok());
  Buffer out = Buffer::Allocate(data.size());
  const auto rt =
      sched.SubmitRead("blob", out, IoScheduler::Priority::kLatencyCritical);
  ASSERT_TRUE(sched.Wait(rt).ok());
  EXPECT_EQ(Vec(out), data);
}

TEST_F(IoSchedulerTest, DrainWaitsForEverything) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 3);
  std::vector<uint8_t> data(256, 0xAB);
  for (int i = 0; i < 40; ++i) {
    sched.SubmitWrite("k" + std::to_string(i), Bytes(data),
                      i % 2 ? IoScheduler::Priority::kBackground
                            : IoScheduler::Priority::kLatencyCritical);
  }
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(sched.completed_latency_critical() +
                sched.completed_background(),
            40);
  EXPECT_EQ((*store)->num_blobs(), 40);
}

// Harness for service-order tests, built on the fault seam's injected
// stall hook: the worker is deterministically parked *inside* the store
// operation of a "gate" request (FaultInjector::StallOpsOn), so every
// later submission is queued while the worker is provably busy; the
// recorded completion order is then the exact (deterministic) service
// order. No wall-clock sleeps, no completion-callback gating.
class StarvationHarness {
 public:
  explicit StarvationHarness(const std::string& tag, int workers = 1,
                             IoScheduler::Tuning tuning = {})
      : tmp_("iosched_" + tag) {
    auto store_or = BlockStore::Open(tmp_.path(), 2, 4096,
                                     BlockStore::Tuning{&injector_, 3});
    EXPECT_TRUE(store_or.ok());
    store_ = std::move(store_or).value();
    sched_ = std::make_unique<IoScheduler>(store_.get(), workers, tuning);
    injector_.StallOpsOn("gate");
    sched_->SubmitWrite("gate", Bytes(byte_),
                        IoScheduler::Priority::kLatencyCritical);
    injector_.WaitForStalled(1);  // the worker is now held busy
  }

  void SubmitTagged(const std::string& key, IoScheduler::Priority priority) {
    sched_->SubmitWrite(key, Bytes(byte_), priority,
                        [this, key](const IoResult&) {
                          std::lock_guard<std::mutex> lock(mu_);
                          order_.push_back(key);
                        });
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

TEST_F(IoSchedulerTest, CriticalClassServedFirst) {
  // Single worker, parked while we fill the queues: the critical
  // request must overtake the whole queued background tail.
  StarvationHarness harness("prio");
  for (int i = 0; i < 30; ++i) {
    harness.SubmitTagged("bg" + std::to_string(i),
                         IoScheduler::Priority::kBackground);
  }
  harness.SubmitTagged("hot", IoScheduler::Priority::kLatencyCritical);
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 31u);
  EXPECT_EQ(order.front(), "hot");
  // Background requests keep FIFO order among themselves.
  EXPECT_EQ(order[1], "bg0");
  EXPECT_EQ(order.back(), "bg29");
  EXPECT_EQ(harness.sched().completed_background(), 30);
}

TEST_F(IoSchedulerTest, NormalClassOvertakesTheBackgroundBacklog) {
  // The stall the deferred-update pipeline must not re-introduce: a
  // foreground-waited (normal) state request queued behind a large
  // accumulated backlog of deferred background writes. The normal
  // request must be served before the entire backlog, yet after any
  // latency-critical request.
  StarvationHarness harness("normal");
  for (int i = 0; i < 20; ++i) {
    harness.SubmitTagged("deferred" + std::to_string(i),
                         IoScheduler::Priority::kBackground);
  }
  harness.SubmitTagged("state", IoScheduler::Priority::kNormal);
  harness.SubmitTagged("hot", IoScheduler::Priority::kLatencyCritical);
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 22u);
  EXPECT_EQ(order[0], "hot");
  EXPECT_EQ(order[1], "state");
  EXPECT_EQ(order[2], "deferred0");
  EXPECT_EQ(order.back(), "deferred19");
  EXPECT_EQ(harness.sched().completed_normal(), 1);
  EXPECT_EQ(harness.sched().completed_background(), 20);
}

TEST_F(IoSchedulerTest, ErrorsSurfaceThroughWaitAndDrain) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 2);
  const auto bad = sched.SubmitRead("missing", Buffer::Allocate(64),
                                    IoScheduler::Priority::kLatencyCritical);
  EXPECT_EQ(sched.Wait(bad).code(), StatusCode::kNotFound);
  EXPECT_EQ(sched.Drain().code(), StatusCode::kNotFound);  // first error
}

TEST_F(IoSchedulerTest, CompletionCallbackRunsBeforeTicketResolves) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 2);
  std::vector<uint8_t> data(128, 0x5A);
  std::atomic<bool> write_cb{false};
  const auto wt = sched.SubmitWrite(
      "k", Bytes(data), IoScheduler::Priority::kBackground,
      [&](const IoResult& r) {
        EXPECT_TRUE(r.status.ok());
        EXPECT_EQ(r.attempts, 1);
        EXPECT_FALSE(r.gave_up);
        write_cb.store(true);
      });
  ASSERT_TRUE(sched.Wait(wt).ok());
  EXPECT_TRUE(write_cb.load());  // callback effects visible by Wait-return
  // Errors reach the callback too. kNotFound is not transient, so no
  // retries are burned on it.
  std::atomic<bool> saw_not_found{false};
  const auto bad = sched.SubmitRead(
      "missing", Buffer::Allocate(64), IoScheduler::Priority::kLatencyCritical,
      [&](const IoResult& r) {
        saw_not_found.store(r.status.code() == StatusCode::kNotFound &&
                            r.attempts == 1 && !r.gave_up);
      });
  EXPECT_EQ(sched.Wait(bad).code(), StatusCode::kNotFound);
  EXPECT_TRUE(saw_not_found.load());
}

TEST_F(IoSchedulerTest, AgingPromotesStarvedBackgroundRequest) {
  IoScheduler::Tuning tuning;
  tuning.background_aging_limit = 8;
  StarvationHarness harness("aging", 1, tuning);
  // One background request, then a long run of latency-critical work —
  // the sustained-fetch pattern that starves writebacks under strict
  // priority.
  harness.SubmitTagged("bg", IoScheduler::Priority::kBackground);
  for (int i = 0; i < 32; ++i) {
    harness.SubmitTagged("c" + std::to_string(i),
                         IoScheduler::Priority::kLatencyCritical);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 33u);
  // The gate completion counts as 1 critical; once 8 critical requests
  // completed while "bg" waited, it is served next — position 7 of the
  // post-gate order, far ahead of the 32nd critical.
  EXPECT_EQ(order[7], "bg") << "bg served at position "
                            << (std::find(order.begin(), order.end(), "bg") -
                                order.begin());
  EXPECT_EQ(harness.sched().promoted_background(), 1);
}

TEST_F(IoSchedulerTest, AgingPromotesStarvedNormalRequest) {
  IoScheduler::Tuning tuning;
  tuning.background_aging_limit = 8;
  StarvationHarness harness("aging_nrm", 1, tuning);
  // The middle class must not starve under sustained fetch load either.
  harness.SubmitTagged("state", IoScheduler::Priority::kNormal);
  for (int i = 0; i < 32; ++i) {
    harness.SubmitTagged("c" + std::to_string(i),
                         IoScheduler::Priority::kLatencyCritical);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 33u);
  // Same arithmetic as the background case: after 8 critical
  // completions (gate included) "state" is served next.
  EXPECT_EQ(order[7], "state");
  EXPECT_EQ(harness.sched().promoted_normal(), 1);
  EXPECT_EQ(harness.sched().completed_normal(), 1);
}

TEST_F(IoSchedulerTest, StrictPriorityStarvesBackgroundRegression) {
  IoScheduler::Tuning tuning;
  tuning.background_aging_limit = 0;  // strict priority, no aging
  StarvationHarness harness("strict", 1, tuning);
  harness.SubmitTagged("bg", IoScheduler::Priority::kBackground);
  for (int i = 0; i < 32; ++i) {
    harness.SubmitTagged("c" + std::to_string(i),
                         IoScheduler::Priority::kLatencyCritical);
  }
  harness.ReleaseGate();
  ASSERT_TRUE(harness.sched().Drain().ok());
  const std::vector<std::string> order = harness.order();
  ASSERT_EQ(order.size(), 33u);
  // Without aging the background request is served dead last.
  EXPECT_EQ(order.back(), "bg");
  EXPECT_EQ(harness.sched().promoted_background(), 0);
}

TEST_F(IoSchedulerTest, ConcurrentMixedLoad) {
  auto store = BlockStore::Open(tmp.path(), 4, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 4);
  Rng rng(7);
  std::vector<std::vector<uint8_t>> blobs(32);
  std::vector<IoScheduler::Ticket> writes;
  for (int i = 0; i < 32; ++i) {
    blobs[i].resize(200 + rng.NextBelow(800));
    for (auto& b : blobs[i]) b = static_cast<uint8_t>(rng.NextU64());
    writes.push_back(sched.SubmitWrite(
        "m" + std::to_string(i), Bytes(blobs[i]),
        i % 3 ? IoScheduler::Priority::kBackground
              : IoScheduler::Priority::kLatencyCritical));
  }
  for (auto t : writes) ASSERT_TRUE(sched.Wait(t).ok());
  std::vector<Buffer> outs;
  std::vector<IoScheduler::Ticket> reads;
  for (int i = 0; i < 32; ++i) {
    outs.push_back(Buffer::Allocate(blobs[i].size()));
    reads.push_back(sched.SubmitRead("m" + std::to_string(i), outs[i],
                                     IoScheduler::Priority::kLatencyCritical));
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(sched.Wait(reads[i]).ok());
    EXPECT_EQ(Vec(outs[i]), blobs[i]) << i;
  }
}

TEST_F(IoSchedulerTest, TransientReadErrorsRetriedToSuccess) {
  FaultConfig fault;
  fault.seed = 11;
  fault.read_error_every = 2;  // every 2nd read attempt of a key fails
  FaultInjector injector(fault);
  auto store = BlockStore::Open(tmp.path(), 2, 4096,
                                BlockStore::Tuning{&injector, 3});
  ASSERT_TRUE(store.ok());
  IoScheduler::Tuning tuning;
  tuning.backoff_sleep_fn = [](double) {};  // virtual clock: no waiting
  IoScheduler sched(store->get(), 2, tuning);
  std::vector<uint8_t> data(512, 0x3C);
  for (int i = 0; i < 8; ++i) {
    sched.SubmitWrite("r" + std::to_string(i), Bytes(data),
                      IoScheduler::Priority::kBackground);
  }
  ASSERT_TRUE(sched.Drain().ok());
  for (int i = 0; i < 8; ++i) {
    Buffer out = Buffer::Allocate(512);
    const auto t = sched.SubmitRead("r" + std::to_string(i), out,
                                    IoScheduler::Priority::kLatencyCritical);
    ASSERT_TRUE(sched.Wait(t).ok()) << i;
    EXPECT_EQ(Vec(out), data) << i;
  }
  // With period 2, each key loses exactly one of its first two attempts.
  EXPECT_GT(sched.total_retries(), 0);
  EXPECT_EQ(sched.total_giveups(), 0);
  EXPECT_GT(injector.counts().read_errors, 0);
}

TEST_F(IoSchedulerTest, PermanentFailureGivesUpAfterMaxAttempts) {
  FaultConfig fault;
  fault.seed = 5;
  fault.write_error_every = 1;  // every write attempt fails
  FaultInjector injector(fault);
  auto store = BlockStore::Open(tmp.path(), 2, 4096,
                                BlockStore::Tuning{&injector, 1 << 20});
  ASSERT_TRUE(store.ok());
  IoScheduler::Tuning tuning;
  tuning.retry.max_attempts = 3;
  tuning.backoff_sleep_fn = [](double) {};
  IoScheduler sched(store->get(), 1, tuning);
  std::vector<uint8_t> data(64, 0x77);
  std::atomic<int> attempts{0};
  std::atomic<bool> gave_up{false};
  const auto t = sched.SubmitWrite(
      "doomed", Bytes(data), IoScheduler::Priority::kBackground,
      [&](const IoResult& r) {
        attempts.store(r.attempts);
        gave_up.store(r.gave_up);
      });
  EXPECT_EQ(sched.Wait(t).code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_TRUE(gave_up.load());
  EXPECT_EQ(sched.total_retries(), 2);
  EXPECT_EQ(sched.total_giveups(), 1);
}

TEST_F(IoSchedulerTest, BackoffDeadlineCapsRetrySleep) {
  FaultConfig fault;
  fault.seed = 5;
  fault.write_error_every = 1;
  FaultInjector injector(fault);
  auto store = BlockStore::Open(tmp.path(), 2, 4096,
                                BlockStore::Tuning{&injector, 1 << 20});
  ASSERT_TRUE(store.ok());
  IoScheduler::Tuning tuning;
  tuning.retry.max_attempts = 10;
  tuning.retry.base_backoff_s = 1.0;        // any sleep would be huge...
  tuning.retry.max_backoff_s = 1.0;
  tuning.retry.backoff_deadline_s = 0.5;    // ...but the deadline forbids it
  std::vector<double> slept;
  std::mutex slept_mu;
  tuning.backoff_sleep_fn = [&](double s) {
    std::lock_guard<std::mutex> lock(slept_mu);
    slept.push_back(s);
  };
  IoScheduler sched(store->get(), 1, tuning);
  std::vector<uint8_t> data(64, 0x11);
  std::atomic<bool> gave_up{false};
  const auto t = sched.SubmitWrite(
      "doomed", Bytes(data), IoScheduler::Priority::kBackground,
      [&](const IoResult& r) { gave_up.store(r.gave_up); });
  EXPECT_EQ(sched.Wait(t).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(gave_up.load());
  // The first backoff (>= 0.75 s after jitter) already busts the 0.5 s
  // deadline, so the request gives up without sleeping at all.
  EXPECT_TRUE(slept.empty());
  EXPECT_EQ(sched.total_giveups(), 1);
}

TEST_F(IoSchedulerTest, WaitOnUnknownOrConsumedTicketIsChecked) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 2);
  EXPECT_EQ(sched.Wait(987654).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> data(64, 0x42);
  const auto t =
      sched.SubmitWrite("k", Bytes(data), IoScheduler::Priority::kBackground);
  ASSERT_TRUE(sched.Wait(t).ok());
  // A ticket is single-use: the second Wait is a caller bug, reported
  // as kInvalidArgument instead of blocking forever.
  EXPECT_EQ(sched.Wait(t).code(), StatusCode::kInvalidArgument);
}

TEST_F(IoSchedulerTest, BufferPayloadRoundTrip) {
  auto store = BlockStore::Open(tmp.path(), 2, 4096);
  ASSERT_TRUE(store.ok());
  IoScheduler sched(store->get(), 2);
  Buffer payload = Buffer::Allocate(5000);
  for (int64_t i = 0; i < 5000; ++i) {
    payload.mutable_data()[i] = static_cast<uint8_t>(i * 7);
  }
  const uint8_t* published = payload.data();
  const auto wt = sched.SubmitWrite("blob", payload,
                                    IoScheduler::Priority::kBackground);
  ASSERT_TRUE(sched.Wait(wt).ok());
  // The scheduler held a reference, not a copy, while the write was in
  // flight; our handle still points at the same block.
  EXPECT_EQ(payload.data(), published);
  Buffer dst = Buffer::Allocate(5000);
  const auto rt =
      sched.SubmitRead("blob", dst, IoScheduler::Priority::kLatencyCritical);
  ASSERT_TRUE(sched.Wait(rt).ok());
  EXPECT_EQ(std::memcmp(dst.data(), payload.data(), 5000), 0);
}

}  // namespace
}  // namespace ratel
