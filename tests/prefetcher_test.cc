#include "runtime/prefetcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

constexpr int64_t kBlob = 4096;

std::string Key(int i) { return "k" + std::to_string(i); }

// An engine holding blobs k0..k{n-1}, blob i filled with byte i, and a
// Request per blob. `read_bandwidth` (bytes/s, 0 = off) paces reads.
class PrefetcherTest : public TempDirTest {
 protected:
  void OpenWithKeys(int n, double read_bandwidth = 0.0) {
    TransferOptions opts;
    opts.dir = tmp.path();
    opts.chunk_bytes = kBlob;
    opts.read_bandwidth = read_bandwidth;
    auto engine = TransferEngine::Open(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    for (int i = 0; i < n; ++i) {
      const std::vector<uint8_t> blob(kBlob, static_cast<uint8_t>(i));
      ASSERT_TRUE(
          engine_->Write(FlowClass::kParamFetch, Key(i), blob.data(), kBlob)
              .ok());
      requests_.push_back({Key(i), kBlob, nullptr});
    }
  }
  int64_t CompletedReads() const {
    return engine_->stats().Flow(FlowClass::kParamFetch).reads;
  }

  std::unique_ptr<TransferEngine> engine_;
  std::vector<Prefetcher::Request> requests_;
};

TEST_F(PrefetcherTest, DeliversAllKeysInOrder) {
  OpenWithKeys(20);
  Prefetcher pf(engine_.get(), FlowClass::kParamFetch, requests_, 3);
  for (int i = 0; i < 20; ++i) {
    const Prefetcher::Item item = pf.Next();
    EXPECT_EQ(item.key, Key(i));
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    ASSERT_EQ(item.data.size(), kBlob);
    EXPECT_EQ(item.data.data()[0], i);
    EXPECT_EQ(item.data.data()[kBlob - 1], i);
  }
  EXPECT_EQ(pf.remaining(), 0);
}

TEST_F(PrefetcherTest, LookaheadBounded) {
  // Each request's gate runs right before its read is submitted, so
  // counting gate calls against Next() calls measures the lookahead.
  constexpr int kKeys = 12;
  constexpr int kDepth = 3;
  OpenWithKeys(kKeys);
  int submitted = 0;
  for (auto& req : requests_) {
    req.gate = [&submitted] {
      ++submitted;
      return Status::Ok();
    };
  }
  Prefetcher pf(engine_.get(), FlowClass::kParamFetch, requests_, kDepth);
  EXPECT_EQ(submitted, kDepth);  // the window is full from the start
  for (int consumed = 1; consumed <= kKeys; ++consumed) {
    EXPECT_TRUE(pf.Next().status.ok());
    EXPECT_LE(submitted - consumed, kDepth);
    EXPECT_EQ(submitted, std::min(kKeys, consumed + kDepth));
  }
}

TEST_F(PrefetcherTest, ErrorsDeliveredPerKey) {
  OpenWithKeys(4);
  requests_[1].key = "missing";  // never written: the store read fails
  requests_[2].gate = [] { return Status::Unavailable("gate refused"); };
  Prefetcher pf(engine_.get(), FlowClass::kParamFetch, requests_, 2);
  EXPECT_TRUE(pf.Next().status.ok());
  EXPECT_EQ(pf.Next().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(pf.Next().status.code(), StatusCode::kUnavailable);
  const Prefetcher::Item last = pf.Next();  // the pipeline continues
  ASSERT_TRUE(last.status.ok());
  EXPECT_EQ(last.data.data()[0], 3);
  // The refused gate submitted no read: three reads, one failed.
  const FlowCounters c = engine_->stats().Flow(FlowClass::kParamFetch);
  EXPECT_EQ(c.reads, 3);
  EXPECT_EQ(c.errors, 1);
}

TEST_F(PrefetcherTest, OverlapsFetchWithConsumption) {
  // Reads are paced at ~10 ms each. While the consumer holds item 0 and
  // does not call Next(), the reads of the lookahead window must still
  // complete: the fetch stream overlaps the consumer's compute. A
  // fetch-on-demand prefetcher would stay at one completed read.
  constexpr int kKeys = 8;
  constexpr int kDepth = 4;
  OpenWithKeys(kKeys, /*read_bandwidth=*/kBlob / 0.01);
  Prefetcher pf(engine_.get(), FlowClass::kParamFetch, requests_, kDepth);
  ASSERT_TRUE(pf.Next().status.ok());
  // Item 0 consumed; Next() topped the window back up to kDepth reads.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (CompletedReads() < kDepth + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(CompletedReads(), kDepth + 1);
  for (int i = 1; i < kKeys; ++i) {
    const Prefetcher::Item item = pf.Next();
    ASSERT_TRUE(item.status.ok());
    EXPECT_EQ(item.data.data()[0], i);
  }
}

TEST_F(PrefetcherTest, DestructorAbandonsCleanly) {
  // Destroy with a full window of undrained, throttled reads in flight:
  // the destructor waits them out, and the engine stays usable.
  OpenWithKeys(50, /*read_bandwidth=*/kBlob / 0.002);
  auto pf = std::make_unique<Prefetcher>(engine_.get(), FlowClass::kParamFetch,
                                         requests_, 4);
  EXPECT_TRUE(pf->Next().status.ok());
  pf.reset();  // 49 keys never drained, 4 of them in flight
  EXPECT_TRUE(engine_->Drain().ok());
  EXPECT_EQ(CompletedReads(), 5);
  const auto out = engine_->ReadBuffer(FlowClass::kParamFetch, Key(49), kBlob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->data()[0], 49);
}

}  // namespace
}  // namespace ratel
