// Fault-matrix suite (ctest label: fault).
//
// Sweeps every injected fault kind against every FlowClass through a
// real TransferEngine: {transient read error, transient write error,
// latency spike, torn write, dead stripe} x {param_fetch, grad_state,
// activation_spill, checkpoint, deferred_state}. Each cell must
// *complete* — correct
// bytes round-tripped, no giveups — while the injector and the engine's
// per-flow retry counters prove the fault actually fired and was
// recovered, not skipped. The schedule is deterministic (seeded,
// period-based), so these are not flaky "usually retries" tests: a
// fixed seed yields a fixed fault pattern on every run and thread
// interleaving.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/job_manager.h"
#include "runtime/async_update_engine.h"
#include "storage/fault_injector.h"
#include "xfer/transfer_engine.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

constexpr FaultKind kAllKinds[] = {
    FaultKind::kReadError, FaultKind::kWriteError, FaultKind::kLatencySpike,
    FaultKind::kTornWrite, FaultKind::kDeadStripe,
};

constexpr FlowClass kAllFlows[] = {
    FlowClass::kParamFetch,    FlowClass::kGradState,
    FlowClass::kActivationSpill, FlowClass::kCheckpoint,
    FlowClass::kDeferredState,
};

// Period 2 everywhere: a faulted attempt's immediate retry passes, so
// every cell converges within the default 3-attempt budget.
FaultConfig ConfigFor(FaultKind kind, uint64_t seed) {
  FaultConfig fault;
  fault.seed = seed;
  switch (kind) {
    case FaultKind::kReadError:
      fault.read_error_every = 2;
      break;
    case FaultKind::kWriteError:
      fault.write_error_every = 2;
      break;
    case FaultKind::kLatencySpike:
      fault.latency_spike_every = 2;
      fault.latency_spike_s = 1e-4;
      break;
    case FaultKind::kTornWrite:
      fault.torn_write_every = 2;
      break;
    case FaultKind::kDeadStripe:
      fault.dead_stripe = 0;
      break;
  }
  return fault;
}

TransferOptions FastRetryOptions(const std::string& dir) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.io_workers = 2;
  // Keep the backoff discipline (exponential, jittered, deadline) but
  // at microsecond scale so the full matrix runs in well under a second.
  opts.retry.base_backoff_s = 1e-5;
  opts.retry.max_backoff_s = 1e-4;
  opts.retry.backoff_deadline_s = 1.0;
  return opts;
}

// Blobs span all four stripes (5 chunks of 4096), so the dead-stripe
// cell cannot dodge the failing device by allocation luck.
constexpr int kNumBlobs = 8;
constexpr int64_t kBlobBytes = 5 * 4096;

std::vector<uint8_t> BlobData(int index) {
  Rng rng(1000 + index);
  std::vector<uint8_t> data(kBlobBytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  return data;
}

using FaultMatrixTest = TempDirTest;
TEST_F(FaultMatrixTest, EveryFaultKindRecoversOnEveryFlowClass) {
  int cell = 0;
  for (FaultKind kind : kAllKinds) {
    for (FlowClass flow : kAllFlows) {
      SCOPED_TRACE(std::string(FaultKindName(kind)) + " x " +
                   FlowClassName(flow));
      TransferOptions opts = FastRetryOptions(
          tmp.Sub(std::string("mx_") + FaultKindName(kind) + "_" +
                  FlowClassName(flow)));
      opts.fault = ConfigFor(kind, /*seed=*/0xFA17u + cell);
      opts.fault.flow_mask = 1u << static_cast<int>(flow);
      auto engine = TransferEngine::Open(opts);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      FaultInjector* injector = (*engine)->fault_injector();
      ASSERT_NE(injector, nullptr);
      // Latency spikes run against a virtual clock: behaviour stays
      // observable through counts() without wall-clock waits.
      injector->SetSleepFn([](double) {});

      for (int i = 0; i < kNumBlobs; ++i) {
        const std::vector<uint8_t> data = BlobData(i);
        const std::string key = "t/" + std::to_string(i);
        ASSERT_TRUE(
            (*engine)->Write(flow, key, data.data(), kBlobBytes).ok());
        std::vector<uint8_t> out(kBlobBytes);
        ASSERT_TRUE((*engine)->Read(flow, key, out.data(), kBlobBytes).ok());
        EXPECT_EQ(out, data) << "blob " << i << " corrupted";
      }

      const TransferStats stats = (*engine)->stats();
      const FlowCounters& c = stats.Flow(flow);
      EXPECT_EQ(c.bytes_written, kNumBlobs * kBlobBytes);
      EXPECT_EQ(c.bytes_read, kNumBlobs * kBlobBytes);
      EXPECT_EQ(c.errors, 0);
      EXPECT_EQ(c.giveups, 0);

      const FaultInjector::Counts counts = injector->counts();
      switch (kind) {
        case FaultKind::kReadError:
          EXPECT_GT(counts.read_errors, 0);
          EXPECT_GT(c.retries, 0);
          break;
        case FaultKind::kWriteError:
          EXPECT_GT(counts.write_errors, 0);
          EXPECT_GT(c.retries, 0);
          break;
        case FaultKind::kLatencySpike:
          // Spikes delay but never fail: all latency, no retries.
          EXPECT_GT(counts.latency_spikes, 0);
          EXPECT_EQ(c.retries, 0);
          break;
        case FaultKind::kTornWrite:
          EXPECT_GT(counts.torn_writes, 0);
          EXPECT_GT(c.retries, 0);
          break;
        case FaultKind::kDeadStripe:
          // The wear-out killed stripe 0; the store re-striped around
          // it and every blob still round-trips.
          EXPECT_GE(counts.stripe_write_failures,
                    opts.stripe_death_threshold);
          EXPECT_EQ((*engine)->store().num_dead_stripes(), 1);
          EXPECT_TRUE((*engine)->store().stripe_dead(0));
          break;
      }
      ++cell;
    }
  }
}

TEST_F(FaultMatrixTest, FlowMaskScopesFaultsToTheMaskedClass) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("scope"));
  opts.fault.seed = 0x5C0FEu;
  opts.fault.read_error_every = 2;
  opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kParamFetch);
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  for (int i = 0; i < kNumBlobs; ++i) {
    const std::vector<uint8_t> data = BlobData(i);
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kGradState, key, data.data(), kBlobBytes)
                    .ok());
  }
  // Same keys, two flows: grad_state reads pass untouched (masked out),
  // param_fetch reads hit the schedule and recover via retries.
  std::vector<uint8_t> out(kBlobBytes);
  for (int i = 0; i < kNumBlobs; ++i) {
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kGradState, key, out.data(), kBlobBytes)
            .ok());
  }
  EXPECT_EQ((*engine)->fault_injector()->counts().read_errors, 0);
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kGradState).retries, 0);

  for (int i = 0; i < kNumBlobs; ++i) {
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kParamFetch, key, out.data(), kBlobBytes)
            .ok());
    EXPECT_EQ(out, BlobData(i));
  }
  EXPECT_GT((*engine)->fault_injector()->counts().read_errors, 0);
  EXPECT_GT((*engine)->stats().Flow(FlowClass::kParamFetch).retries, 0);
}

TEST_F(FaultMatrixTest, DeadStripeRelocatesExistingBlobsWithoutDataLoss) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("restripe"));
  opts.fault.seed = 0xDEADu;
  opts.fault.dead_stripe = 0;
  // Wear-out only bites checkpoint traffic; param_fetch seeds the blobs
  // onto the healthy array first (including stripe 0).
  opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kCheckpoint);
  opts.stripe_death_threshold = 1;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const std::vector<uint8_t> v1 = BlobData(0);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kParamFetch, "blob", v1.data(), kBlobBytes)
          .ok());
  ASSERT_EQ((*engine)->store().num_dead_stripes(), 0);

  // Same-size overwrite would normally reuse the extents in place — but
  // they touch stripe 0, whose first failure now trips the threshold.
  // The store declares the stripe dead, relocates the blob onto the
  // survivors, and completes the write in the same Put.
  const std::vector<uint8_t> v2 = BlobData(1);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kCheckpoint, "blob", v2.data(), kBlobBytes)
          .ok());
  EXPECT_EQ((*engine)->store().num_dead_stripes(), 1);
  EXPECT_TRUE((*engine)->store().stripe_dead(0));
  EXPECT_GE((*engine)->store().relocations(), 1);

  std::vector<uint8_t> out(kBlobBytes);
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kCheckpoint, "blob", out.data(), kBlobBytes)
          .ok());
  EXPECT_EQ(out, v2);
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kCheckpoint).giveups, 0);
}

TEST_F(FaultMatrixTest, UnrecoverableFaultGivesUpAndCountsIt) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("giveup"));
  opts.fault.seed = 7;
  opts.fault.write_error_every = 1;  // every attempt fails
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const std::vector<uint8_t> data = BlobData(0);
  const Status s =
      (*engine)->Write(FlowClass::kGradState, "doomed", data.data(),
                       kBlobBytes);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kGradState);
  EXPECT_EQ(c.giveups, 1);
  EXPECT_EQ(c.errors, 1);
  EXPECT_EQ(c.retries, opts.retry.max_attempts - 1);
}

TEST_F(FaultMatrixTest, ZeroFaultConfigRunsCleanWithoutAnInjector) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("clean"));
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  // enabled() is false: no injector is allocated, so the hot path pays
  // nothing for the fault seam.
  EXPECT_EQ((*engine)->fault_injector(), nullptr);
  for (int i = 0; i < kNumBlobs; ++i) {
    const std::vector<uint8_t> data = BlobData(i);
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kActivationSpill, key, data.data(),
                            kBlobBytes)
                    .ok());
    std::vector<uint8_t> out(kBlobBytes);
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kActivationSpill, key, out.data(),
                        kBlobBytes)
            .ok());
    EXPECT_EQ(out, data);
  }
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.retries, 0);
  EXPECT_EQ(c.giveups, 0);
  EXPECT_EQ(c.backoff_seconds, 0.0);
}

// The RATEL_FAULT_* overlay reaches a real engine: faults land on the
// named flows only.
TEST_F(FaultMatrixTest, EnvKnobsOverlayOntoBaseConfig) {
  TrainerOptions trainer;
  trainer.fault.torn_write_every = 7;  // no knob overrides it: must survive
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_FAULT_SEED", "99"},
                             {"RATEL_FAULT_READ_ERROR_EVERY", "3"},
                             {"RATEL_FAULT_LATENCY_SPIKE_MS", "2.5"},
                             {"RATEL_FAULT_FLOWS", "param_fetch,checkpoint"}},
                            &trainer)
                  .ok());
  const FaultConfig& cfg = trainer.fault;
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.read_error_every, 3);
  EXPECT_DOUBLE_EQ(cfg.latency_spike_s, 2.5e-3);
  EXPECT_EQ(cfg.torn_write_every, 7);
  const uint32_t want_mask =
      (1u << static_cast<int>(FlowClass::kParamFetch)) |
      (1u << static_cast<int>(FlowClass::kCheckpoint));
  EXPECT_EQ(cfg.flow_mask, want_mask);
  EXPECT_TRUE(cfg.enabled());

  TransferOptions opts = FastRetryOptions(tmp.Sub("env_overlay"));
  opts.fault = cfg;
  opts.fault.torn_write_every = 0;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  (*engine)->fault_injector()->SetSleepFn([](double) {});
  const std::vector<uint8_t> data = BlobData(0);
  std::vector<uint8_t> out(kBlobBytes);
  for (int i = 0; i < kNumBlobs; ++i) {
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kGradState, key, data.data(), kBlobBytes)
                    .ok());
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kGradState, key, out.data(), kBlobBytes)
            .ok());
  }
  EXPECT_EQ((*engine)->fault_injector()->counts().read_errors, 0);
  for (int i = 0; i < kNumBlobs; ++i) {
    const std::string key = "t/" + std::to_string(i);
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kParamFetch, key, out.data(), kBlobBytes)
            .ok());
    EXPECT_EQ(out, data);
  }
  EXPECT_GT((*engine)->fault_injector()->counts().read_errors, 0);
  EXPECT_GT((*engine)->stats().Flow(FlowClass::kParamFetch).retries, 0);
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kGradState).retries, 0);
}

TEST_F(FaultMatrixTest, EnvFlowListParsesDeferredState) {
  TrainerOptions trainer;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_FAULT_WRITE_ERROR_EVERY", "2"},
                             {"RATEL_FAULT_FLOWS", "deferred_state"}},
                            &trainer)
                  .ok());
  EXPECT_EQ(trainer.fault.flow_mask,
            1u << static_cast<int>(FlowClass::kDeferredState));
}

// ---------- Deferred-state faults vs the foreground step ----------

// The async optimizer's whole point is that its tail writebacks never
// sit on the step's critical path — injected faults on kDeferredState
// must be retried/re-striped entirely in the background: every
// foreground step completes, the latency-critical flows never retry,
// and the final state still matches a clean synchronous run bitwise.

// 80 partition chunks of 64; the P32 blob (4n bytes) spans all four
// stripes, so the dead-stripe cell cannot dodge the failing device.
constexpr int64_t kTensorN = 64 * 80;
constexpr int kOptimSteps = 6;

std::vector<Fp16> StepGrads(int step) {
  Rng rng(7000 + step);
  std::vector<Fp16> g(kTensorN);
  for (auto& v : g) {
    v = FloatToHalf(static_cast<float>(rng.NextGaussian()) * 0.1f);
  }
  return g;
}

std::vector<float> InitParams() {
  Rng rng(6001);
  std::vector<float> p(kTensorN);
  for (auto& v : p) v = static_cast<float>(rng.NextGaussian()) * 0.5f;
  return p;
}

// Clean sync reference on an unfaulted engine.
std::vector<float> CleanSyncReference(const std::string& dir) {
  TransferOptions opts = FastRetryOptions(dir);
  auto engine = TransferEngine::Open(opts);
  EXPECT_TRUE(engine.ok());
  AsyncUpdateEngine adam(AdamConfig{}, engine->get());
  EXPECT_TRUE(adam.Register("w", InitParams()).ok());
  for (int step = 1; step <= kOptimSteps; ++step) {
    EXPECT_TRUE(adam.StepTensor("w", StepGrads(step)).ok());
  }
  std::vector<float> master;
  EXPECT_TRUE(adam.FetchMasterParams("w", &master).ok());
  return master;
}

TEST_F(FaultMatrixTest, DeferredStateWriteErrorsRetryWithoutForegroundRetries) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("dfs_we"));
  opts.host_cache_bytes = 1 << 20;  // published barrier: overlap stays
  opts.fault.seed = 0xD3F3u;
  opts.fault.write_error_every = 2;
  opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kDeferredState);
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.25;
  async.chunk = 64;
  {
    AsyncUpdateEngine adam(AdamConfig{}, engine->get(), async);
    ASSERT_TRUE(adam.Register("w", InitParams()).ok());
    for (int step = 1; step <= kOptimSteps; ++step) {
      // Every foreground step must complete despite the faulted epochs.
      ASSERT_TRUE(adam.StepTensor("w", StepGrads(step)).ok()) << step;
    }
    ASSERT_TRUE(adam.DrainAll().ok());
    EXPECT_GT(adam.stats().deferred_epochs, 0);

    std::vector<float> master;
    ASSERT_TRUE(adam.FetchMasterParams("w", &master).ok());
    const std::vector<float> ref = CleanSyncReference(tmp.Sub("dfs_we_ref"));
    ASSERT_EQ(master.size(), ref.size());
    EXPECT_EQ(std::memcmp(master.data(), ref.data(),
                          master.size() * sizeof(float)),
              0)
        << "faulted async run diverged from the clean sync reference";
  }

  const TransferStats stats = (*engine)->stats();
  // The faults really fired — and were absorbed by background retries.
  EXPECT_GT((*engine)->fault_injector()->counts().write_errors, 0);
  EXPECT_GT(stats.Flow(FlowClass::kDeferredState).retries, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kDeferredState).giveups, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kDeferredState).errors, 0);
  // The foreground flows never saw a fault, let alone a retry.
  EXPECT_EQ(stats.Flow(FlowClass::kGradState).retries, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kParamFetch).retries, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kCheckpoint).retries, 0);
}

TEST_F(FaultMatrixTest, DeadStripeOnDeferredStateRestripesInTheBackground) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("dfs_ds"));
  opts.host_cache_bytes = 1 << 20;
  opts.fault.seed = 0xD3ADu;
  opts.fault.dead_stripe = 0;
  // Wear-out only bites the deferred writebacks; registration traffic
  // (kGradState) seeds the blobs onto the healthy array first.
  opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kDeferredState);
  opts.stripe_death_threshold = 1;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.25;
  async.chunk = 64;
  {
    AsyncUpdateEngine adam(AdamConfig{}, engine->get(), async);
    ASSERT_TRUE(adam.Register("w", InitParams()).ok());
    for (int step = 1; step <= kOptimSteps; ++step) {
      ASSERT_TRUE(adam.StepTensor("w", StepGrads(step)).ok()) << step;
    }
    ASSERT_TRUE(adam.DrainAll().ok());

    // The first deferred writeback tripped the wear-out threshold; the
    // store declared stripe 0 dead and re-striped around it — all in
    // the background epoch, with zero foreground failures.
    EXPECT_EQ((*engine)->store().num_dead_stripes(), 1);
    EXPECT_TRUE((*engine)->store().stripe_dead(0));

    std::vector<float> master;
    ASSERT_TRUE(adam.FetchMasterParams("w", &master).ok());
    const std::vector<float> ref = CleanSyncReference(tmp.Sub("dfs_ds_ref"));
    ASSERT_EQ(master.size(), ref.size());
    EXPECT_EQ(std::memcmp(master.data(), ref.data(),
                          master.size() * sizeof(float)),
              0);
  }

  const TransferStats stats = (*engine)->stats();
  EXPECT_EQ(stats.Flow(FlowClass::kDeferredState).giveups, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kGradState).retries, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kParamFetch).retries, 0);
}

// ---------- Codec column: faults on encoded frames ----------

// The codec path must inherit the whole fault matrix: store-level
// faults on *framed* traffic recover exactly like raw traffic, and the
// frame CRC adds a detection layer the raw path lacks — corruption
// that survives the store round trip (bit rot, a torn frame) fails the
// decode, is retried per RetryPolicy, and surfaces as kDataLoss after
// the budget instead of ever decoding silent garbage.

TEST_F(FaultMatrixTest, CodecFramedFlowRecoversFromEveryFaultKind) {
  int cell = 0;
  for (FaultKind kind : kAllKinds) {
    SCOPED_TRACE(std::string(FaultKindName(kind)) + " x identity codec");
    TransferOptions opts = FastRetryOptions(
        tmp.Sub(std::string("cx_") + FaultKindName(kind)));
    opts.codec.spec(FlowClass::kCheckpoint) = "identity";
    opts.fault = ConfigFor(kind, /*seed=*/0xC0DEC0u + cell);
    opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kCheckpoint);
    auto engine = TransferEngine::Open(opts);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    (*engine)->fault_injector()->SetSleepFn([](double) {});

    for (int i = 0; i < kNumBlobs; ++i) {
      const std::vector<uint8_t> data = BlobData(i);
      const std::string key = "c/" + std::to_string(i);
      ASSERT_TRUE((*engine)
                      ->Write(FlowClass::kCheckpoint, key, data.data(),
                              kBlobBytes)
                      .ok());
      std::vector<uint8_t> out(kBlobBytes);
      ASSERT_TRUE(
          (*engine)->Read(FlowClass::kCheckpoint, key, out.data(), kBlobBytes)
              .ok());
      EXPECT_EQ(out, data) << "blob " << i << " corrupted";
    }

    const TransferStats stats = (*engine)->stats();
    const FlowCounters& c = stats.Flow(FlowClass::kCheckpoint);
    EXPECT_EQ(c.bytes_written, kNumBlobs * kBlobBytes);
    EXPECT_EQ(c.bytes_read, kNumBlobs * kBlobBytes);
    EXPECT_EQ(c.errors, 0);
    EXPECT_EQ(c.giveups, 0);
    // Every successful read decoded exactly one frame; store-level
    // faults never produced a bad frame (the store's own detection
    // retried them *before* the decode hook), so no decode failures.
    EXPECT_EQ(c.encodes, kNumBlobs);
    EXPECT_GE(c.decodes, kNumBlobs);
    EXPECT_EQ(c.decode_failures, 0);
    if (kind == FaultKind::kReadError || kind == FaultKind::kWriteError ||
        kind == FaultKind::kTornWrite) {
      EXPECT_GT(c.retries, 0);
    }
    ++cell;
  }
}

// Plants corruption that the store itself cannot see: a doctored frame
// written through a raw (codec-less) flow to the key the codec'd flow
// will read. Only the frame CRC stands between that and garbage output.
void PlantCorruptFrame(TransferEngine* engine, const std::string& key,
                       const std::vector<uint8_t>& logical,
                       size_t flip_offset) {
  auto codec = MakeIdentityCodec();
  std::vector<uint8_t> frame(
      FrameSizeFor(*codec, static_cast<int64_t>(logical.size())));
  EncodeFrame(*codec, logical.data(), static_cast<int64_t>(logical.size()),
              frame.data());
  frame[flip_offset] ^= 0x10;  // bit rot
  ASSERT_TRUE(engine
                  ->Write(FlowClass::kParamFetch, key, frame.data(),
                          static_cast<int64_t>(frame.size()))
                  .ok());
}

TEST_F(FaultMatrixTest, BitRotInAFrameIsDetectedRetriedAndSurfaced) {
  TransferOptions opts = FastRetryOptions(tmp.Sub("bitrot"));
  opts.codec.spec(FlowClass::kCheckpoint) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const std::vector<uint8_t> data = BlobData(0);
  // Payload rot and header rot both funnel into the same kDataLoss.
  PlantCorruptFrame(engine->get(), "rot/payload", data,
                    /*flip_offset=*/static_cast<size_t>(32 + 1000));
  PlantCorruptFrame(engine->get(), "rot/header", data, /*flip_offset=*/9);

  for (const std::string key : {"rot/payload", "rot/header"}) {
    std::vector<uint8_t> out(kBlobBytes, 0xEE);
    const Status s =
        (*engine)->Read(FlowClass::kCheckpoint, key, out.data(), kBlobBytes);
    // Never silent garbage: the read *fails*, with the data-loss code.
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << key;
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kCheckpoint);
  // Persistent corruption is retried like a torn write — the full
  // budget per read — then surfaced and counted, every attempt landing
  // in the decode_failures column.
  EXPECT_EQ(c.decodes, 2 * opts.retry.max_attempts);
  EXPECT_EQ(c.decode_failures, 2 * opts.retry.max_attempts);
  EXPECT_EQ(c.retries, 2 * (opts.retry.max_attempts - 1));
  EXPECT_EQ(c.giveups, 2);
  EXPECT_EQ(c.errors, 2);
}

TEST_F(FaultMatrixTest, TornFrameTailIsDetectedByThePayloadCrc) {
  // A torn frame: the header and the first half of the payload are
  // intact, the tail is stale garbage — exactly what a power-cut
  // mid-write leaves behind. The payload CRC must reject it.
  TransferOptions opts = FastRetryOptions(tmp.Sub("tornframe"));
  opts.codec.spec(FlowClass::kGradState) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const std::vector<uint8_t> data = BlobData(1);
  auto codec = MakeIdentityCodec();
  std::vector<uint8_t> frame(FrameSizeFor(*codec, kBlobBytes));
  EncodeFrame(*codec, data.data(), kBlobBytes, frame.data());
  for (size_t i = frame.size() / 2; i < frame.size(); ++i) {
    frame[i] = 0xA5;  // stale tail
  }
  ASSERT_TRUE((*engine)
                  ->Write(FlowClass::kParamFetch, "torn", frame.data(),
                          static_cast<int64_t>(frame.size()))
                  .ok());

  std::vector<uint8_t> out(kBlobBytes);
  EXPECT_EQ(
      (*engine)->Read(FlowClass::kGradState, "torn", out.data(), kBlobBytes)
          .code(),
      StatusCode::kDataLoss);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kGradState);
  EXPECT_EQ(c.decode_failures, opts.retry.max_attempts);
  EXPECT_EQ(c.giveups, 1);
}

TEST_F(FaultMatrixTest, TransientReadFaultsOnFramesDecodeAfterRetry) {
  // Store-level read errors under a codec'd flow: the failed store
  // attempts never reach the decode hook, the retried attempt decodes
  // cleanly — transient faults cost retries, not decode failures.
  TransferOptions opts = FastRetryOptions(tmp.Sub("codec_transient"));
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  opts.fault.seed = 0xF1FA;
  opts.fault.read_error_every = 2;
  opts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kActivationSpill);
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  Rng rng(8);
  std::vector<float> vals(kBlobBytes / 4);
  for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
  for (int i = 0; i < kNumBlobs; ++i) {
    const std::string key = "a/" + std::to_string(i);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kActivationSpill, key, vals.data(),
                            kBlobBytes)
                    .ok());
    std::vector<float> out(vals.size());
    ASSERT_TRUE((*engine)
                    ->Read(FlowClass::kActivationSpill, key, out.data(),
                           kBlobBytes)
                    .ok());
    for (size_t j = 0; j < vals.size(); ++j) {
      ASSERT_EQ(out[j], HalfToFloat(FloatToHalf(vals[j]))) << j;
    }
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_GT((*engine)->fault_injector()->counts().read_errors, 0);
  EXPECT_GT(c.retries, 0);
  EXPECT_EQ(c.giveups, 0);
  // One successful decode per read; the store-failed attempts never
  // consumed a decode.
  EXPECT_EQ(c.decodes, kNumBlobs);
  EXPECT_EQ(c.decode_failures, 0);
}

// ---------- Tenant-scoped fault storms (multi-tenant isolation) ----------

TEST_F(FaultMatrixTest, RetryStormScopedToOneTenantLeavesTheNeighborClean) {
  // Two jobs share one engine whose fault model is scoped to job A's
  // key namespace (FaultConfig::key_prefix = "jobA/"): every second
  // write of an A-owned blob fails transiently. A must recover through
  // retries; B's per-tenant counters must show zero recovery work —
  // no retries, no errors, no backoff stalls leaking across tenants.
  JobManager::Options options;
  options.engine = FastRetryOptions(tmp.Sub("tenant_storm"));
  options.engine.fault.write_error_every = 2;
  options.engine.fault.key_prefix = "jobA/";
  auto manager_or = JobManager::Create(options);
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  JobSpec spec;
  spec.model.vocab_size = 48;
  spec.model.seq_len = 8;
  spec.model.hidden_dim = 24;
  spec.model.num_heads = 2;
  spec.model.num_layers = 2;
  spec.batch = 2;
  spec.steps = 3;
  spec.name = "jobA";
  spec.seed = 1;
  ASSERT_TRUE(manager.Submit(spec).ok());
  spec.name = "jobB";
  spec.seed = 2;
  ASSERT_TRUE(manager.Submit(spec).ok());
  ASSERT_TRUE(manager.WaitAll().ok());

  const JobManagerStats stats = manager.Stats();
  ASSERT_EQ(stats.jobs.size(), 2u);
  const JobStats* job_a = &stats.jobs[0];
  const JobStats* job_b = &stats.jobs[1];
  if (job_a->name != "jobA") std::swap(job_a, job_b);
  ASSERT_EQ(job_a->name, "jobA");

  // Both jobs trained to completion despite the storm.
  EXPECT_EQ(job_a->state, JobState::kFinished);
  EXPECT_EQ(job_b->state, JobState::kFinished);
  EXPECT_EQ(job_a->steps_done, 3);
  EXPECT_EQ(job_b->steps_done, 3);

  int64_t a_retries = 0;
  for (int f = 0; f < kNumFlowClasses; ++f) {
    const FlowCounters& a = job_a->xfer.flow[f];
    const FlowCounters& b = job_b->xfer.flow[f];
    a_retries += a.retries;
    EXPECT_EQ(a.giveups, 0) << "flow " << f;
    // The isolation contract: none of A's recovery work is charged to
    // B, and B saw no faults of its own.
    EXPECT_EQ(b.retries, 0) << "flow " << f;
    EXPECT_EQ(b.giveups, 0) << "flow " << f;
    EXPECT_EQ(b.errors, 0) << "flow " << f;
    EXPECT_EQ(b.backoff_seconds, 0.0) << "flow " << f;
  }
  EXPECT_GT(a_retries, 0);  // the storm really hit A
}

}  // namespace
}  // namespace ratel
