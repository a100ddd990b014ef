// Asynchronous-optimizer suite (ctest labels: determinism, async).
//
// The stall-free update pipeline promises two things at once:
//   1. *Sync mode is untouched*: with AsyncUpdateOptions{} the engine is
//      bitwise identical to the classic blocking out-of-core optimizer —
//      same arithmetic, same per-flow traffic.
//   2. *Async mode is exact, bounded, and reproducible*: deferring the
//      tail chunks changes WHEN state is written, never WHAT — the
//      final state matches sync bitwise, every consumer drains the
//      pending epoch first (staleness <= 1 step), and because the
//      hot/tail split has fixed boundaries the whole run is bitwise
//      reproducible at any compute or background thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/compute_pool.h"
#include "runtime/async_update_engine.h"
#include "runtime/ratel_trainer.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

Result<std::unique_ptr<TransferEngine>> OpenEngine(
    const std::string& dir, int64_t cache_bytes = 0,
    double write_bandwidth = 0.0) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  opts.host_cache_bytes = cache_bytes;
  opts.write_bandwidth = write_bandwidth;
  return TransferEngine::Open(opts);
}

std::vector<float> Floats(const Buffer& b) {
  std::vector<float> out(b.size() / sizeof(float));
  if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextGaussian()) * 0.5f;
  }
  return v;
}

std::vector<Fp16> RandomGrads16(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Fp16> g(n);
  for (int64_t i = 0; i < n; ++i) {
    g[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()) * 0.1f);
  }
  return g;
}

// ---------- Env overlay ----------

TEST(AsyncUpdateOptionsTest, FromEnvOverlaysTheKnobs) {
  TrainerOptions on;
  on.async_hot_fraction = 0.25;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_ASYNC_OPTIM", "1"},
                             {"RATEL_ASYNC_HOT_FRACTION", "0.5"}},
                            &on)
                  .ok());
  EXPECT_TRUE(on.async_optimizer);
  EXPECT_DOUBLE_EQ(on.async_hot_fraction, 0.5);

  // "0" forces sync even when the caller asked for async.
  TrainerOptions off;
  off.async_optimizer = true;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_ASYNC_OPTIM", "0"}}, &off).ok());
  EXPECT_FALSE(off.async_optimizer);
  EXPECT_DOUBLE_EQ(off.async_hot_fraction, 0.25);  // untouched without it

  // An empty environment leaves the options untouched.
  TrainerOptions same;
  same.async_optimizer = true;
  ASSERT_TRUE(ApplyEnvKnobs({}, &same).ok());
  EXPECT_TRUE(same.async_optimizer);
}

// ---------- Importance partition ----------

TEST(ChunkPartitionTest, CoversEveryChunkExactlyOnceWithFixedBoundaries) {
  const int64_t chunk = 8;
  const int64_t n = 100;  // 13 chunks, ragged tail
  const std::vector<Fp16> g = RandomGrads16(n, 42);
  const ChunkPartition part =
      PartitionChunksByImportance(n, g.data(), /*hot_fraction=*/0.25, chunk);
  EXPECT_EQ(part.chunk, chunk);
  // ceil(0.25 * 13) = 4 hot chunks.
  EXPECT_EQ(static_cast<int64_t>(part.hot.size()), 4);
  EXPECT_EQ(part.hot.size() + part.tail.size(), 13u);
  // Both lists ascending, union = [0, 13).
  std::vector<bool> seen(13, false);
  for (size_t i = 1; i < part.hot.size(); ++i) {
    EXPECT_LT(part.hot[i - 1], part.hot[i]);
  }
  for (size_t i = 1; i < part.tail.size(); ++i) {
    EXPECT_LT(part.tail[i - 1], part.tail[i]);
  }
  for (int64_t c : part.hot) seen[c] = true;
  for (int64_t c : part.tail) {
    EXPECT_FALSE(seen[c]) << "chunk " << c << " in both lists";
    seen[c] = true;
  }
  for (int64_t c = 0; c < 13; ++c) EXPECT_TRUE(seen[c]) << "chunk " << c;
}

TEST(ChunkPartitionTest, IsAPureFunctionAcrossThreadCounts) {
  const int64_t n = 64 * 9 + 17;
  const std::vector<Fp16> g = RandomGrads16(n, 7);
  SetComputeThreads(1);
  const ChunkPartition serial =
      PartitionChunksByImportance(n, g.data(), 0.3, /*chunk=*/64);
  SetComputeThreads(4);
  const ChunkPartition parallel =
      PartitionChunksByImportance(n, g.data(), 0.3, /*chunk=*/64);
  SetComputeThreads(1);
  EXPECT_EQ(serial.hot, parallel.hot);
  EXPECT_EQ(serial.tail, parallel.tail);
}

TEST(ChunkPartitionTest, DegenerateFractionsClampSanely) {
  const int64_t n = 64 * 4;
  const std::vector<Fp16> g = RandomGrads16(n, 3);
  // >= 1: everything is hot, nothing defers.
  const ChunkPartition all =
      PartitionChunksByImportance(n, g.data(), 1.0, /*chunk=*/64);
  EXPECT_EQ(all.hot.size(), 4u);
  EXPECT_TRUE(all.tail.empty());
  // 0: at least one chunk is always hot (the critical-path anchor).
  const ChunkPartition one =
      PartitionChunksByImportance(n, g.data(), 0.0, /*chunk=*/64);
  EXPECT_EQ(one.hot.size(), 1u);
  EXPECT_EQ(one.tail.size(), 3u);
}

TEST(ChunkPartitionTest, PicksTheLargestGradientChunksAsHot) {
  // Chunk 2 carries all the gradient mass; it must be the hot one.
  const int64_t chunk = 4;
  std::vector<Fp16> g(16, FloatToHalf(0.0f));
  for (int64_t i = 8; i < 12; ++i) g[i] = FloatToHalf(3.0f);
  const ChunkPartition part =
      PartitionChunksByImportance(16, g.data(), 0.0, chunk);
  ASSERT_EQ(part.hot.size(), 1u);
  EXPECT_EQ(part.hot[0], 2);
}

// ---------- Sync mode: bitwise the classic optimizer ----------

using AsyncOptimTest = TempDirTest;
TEST_F(AsyncOptimTest, SyncModeMatchesInMemoryChunkedAdamBitwise) {
  auto engine = OpenEngine(tmp.Sub("sync_ref"));
  ASSERT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  cfg.weight_decay = 0.01;
  AsyncUpdateEngine ooc(cfg, engine->get());  // defaults: sync mode
  EXPECT_FALSE(ooc.async());
  ChunkedCpuAdam ram(cfg);

  const int64_t n = 512;
  const std::vector<float> init = RandomVec(n, 1);
  ASSERT_TRUE(ooc.Register("w", init).ok());
  ASSERT_TRUE(ram.Register("w", init).ok());
  for (int step = 1; step <= 5; ++step) {
    const std::vector<Fp16> g = RandomGrads16(n, 100 + step);
    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    ASSERT_TRUE(ram.StepTensor("w", g, nullptr).ok());
  }
  std::vector<float> master;
  ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
  auto ref = ram.MasterParams("w");
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(BitwiseEqual(master, **ref));
  // Sync mode never touches the pipeline counters or the deferred flow.
  const AsyncUpdateEngine::Stats stats = ooc.stats();
  EXPECT_EQ(stats.deferred_epochs, 0);
  EXPECT_EQ(stats.tail_chunks, 0);
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kDeferredState).bytes_written,
            0);
}

// ---------- Async mode: exact, overlapped, reproducible ----------

struct RunResult {
  std::vector<float> p32, m, v;
  AsyncUpdateEngine::Stats stats;
};

// Runs `steps` updates of one tensor under the given options and
// returns the final out-of-core state.
RunResult RunUpdates(const std::string& dir, const AsyncUpdateOptions& options,
                     int64_t n, int steps, int compute_threads,
                     int64_t cache_bytes) {
  SetComputeThreads(compute_threads);
  auto engine = OpenEngine(dir, cache_bytes);
  EXPECT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 2e-3;
  cfg.weight_decay = 0.05;
  RunResult result;
  {
    AsyncUpdateEngine ooc(cfg, engine->get(), options);
    EXPECT_TRUE(ooc.Register("w", RandomVec(n, 11)).ok());
    for (int step = 1; step <= steps; ++step) {
      EXPECT_TRUE(ooc.StepTensor("w", RandomGrads16(n, 500 + step)).ok());
    }
    int64_t adam_step = 0;
    Buffer p32, m, v;
    EXPECT_TRUE(ooc.ExportStateBuffers("w", &adam_step, &p32, &m, &v).ok());
    result.p32 = Floats(p32);
    result.m = Floats(m);
    result.v = Floats(v);
    EXPECT_EQ(adam_step, steps);
    result.stats = ooc.stats();
  }
  SetComputeThreads(1);
  return result;
}

// Multi-chunk at partition granularity 64, with a ragged tail.
constexpr int64_t kN = 64 * 7 + 13;
constexpr int kSteps = 5;

TEST_F(AsyncOptimTest, AsyncFinalStateMatchesSyncBitwise) {
  const RunResult sync =
      RunUpdates(tmp.Sub("m_sync"), AsyncUpdateOptions{}, kN, kSteps,
                 /*compute_threads=*/1, /*cache_bytes=*/0);
  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.25;
  async.chunk = 64;
  const RunResult deferred = RunUpdates(tmp.Sub("m_async"), async, kN, kSteps,
                                        /*compute_threads=*/1,
                                        /*cache_bytes=*/1 << 20);
  // The pipeline really deferred work...
  EXPECT_GT(deferred.stats.deferred_epochs, 0);
  EXPECT_GT(deferred.stats.tail_chunks, 0);
  EXPECT_GT(deferred.stats.hot_chunks, 0);
  // ...and changed nothing about the result.
  EXPECT_TRUE(BitwiseEqual(sync.p32, deferred.p32));
  EXPECT_TRUE(BitwiseEqual(sync.m, deferred.m));
  EXPECT_TRUE(BitwiseEqual(sync.v, deferred.v));
}

TEST_F(AsyncOptimTest, AsyncWithoutDramTierIsStillExact) {
  // No cache: the drain barrier hardens to durable (store writes
  // resolved). Same bitwise contract.
  const RunResult sync = RunUpdates(tmp.Sub("nc_sync"), AsyncUpdateOptions{},
                                    kN, kSteps, 1, /*cache_bytes=*/0);
  AsyncUpdateOptions async;
  async.async = true;
  async.chunk = 64;
  const RunResult deferred =
      RunUpdates(tmp.Sub("nc_async"), async, kN, kSteps, 1, /*cache_bytes=*/0);
  EXPECT_GT(deferred.stats.deferred_epochs, 0);
  EXPECT_TRUE(BitwiseEqual(sync.p32, deferred.p32));
  EXPECT_TRUE(BitwiseEqual(sync.m, deferred.m));
  EXPECT_TRUE(BitwiseEqual(sync.v, deferred.v));
}

TEST_F(AsyncOptimTest, AsyncIsBitwiseReproducibleAcrossThreadCounts) {
  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.3;
  async.chunk = 64;
  const RunResult a = RunUpdates(tmp.Sub("rep_a"), async, kN, kSteps,
                                 /*compute_threads=*/1, /*cache_bytes=*/1 << 20);
  async.background_threads = 2;
  const RunResult b = RunUpdates(tmp.Sub("rep_b"), async, kN, kSteps,
                                 /*compute_threads=*/4, /*cache_bytes=*/1 << 20);
  EXPECT_GT(a.stats.deferred_epochs, 0);
  EXPECT_TRUE(BitwiseEqual(a.p32, b.p32));
  EXPECT_TRUE(BitwiseEqual(a.m, b.m));
  EXPECT_TRUE(BitwiseEqual(a.v, b.v));
  // The fixed partition boundaries also pin the hot/tail accounting.
  EXPECT_EQ(a.stats.hot_chunks, b.stats.hot_chunks);
  EXPECT_EQ(a.stats.tail_chunks, b.stats.tail_chunks);
}

TEST_F(AsyncOptimTest, StalenessBoundEveryFetchSeesTheFullyAppliedStep) {
  auto sync_engine = OpenEngine(tmp.Sub("stale_sync"));
  auto async_engine =
      OpenEngine(tmp.Sub("stale_async"), /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);

  const std::vector<float> init = RandomVec(kN, 21);
  ASSERT_TRUE(sync_adam.Register("w", init).ok());
  ASSERT_TRUE(async_adam.Register("w", init).ok());
  for (int step = 1; step <= kSteps; ++step) {
    const std::vector<Fp16> g = RandomGrads16(kN, 900 + step);
    ASSERT_TRUE(sync_adam.StepTensor("w", g).ok());
    ASSERT_TRUE(async_adam.StepTensor("w", g).ok());
    // Immediately after the step returns (tail epoch possibly still in
    // flight), a fetch must observe step N fully applied — never the
    // hot-only intermediate, never step N-1. First the trainer's
    // forward-stage path: drain gate, then a kParamFetch read of P32.
    std::vector<float> f_sync, f_async;
    for (auto [adam, out] : {std::pair{&sync_adam, &f_sync},
                             std::pair{&async_adam, &f_async}}) {
      ASSERT_TRUE(adam->DrainTensor("w").ok());
      Buffer p32;
      ASSERT_TRUE(adam->engine()
                      .Wait(adam->engine().SubmitRead(
                          FlowClass::kParamFetch, adam->P32Key("w"), &p32,
                          4 * kN))
                      .ok());
      out->resize(kN);
      std::memcpy(out->data(), p32.data(), 4 * kN);
    }
    EXPECT_TRUE(BitwiseEqual(f_sync, f_async)) << "step " << step;
    std::vector<float> m_sync, m_async;
    ASSERT_TRUE(sync_adam.FetchMasterParams("w", &m_sync).ok());
    ASSERT_TRUE(async_adam.FetchMasterParams("w", &m_async).ok());
    EXPECT_TRUE(BitwiseEqual(m_sync, m_async)) << "step " << step;
  }
  EXPECT_GT(async_adam.stats().deferred_epochs, 0);
  // Deferred traffic travelled on its own flow and is fully accounted.
  const TransferStats stats = (*async_engine)->stats();
  EXPECT_GT(stats.Flow(FlowClass::kDeferredState).bytes_written, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kDeferredState).errors, 0);
}

// The two hard cases of the "published" drain barrier: the DRAM tier
// is a bounded LRU, so a deferred epoch's freshly admitted blobs can be
// evicted (or, if oversized, never admitted) while their store writes
// are still in flight behind a throttled channel. Residency pinning —
// and the per-epoch durable fallback when a pin cannot be taken — must
// keep every post-drain read exact anyway.

TEST_F(AsyncOptimTest, ExactUnderDramEvictionPressure) {
  // Three tensors churning a tier that holds roughly ONE tensor's
  // 12 B/param write set, writes throttled so the deferred epochs'
  // store writes stay in flight while the foreground fetches.
  auto sync_engine = OpenEngine(tmp.Sub("evict_sync"));
  auto async_engine = OpenEngine(tmp.Sub("evict_async"), /*cache_bytes=*/8192,
                                 /*write_bandwidth=*/2e6);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);

  const std::vector<std::string> names = {"w0", "w1", "w2"};
  for (size_t t = 0; t < names.size(); ++t) {
    const std::vector<float> init = RandomVec(kN, 31 + t);
    ASSERT_TRUE(sync_adam.Register(names[t], init).ok());
    ASSERT_TRUE(async_adam.Register(names[t], init).ok());
  }
  for (int step = 1; step <= kSteps; ++step) {
    for (size_t t = 0; t < names.size(); ++t) {
      const std::vector<Fp16> g = RandomGrads16(kN, 700 + 10 * step + t);
      ASSERT_TRUE(sync_adam.StepTensor(names[t], g).ok());
      ASSERT_TRUE(async_adam.StepTensor(names[t], g).ok());
    }
    // Post-drain reads while sibling tensors' epochs thrash the tier:
    // never stale, never a mixed old/new P32-m-v set.
    for (const std::string& name : names) {
      std::vector<float> m_sync, m_async;
      ASSERT_TRUE(sync_adam.FetchMasterParams(name, &m_sync).ok());
      ASSERT_TRUE(async_adam.FetchMasterParams(name, &m_async).ok());
      EXPECT_TRUE(BitwiseEqual(m_sync, m_async))
          << name << " stale at step " << step;
    }
  }
  for (const std::string& name : names) {
    int64_t step_sync = 0, step_async = 0;
    Buffer p_s, m_s, v_s, p_a, m_a, v_a;
    ASSERT_TRUE(
        sync_adam.ExportStateBuffers(name, &step_sync, &p_s, &m_s, &v_s).ok());
    ASSERT_TRUE(
        async_adam.ExportStateBuffers(name, &step_async, &p_a, &m_a, &v_a)
            .ok());
    EXPECT_EQ(step_sync, step_async);
    EXPECT_TRUE(BitwiseEqual(Floats(p_s), Floats(p_a))) << name;
    EXPECT_TRUE(BitwiseEqual(Floats(m_s), Floats(m_a))) << name;
    EXPECT_TRUE(BitwiseEqual(Floats(v_s), Floats(v_a))) << name;
  }
  EXPECT_GT(async_adam.stats().deferred_epochs, 0);
  EXPECT_EQ((*async_engine)->stats().Flow(FlowClass::kDeferredState).errors,
            0);
}

TEST_F(AsyncOptimTest, OversizedTensorsFallBackToDurableDrain) {
  // The tier is smaller than a single P32 blob, so the written state is
  // never admitted and no pin can be taken: every epoch must harden its
  // drain barrier to "store writes resolved" — otherwise each fetch
  // would read step N-1 from behind the throttled write channel.
  auto sync_engine = OpenEngine(tmp.Sub("small_sync"));
  auto async_engine = OpenEngine(tmp.Sub("small_async"), /*cache_bytes=*/1024,
                                 /*write_bandwidth=*/2e6);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);
  const std::vector<float> init = RandomVec(kN, 61);
  ASSERT_TRUE(sync_adam.Register("w", init).ok());
  ASSERT_TRUE(async_adam.Register("w", init).ok());
  for (int step = 1; step <= kSteps; ++step) {
    const std::vector<Fp16> g = RandomGrads16(kN, 800 + step);
    ASSERT_TRUE(sync_adam.StepTensor("w", g).ok());
    ASSERT_TRUE(async_adam.StepTensor("w", g).ok());
    std::vector<float> m_sync, m_async;
    ASSERT_TRUE(sync_adam.FetchMasterParams("w", &m_sync).ok());
    ASSERT_TRUE(async_adam.FetchMasterParams("w", &m_async).ok());
    EXPECT_TRUE(BitwiseEqual(m_sync, m_async)) << "stale at step " << step;
  }
  const AsyncUpdateEngine::Stats stats = async_adam.stats();
  EXPECT_GT(stats.deferred_epochs, 0);
  // Deterministic here: a 4*kN-byte blob can never be pinned in a
  // 1 KiB tier, so every deferred epoch took the durable fallback.
  EXPECT_EQ(stats.durable_fallback_epochs, stats.deferred_epochs);
}

TEST_F(AsyncOptimTest, ErrorsSurfaceInAsyncModeToo) {
  auto engine = OpenEngine(tmp.Sub("err"));
  ASSERT_TRUE(engine.ok());
  AsyncUpdateOptions opts;
  opts.async = true;
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get(), opts);
  ASSERT_TRUE(ooc.Register("w", {1.0f}).ok());
  EXPECT_EQ(ooc.Register("w", {1.0f}).code(), StatusCode::kAlreadyExists);
  std::vector<Fp16> wrong(3);
  EXPECT_EQ(ooc.StepTensor("w", wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ooc.StepTensor("nope", wrong).code(), StatusCode::kNotFound);
  EXPECT_EQ(ooc.DrainTensor("nope").code(), StatusCode::kNotFound);
  EXPECT_TRUE(ooc.DrainTensor("w").ok());
  EXPECT_TRUE(ooc.DrainAll().ok());
}

TEST_F(AsyncOptimTest, FailedRegisterRollsBackSoTheNameStaysUsable) {
  // Every write attempt fails, so Register's initial state writes give
  // up after the retry budget. The failed registration must not leave a
  // half-initialized entry behind: retrying must NOT report
  // kAlreadyExists, and the name must stay unknown to every other call.
  TransferOptions topts;
  topts.dir = tmp.Sub("reg_rollback");
  topts.num_stripes = 2;
  topts.chunk_bytes = 4096;
  topts.fault.write_error_every = 1;
  auto engine = TransferEngine::Open(topts);
  ASSERT_TRUE(engine.ok());
  AsyncUpdateOptions opts;
  opts.async = true;
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get(), opts);
  EXPECT_EQ(ooc.Register("w", {1.0f, 2.0f}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(ooc.Register("w", {1.0f, 2.0f}).code(), StatusCode::kUnavailable);
  std::vector<Fp16> g(2);
  EXPECT_EQ(ooc.StepTensor("w", g).code(), StatusCode::kNotFound);
  EXPECT_EQ(ooc.DrainTensor("w").code(), StatusCode::kNotFound);
}

// ---------- Trainer integration ----------

ag::TinyGptConfig SmallConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 8;
  cfg.hidden_dim = 24;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

void MakeBatch(Rng& rng, int64_t n, int64_t vocab, std::vector<int64_t>* ids,
               std::vector<int64_t>* targets) {
  ids->resize(n);
  targets->resize(n);
  for (int64_t i = 0; i < n; ++i) {
    (*ids)[i] = static_cast<int64_t>(rng.NextBelow(vocab));
    (*targets)[i] = ((*ids)[i] * 3 + 1) % vocab;
  }
}

std::vector<std::vector<float>> ExportAllState(RatelTrainer& trainer,
                                               ag::TinyGpt& model) {
  std::vector<std::vector<float>> out;
  for (auto& [name, var] : model.parameters()) {
    int64_t step = 0;
    Buffer p32, m, v;
    EXPECT_TRUE(
        trainer.optimizer().ExportStateBuffers(name, &step, &p32, &m, &v).ok())
        << name;
    for (const Buffer* b : {&p32, &m, &v}) out.push_back(Floats(*b));
  }
  return out;
}

struct TrainerRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> state;
  StepStats last;
  TransferStats xfer;
};

TrainerRun TrainSmall(const std::string& dir, bool async, int steps) {
  ag::TinyGptConfig cfg = SmallConfig();
  ag::TinyGpt model(cfg, /*seed=*/44);
  TrainerOptions opts;
  opts.store_dir = dir;
  opts.host_cache_bytes = 1 << 20;
  opts.async_optimizer = async;
  opts.async_hot_fraction = 0.25;
  opts.async_partition_chunk = 64;
  auto trainer = RatelTrainer::Create(&model, opts);
  EXPECT_TRUE(trainer.ok()) << trainer.status().ToString();
  TrainerRun run;
  Rng rng(5);
  std::vector<int64_t> ids, targets;
  for (int step = 0; step < steps; ++step) {
    MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    auto loss = (*trainer)->TrainStep(ids, targets, /*batch=*/2);
    EXPECT_TRUE(loss.ok()) << loss.status().ToString();
    run.losses.push_back(*loss);
  }
  run.last = (*trainer)->last_step_stats();
  run.state = ExportAllState(**trainer, model);
  run.xfer = (*trainer)->transfer_stats();
  return run;
}

using AsyncOptimTrainerTest = TempDirTest;
TEST_F(AsyncOptimTrainerTest, AsyncTrainingIsBitwiseTheSyncTrajectory) {
  const TrainerRun sync = TrainSmall(tmp.Sub("tr_sync"), /*async=*/false, 4);
  const TrainerRun async = TrainSmall(tmp.Sub("tr_async"), /*async=*/true, 4);
  ASSERT_EQ(sync.losses.size(), async.losses.size());
  for (size_t i = 0; i < sync.losses.size(); ++i) {
    EXPECT_EQ(sync.losses[i], async.losses[i]) << "step " << i;
  }
  ASSERT_EQ(sync.state.size(), async.state.size());
  for (size_t i = 0; i < sync.state.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(sync.state[i], async.state[i]))
        << "state vector " << i << " diverged";
  }
  // The async run actually pipelined: per-step stats expose the split
  // and the engine carried real kDeferredState traffic.
  EXPECT_GT(async.last.deferred_epochs, 0);
  EXPECT_GT(async.last.tail_chunks, 0);
  EXPECT_GT(async.last.hot_chunks, 0);
  EXPECT_GT(async.xfer.Flow(FlowClass::kDeferredState).bytes_written, 0);
  // The sync run is untouched by the feature.
  EXPECT_EQ(sync.last.deferred_epochs, 0);
  EXPECT_EQ(sync.last.tail_chunks, 0);
  EXPECT_EQ(sync.xfer.Flow(FlowClass::kDeferredState).bytes_written, 0);
  EXPECT_EQ(sync.last.drain_stall_s, 0.0);
  EXPECT_EQ(sync.last.optimizer_overlap_s, 0.0);
}

TEST_F(AsyncOptimTrainerTest,
       CrashDuringPendingTailEpochRecoversViaCheckpoint) {
  constexpr int kTotalSteps = 5;
  constexpr int kCrashAfter = 3;
  const ag::TinyGptConfig cfg = SmallConfig();
  auto async_opts = [&](const std::string& tag) {
    TrainerOptions opts;
    opts.store_dir = tmp.Sub(tag);
    opts.host_cache_bytes = 1 << 20;
    opts.async_optimizer = true;
    opts.async_hot_fraction = 0.25;
    opts.async_partition_chunk = 64;
    return opts;
  };

  // Reference: the async run that never crashes.
  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_ref"));
    ASSERT_TRUE(trainer.ok());
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kTotalSteps; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      ref_losses.push_back(*loss);
    }
    ref_state = ExportAllState(**trainer, model);
  }

  // Crashing run: checkpoint after step 3 (SaveCheckpoint drains every
  // pending epoch first — the barrier under test), then train one more
  // step and die while its tail epochs may still be in flight. The
  // abandoned store is lost; only the v2 checkpoint survives.
  const std::string ckpt_dir = tmp.Sub("cr_ckpts");
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_crash"));
    ASSERT_TRUE(trainer.ok());
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter + 1; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      EXPECT_EQ(*loss, ref_losses[step]) << "pre-crash step " << step;
      if (step == kCrashAfter - 1) {
        ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
      }
    }
  }

  // Resumed run: fresh process, fresh store, async mode again.
  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_resume"));
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    }
    for (int step = kCrashAfter; step < kTotalSteps; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      resumed_losses.push_back(*loss);
    }
    resumed_state = ExportAllState(**trainer, model);
  }

  ASSERT_EQ(resumed_losses.size(),
            static_cast<size_t>(kTotalSteps - kCrashAfter));
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], ref_losses[kCrashAfter + i])
        << "post-resume step " << kCrashAfter + i;
  }
  ASSERT_EQ(resumed_state.size(), ref_state.size());
  for (size_t i = 0; i < ref_state.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(resumed_state[i], ref_state[i]))
        << "state vector " << i << " diverged";
  }
}

}  // namespace
}  // namespace ratel
