#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "runtime/async_update_engine.h"
#include "runtime/ratel_trainer.h"
#include "runtime/thread_pool.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

Result<std::unique_ptr<TransferEngine>> OpenEngine(const std::string& dir) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  return TransferEngine::Open(opts);
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 50);  // queued work ran, not dropped
  pool.Shutdown();                // second call is a no-op
  pool.Wait();                    // post-shutdown Wait returns immediately
}

TEST(ThreadPoolDeathTest, SubmitAfterShutdownIsCheckedFailure) {
  ThreadPool pool(2);
  pool.Shutdown();  // workers joined: death-test fork below is safe
  EXPECT_DEATH(pool.Submit([] {}), "after Shutdown");
}

TEST(ThreadPoolTest, WaitCoversTasksSubmittedWhileWaiting) {
  // Pinned semantics: a task submitted *from inside a running task*
  // extends Wait(); Wait returns only once the pool is fully idle.
  ThreadPool pool(2);
  std::atomic<bool> follow_up_ran{false};
  pool.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.Submit([&] { follow_up_ran.store(true); });
  });
  pool.Wait();
  EXPECT_TRUE(follow_up_ran.load());
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
    EXPECT_LT(b, e);
    EXPECT_LE(e - b, 7);
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.ParallelFor(5, 5, 4, [&](int64_t, int64_t) { FAIL(); });  // empty
}

TEST(ThreadPoolTest, ParallelForProgressesWhenAllWorkersAreBusy) {
  // The caller claims chunks itself, so a ParallelFor issued while every
  // worker is blocked still completes (the nested/concurrent case hit by
  // Adam handlers running on the trainer pipeline).
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 64, 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
}

TEST(TaskGroupTest, WaitCoversOnlyThisGroupsTasks) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> outsider_done{false};
  // An unrelated long-running task on the shared pool...
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    outsider_done.store(true);
  });
  // ...must not block the group's Wait.
  TaskGroup group(&pool);
  std::atomic<int> group_ran{0};
  group.Submit([&] { group_ran.fetch_add(1); });
  group.Submit([&] { group_ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(group_ran.load(), 2);
  EXPECT_FALSE(outsider_done.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_TRUE(outsider_done.load());
}

// ---------- AsyncUpdateEngine ----------

using OutOfCoreAdamTest = TempDirTest;
TEST_F(OutOfCoreAdamTest, MatchesInMemoryChunkedAdam) {
  auto engine = OpenEngine(tmp.Sub("ooc"));
  ASSERT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateEngine ooc(cfg, engine->get());
  ChunkedCpuAdam ram(cfg);

  Rng rng(3);
  std::vector<float> init(512);
  for (auto& v : init) v = static_cast<float>(rng.NextGaussian());
  ASSERT_TRUE(ooc.Register("w", init).ok());
  ASSERT_TRUE(ram.Register("w", init).ok());

  for (int step = 0; step < 5; ++step) {
    std::vector<Fp16> g(512);
    for (auto& v : g) {
      v = FloatToHalf(static_cast<float>(rng.NextGaussian() * 0.1));
    }
    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    ASSERT_TRUE(ram.StepTensor("w", g, nullptr).ok());
  }
  std::vector<float> master;
  ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
  auto ref = ram.MasterParams("w");
  ASSERT_TRUE(ref.ok());
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_FLOAT_EQ(master[i], (**ref)[i]) << i;
  }
}

TEST_F(OutOfCoreAdamTest, P16CopyTracksMaster) {
  // No fp16 copy is stored: consumers narrow P32 themselves. So the
  // stored P32 must be bitwise the in-memory reference's, and its
  // narrowing bitwise the fp16 copy the reference's fused kernel emits.
  auto engine = OpenEngine(tmp.Sub("p16"));
  ASSERT_TRUE(engine.ok());
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get());
  ChunkedCpuAdam ram(AdamConfig{});
  ASSERT_TRUE(ooc.Register("w", {0.25f, -0.75f}).ok());
  ASSERT_TRUE(ram.Register("w", {0.25f, -0.75f}).ok());
  std::vector<float> master;
  ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
  EXPECT_EQ(master, (std::vector<float>{0.25f, -0.75f}));
  std::vector<Fp16> g{FloatToHalf(1.0f), FloatToHalf(1.0f)};
  std::vector<Fp16> ref16;
  ASSERT_TRUE(ooc.StepTensor("w", g).ok());
  ASSERT_TRUE(ram.StepTensor("w", g, &ref16).ok());
  ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
  auto ref = ram.MasterParams("w");
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(master.size(), 2u);
  ASSERT_EQ(ref16.size(), 2u);
  for (size_t i = 0; i < master.size(); ++i) {
    EXPECT_EQ(std::memcmp(&master[i], &(**ref)[i], sizeof(float)), 0) << i;
    EXPECT_EQ(FloatToHalf(master[i]), ref16[i]) << i;
  }
  EXPECT_NE(master[0], 0.25f);  // the step really moved the weight
}

TEST_F(OutOfCoreAdamTest, TrafficAccountingMatchesTableII) {
  auto engine = OpenEngine(tmp.Sub("traffic"));
  ASSERT_TRUE(engine.ok());
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get());
  constexpr int64_t kN = 1000;
  ASSERT_TRUE(ooc.Register("w", std::vector<float>(kN, 0.1f)).ok());
  const TransferStats after_register = (*engine)->stats();
  // P32 + OS32 seed, all on the model-state flow (no fp16 copy).
  EXPECT_EQ(after_register.Flow(FlowClass::kGradState).bytes_written, 12 * kN);
  std::vector<Fp16> g(kN, FloatToHalf(0.01f));
  ASSERT_TRUE(ooc.StepTensor("w", g).ok());
  const TransferStats step =
      Delta((*engine)->stats(), after_register);
  // Per step: read 12 bytes/param (P32+OS32), write 12 (P32+OS32).
  EXPECT_EQ(step.Flow(FlowClass::kGradState).bytes_read, 12 * kN);
  EXPECT_EQ(step.Flow(FlowClass::kGradState).bytes_written, 12 * kN);
  // The forward fetch reads the P32 key on its own flow (4 bytes/param)
  // behind the tensor's drain gate, as the trainer's prefetch does.
  ASSERT_TRUE(ooc.DrainTensor("w").ok());
  Buffer p32;
  ASSERT_TRUE((*engine)
                  ->Wait((*engine)->SubmitRead(FlowClass::kParamFetch,
                                               ooc.P32Key("w"), &p32, 4 * kN))
                  .ok());
  const TransferStats fetched = (*engine)->stats();
  EXPECT_EQ(fetched.Flow(FlowClass::kParamFetch).bytes_read, 4 * kN);
  // No DRAM tier configured: per-flow totals reconcile with the store.
  EXPECT_EQ(fetched.TotalBytesWritten(), fetched.store_bytes_written);
  EXPECT_EQ(fetched.TotalBytesRead(), fetched.store_bytes_read);
}

TEST_F(OutOfCoreAdamTest, ErrorsSurface) {
  auto engine = OpenEngine(tmp.Sub("err"));
  ASSERT_TRUE(engine.ok());
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get());
  ASSERT_TRUE(ooc.Register("w", {1.0f}).ok());
  EXPECT_EQ(ooc.Register("w", {1.0f}).code(), StatusCode::kAlreadyExists);
  std::vector<Fp16> wrong(3);
  EXPECT_EQ(ooc.StepTensor("w", wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ooc.StepTensor("nope", wrong).code(), StatusCode::kNotFound);
}

// ---------- RatelTrainer end-to-end (the Fig. 4 integration) ----------

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
    // A learnable synthetic task: next token = (token * 3 + 1) mod V.
    (*ids)[i] = static_cast<int64_t>(rng.NextBelow(vocab));
    (*targets)[i] = ((*ids)[i] * 3 + 1) % vocab;
  }
}

using RatelTrainerTest = TempDirTest;
TEST_F(RatelTrainerTest, LossDecreasesOverSteps) {
  ag::TinyGpt model(SmallConfig(), 11);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("train");
  opts.adam.lr = 3e-3;
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();

  Rng rng(5);
  std::vector<int64_t> ids, targets;
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 25; ++step) {
    MakeBatch(rng, 2 * 8, 48, &ids, &targets);
    auto loss = (*trainer)->TrainStep(ids, targets, 2);
    ASSERT_TRUE(loss.ok()) << loss.status().ToString();
    if (step == 0) first = *loss;
    last = *loss;
  }
  EXPECT_LT(last, first * 0.8f) << first << " -> " << last;
}

TEST_F(RatelTrainerTest, GradModesConvergeToSameParameters) {
  // The three offloading pipelines must be numerically identical: the
  // schedule changes, the math does not.
  std::vector<std::vector<float>> finals;
  for (GradientOffloadMode mode :
       {GradientOffloadMode::kSerializedOptimizer,
        GradientOffloadMode::kNaiveActive,
        GradientOffloadMode::kOptimizedActive}) {
    ag::TinyGpt model(SmallConfig(), 22);
    TrainerOptions opts;
    opts.grad_mode = mode;
    opts.store_dir = tmp.Sub("mode" + std::to_string(static_cast<int>(mode)));
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    Rng rng(7);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < 5; ++step) {
      MakeBatch(rng, 2 * 8, 48, &ids, &targets);
      ASSERT_TRUE((*trainer)->TrainStep(ids, targets, 2).ok());
    }
    std::vector<float> w;
    ASSERT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk0/w_qkv", &w).ok());
    finals.push_back(std::move(w));
  }
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

TEST_F(RatelTrainerTest, StepStatsAccountTraffic) {
  ag::TinyGpt model(SmallConfig(), 33);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("stats");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  Rng rng(9);
  std::vector<int64_t> ids, targets;
  MakeBatch(rng, 8, 48, &ids, &targets);
  const TransferStats before = (*trainer)->transfer_stats();
  ASSERT_TRUE((*trainer)->TrainStep(ids, targets, 1).ok());
  const StepStats& s = (*trainer)->last_step_stats();
  const TransferStats step = Delta((*trainer)->transfer_stats(), before);
  const int64_t p = model.NumParameters();
  // Reads: 4P of P32 fetch + 12P of optimizer state per step; writes:
  // 12P of optimizer state (no fp16 copy is stored).
  EXPECT_EQ(s.bytes_read, 16 * p);
  EXPECT_EQ(s.bytes_written, 12 * p);
  // The same traffic, broken down by flow class.
  EXPECT_EQ(step.Flow(FlowClass::kParamFetch).bytes_read, 4 * p);
  EXPECT_EQ(step.Flow(FlowClass::kParamFetch).bytes_written, 0);
  EXPECT_EQ(step.Flow(FlowClass::kGradState).bytes_read, 12 * p);
  EXPECT_EQ(step.Flow(FlowClass::kGradState).bytes_written, 12 * p);
  EXPECT_EQ(step.Flow(FlowClass::kActivationSpill).bytes_read, 0);
  EXPECT_EQ(step.Flow(FlowClass::kCheckpoint).bytes_read, 0);
  EXPECT_GT(s.total_s, 0.0);
  EXPECT_GE(s.total_s + 1e-9, s.fetch_s + s.compute_s + s.optimizer_s - 1e-6);
}

TEST_F(RatelTrainerTest, ForwardWeightsAreNarrowedMasterCopies) {
  // No fp16 copy is stored: each step's fetch reads P32 and narrows it
  // on the host. The weights the forward pass ran on must be bitwise
  // HalfToFloat(FloatToHalf(master)) of the master copy at fetch time —
  // with the optimizer sync or async, with or without a DRAM tier.
  for (const bool async : {false, true}) {
    for (const int64_t cache_bytes : {int64_t{0}, int64_t{8} << 20}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") +
                   (cache_bytes > 0 ? " + DRAM tier" : " no tier"));
      ag::TinyGpt model(SmallConfig(), 35);
      TrainerOptions opts;
      opts.store_dir = tmp.Sub(std::string("narrow_") + (async ? "a" : "s") +
                               (cache_bytes > 0 ? "c" : "n"));
      opts.host_cache_bytes = cache_bytes;
      opts.async_optimizer = async;
      opts.async_partition_chunk = 64;
      auto trainer = RatelTrainer::Create(&model, opts);
      ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
      Rng rng(13);
      std::vector<int64_t> ids, targets;
      for (int step = 0; step < 3; ++step) {
        std::vector<std::vector<float>> masters;
        for (const auto& [name, var] : model.parameters()) {
          std::vector<float> master;
          ASSERT_TRUE(
              (*trainer)->optimizer().FetchMasterParams(name, &master).ok());
          masters.push_back(std::move(master));
        }
        MakeBatch(rng, 2 * 8, 48, &ids, &targets);
        ASSERT_TRUE((*trainer)->TrainStep(ids, targets, 2).ok());
        size_t t = 0;
        for (const auto& [name, var] : model.parameters()) {
          const std::vector<float>& weights = var.value();
          const std::vector<float>& master = masters[t++];
          ASSERT_EQ(weights.size(), master.size()) << name;
          for (size_t i = 0; i < weights.size(); ++i) {
            const float want = HalfToFloat(FloatToHalf(master[i]));
            ASSERT_EQ(std::memcmp(&weights[i], &want, sizeof(float)), 0)
                << name << "[" << i << "] at step " << step;
          }
        }
      }
    }
  }
}

TEST_F(RatelTrainerTest, ThrottledStoreFavorsOptimizedPipeline) {
  // With a slow emulated SSD, the optimized pipeline (3 workers
  // overlapping handlers) beats the naive serial handler wall-clock:
  // with enough I/O workers to put the read and the write channel to
  // sleep concurrently, pipelined handlers overlap the two directions
  // while the naive mode strictly alternates them per tensor. Two
  // trials per mode (best-of) absorb scheduler noise on a loaded host.
  auto run = [&](GradientOffloadMode mode, int trial) {
    ag::TinyGpt model(SmallConfig(), 44);
    TrainerOptions opts;
    opts.grad_mode = mode;
    opts.store_dir = tmp.Sub("thr" + std::to_string(static_cast<int>(mode)) +
                             "_" + std::to_string(trial));
    opts.ssd_read_bandwidth = 8e6;  // 8 MB/s emulated slow array
    opts.ssd_write_bandwidth = 8e6;
    opts.io_workers = 4;
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok());
    Rng rng(13);
    std::vector<int64_t> ids, targets;
    MakeBatch(rng, 8, 48, &ids, &targets);
    EXPECT_TRUE((*trainer)->TrainStep(ids, targets, 1).ok());
    return (*trainer)->last_step_stats().optimizer_s;
  };
  auto best = [&](GradientOffloadMode mode) {
    return std::min(run(mode, 0), run(mode, 1));
  };
  const double naive = best(GradientOffloadMode::kNaiveActive);
  const double optimized = best(GradientOffloadMode::kOptimizedActive);
  EXPECT_LT(optimized, naive);
}

}  // namespace
}  // namespace ratel
