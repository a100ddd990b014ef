// Crash-consistency + recovery-determinism suite (ctest labels:
// fault, determinism, simd).
//
// Two layers of guarantee, both proven here:
//   1. Checkpoint files are *verifiable*: every shard carries a
//      CRC-32C, so truncation (a torn write at the filesystem level)
//      or bit rot surfaces as kDataLoss at load — never as a silent
//      resume from garbage — and LoadLatest falls back to the newest
//      checkpoint that still verifies.
//   2. Recovery is *bitwise-deterministic*: a run that crashes, falls
//      back past a torn checkpoint, and resumes produces exactly the
//      losses and master parameters of a run that never crashed — also
//      when it resumes under the other RATEL_SIMD mode.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/ratel_trainer.h"
#include "simd/simd.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

std::vector<float> Floats(const Buffer& b) {
  std::vector<float> out(b.size() / sizeof(float));
  if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

checkpoint::TensorState MakeTensor(const std::string& name, int64_t n,
                                   uint64_t seed, int64_t step) {
  Rng rng(seed);
  checkpoint::TensorState t;
  t.name = name;
  t.adam_step = step;
  t.p32.resize(n);
  t.m.resize(n);
  t.v.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    t.p32[i] = static_cast<float>(rng.NextGaussian());
    t.m[i] = static_cast<float>(rng.NextGaussian()) * 0.1f;
    t.v[i] = static_cast<float>(rng.NextGaussian()) *
             static_cast<float>(rng.NextGaussian());
  }
  return t;
}

checkpoint::TrainState MakeState(int64_t step) {
  checkpoint::TrainState state;
  state.step = step;
  state.tensors.push_back(MakeTensor("wte", 257, 1 + step, step));
  state.tensors.push_back(MakeTensor("block0/attn.w", 96, 2 + step, step));
  state.tensors.push_back(MakeTensor("ln_f.bias", 1, 3 + step, step));
  return state;
}

// The save calls take views; `state` must outlive the returned view.
checkpoint::TrainStateView ViewOf(const checkpoint::TrainState& state) {
  checkpoint::TrainStateView view;
  view.step = state.step;
  for (const checkpoint::TensorState& t : state.tensors) {
    view.tensors.push_back({t.name, t.adam_step, t.p32.data(), t.m.data(),
                            t.v.data(), static_cast<int64_t>(t.p32.size())});
  }
  return view;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

void TruncateFile(const std::string& path, int64_t drop_bytes) {
  const int64_t size = FileSize(path);
  ASSERT_GT(size, drop_bytes);
  ASSERT_EQ(::truncate(path.c_str(), size - drop_bytes), 0);
}

uint64_t ReadU64(const std::string& path, int64_t offset) {
  uint64_t v = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return v;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(&v, sizeof(v), 1, f) != 1) {
    v = 0;
  }
  std::fclose(f);
  return v;
}

void FlipByte(const std::string& path, int64_t offset, int mask = 0x40) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ mask, f);
  ASSERT_EQ(std::fclose(f), 0);
}

// ---------- Checkpoint v2 format ----------

using CheckpointV2Test = TempDirTest;
TEST_F(CheckpointV2Test, SaveStateLoadStateRoundTripsBitwise) {
  const std::string dir = tmp.Sub("rt");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  const checkpoint::TrainState state = MakeState(42);
  ASSERT_TRUE(checkpoint::SaveStateViews(ViewOf(state), path).ok());
  // The shadow file was renamed away: only the published name remains.
  EXPECT_EQ(FileSize(path + ".tmp"), -1);

  auto loaded = checkpoint::LoadState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 42);
  ASSERT_EQ(loaded->tensors.size(), state.tensors.size());
  for (size_t i = 0; i < state.tensors.size(); ++i) {
    EXPECT_EQ(loaded->tensors[i].name, state.tensors[i].name);
    EXPECT_EQ(loaded->tensors[i].adam_step, state.tensors[i].adam_step);
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].p32, state.tensors[i].p32));
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].m, state.tensors[i].m));
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].v, state.tensors[i].v));
  }
}

TEST_F(CheckpointV2Test, TruncatedFileIsDetectedAsDataLoss) {
  const std::string dir = tmp.Sub("torn");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveStateViews(ViewOf(MakeState(7)), path).ok());
  TruncateFile(path, /*drop_bytes=*/33);
  const auto loaded = checkpoint::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointV2Test, CorruptedPayloadByteFailsTheShardChecksum) {
  const std::string dir = tmp.Sub("rot");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveStateViews(ViewOf(MakeState(7)), path).ok());
  // Flip one bit in the middle of a tensor payload: the size and
  // structure still parse, only the CRC can catch it.
  FlipByte(path, FileSize(path) / 2);
  const auto loaded = checkpoint::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointV2Test, BadMagicIsDataLossNotAParseAccident) {
  const std::string dir = tmp.Sub("magic");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveStateViews(ViewOf(MakeState(1)), path).ok());
  FlipByte(path, 0);
  EXPECT_EQ(checkpoint::LoadState(path).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointV2Test, LoadLatestFallsBackPastATornNewestEpoch) {
  const std::string dir = tmp.Sub("fallback");
  ASSERT_TRUE(checkpoint::SaveVersionedViews(dir, ViewOf(MakeState(3))).ok());
  ASSERT_TRUE(checkpoint::SaveVersionedViews(dir, ViewOf(MakeState(5))).ok());
  ASSERT_TRUE(checkpoint::SaveVersionedViews(dir, ViewOf(MakeState(9))).ok());
  // Power cut "during" epoch 9: the newest file is torn. LoadLatest
  // must detect it via checksums and resume from epoch 5 instead.
  TruncateFile(checkpoint::VersionedPath(dir, 9), /*drop_bytes=*/100);

  auto latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->step, 5);

  // Tear epoch 5 too: fall all the way back to epoch 3.
  TruncateFile(checkpoint::VersionedPath(dir, 5), /*drop_bytes=*/1);
  latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->step, 3);
}

// A flipped high bit in a shard's element count must fail the shard as
// kDataLoss before anything is sized from it (here n grows by 2^33, about
// 100 GB of p32, m and v), so LoadLatest falls back to the older epoch.
TEST_F(CheckpointV2Test, CorruptElementCountFallsBackToPreviousEpoch) {
  const std::string dir = tmp.Sub("bign");
  ASSERT_TRUE(checkpoint::SaveVersionedViews(dir, ViewOf(MakeState(0))).ok());
  ASSERT_TRUE(checkpoint::SaveVersionedViews(dir, ViewOf(MakeState(1))).ok());
  // Magic 8, version 4, step 8, count 4, header CRC 4, then the first
  // shard's name length 4 and name "wte" 3: its n is the u64 at byte 35.
  const std::string path = checkpoint::VersionedPath(dir, 1);
  constexpr int64_t kNOffset = 35;
  ASSERT_EQ(ReadU64(path, kNOffset), 257u);
  FlipByte(path, kNOffset + 4, /*mask=*/0x02);  // bit 33 (little-endian)
  ASSERT_EQ(ReadU64(path, kNOffset), 257u + (uint64_t{1} << 33));

  const auto loaded = checkpoint::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  const auto latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->step, 0);
}

TEST_F(CheckpointV2Test, LoadLatestOnEmptyOrMissingDirIsNotFound) {
  const std::string dir = tmp.Sub("empty");
  EXPECT_EQ(checkpoint::LoadLatest(dir).status().code(),
            StatusCode::kNotFound);
  // A stale dir left by a pid-recycled earlier run is fine: the test
  // only needs the directory to exist and hold no checkpoints.
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  EXPECT_EQ(checkpoint::LoadLatest(dir).status().code(),
            StatusCode::kNotFound);
}

// ---------- Trainer crash/recovery determinism ----------

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

// Master optimizer state of every parameter, in registration order.
std::vector<std::vector<float>> ExportAllP32(RatelTrainer& trainer,
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

constexpr int kTotalSteps = 6;
constexpr int kCrashAfter = 3;  // last durable checkpoint
constexpr int64_t kBatch = 2;

// Trains batches [from, to) of the fixed seed-5 data stream.
void TrainBatches(RatelTrainer& trainer, const ag::TinyGptConfig& cfg,
                  int from, int to, std::vector<float>* losses) {
  Rng rng(5);
  std::vector<int64_t> ids, targets;
  for (int step = 0; step < to; ++step) {
    MakeBatch(rng, kBatch * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    if (step < from) continue;
    auto loss = trainer.TrainStep(ids, targets, kBatch);
    ASSERT_TRUE(loss.ok()) << loss.status().ToString();
    losses->push_back(*loss);
  }
}

// The losses after the resume point and the full optimizer state (P32 +
// both moments, every tensor) equal the uninterrupted run's bitwise: the
// crash is invisible to the training trajectory.
void ExpectSameTrajectory(const std::vector<float>& resumed_losses,
                          const std::vector<std::vector<float>>& resumed_state,
                          const std::vector<float>& ref_losses,
                          const std::vector<std::vector<float>>& ref_state) {
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

using CrashRecoveryTest = TempDirTest;
TEST_F(CrashRecoveryTest, ResumeAfterTornCheckpointIsBitwiseIdentical) {
  const ag::TinyGptConfig cfg = SmallConfig();

  // Reference: the run that never crashes.
  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("ref_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
    TrainBatches(**trainer, cfg, 0, kTotalSteps, &ref_losses);
    EXPECT_EQ((*trainer)->global_step(), kTotalSteps);
    ref_state = ExportAllP32(**trainer, model);
  }

  // Crashing run: checkpoint after step 3, train one more step whose
  // checkpoint is torn by the "power cut", then die.
  const std::string ckpt_dir = tmp.Sub("ckpts");
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("crash_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    std::vector<float> losses;
    TrainBatches(**trainer, cfg, 0, kCrashAfter, &losses);
    ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
    TrainBatches(**trainer, cfg, kCrashAfter, kCrashAfter + 1, &losses);
    ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
    // The pre-crash losses already match the reference.
    ASSERT_EQ(losses.size(), static_cast<size_t>(kCrashAfter + 1));
    for (size_t i = 0; i < losses.size(); ++i) {
      EXPECT_EQ(losses[i], ref_losses[i]) << "pre-crash step " << i;
    }
  }
  // The step-4 checkpoint is torn; only the step-3 epoch verifies.
  TruncateFile(checkpoint::VersionedPath(ckpt_dir, kCrashAfter + 1),
               /*drop_bytes=*/64);

  // Resumed run: a fresh process (fresh model, fresh store) restores
  // the newest *valid* checkpoint and replays the remaining batches.
  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("resume_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);  // fell back past the torn epoch
    EXPECT_EQ((*trainer)->global_step(), kCrashAfter);
    TrainBatches(**trainer, cfg, kCrashAfter, kTotalSteps, &resumed_losses);
    EXPECT_EQ((*trainer)->global_step(), kTotalSteps);
    resumed_state = ExportAllP32(**trainer, model);
  }

  // Post-resume losses are bitwise what the uninterrupted run produced.
  ExpectSameTrajectory(resumed_losses, resumed_state, ref_losses, ref_state);
}

// Activation spill with write-behind: each step's fp16 swap-outs are
// still in flight when the next step (or a checkpoint) starts. A
// checkpoint saved between two spilled steps must capture exactly the
// uninterrupted state, and a fresh trainer resumed from it must train on
// bitwise like the run that never stopped.
TEST_F(CrashRecoveryTest, CheckpointBetweenSpilledStepsResumesBitwise) {
  const ag::TinyGptConfig cfg = SmallConfig();
  auto spill_options = [this](const std::string& tag) {
    TrainerOptions opts;
    opts.store_dir = tmp.Sub(tag);
    opts.spill_activations = true;
    opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
    opts.async_optimizer = true;
    // A slow write channel keeps each step's swap-outs unresolved into
    // the next step and across SaveCheckpoint.
    opts.ssd_write_bandwidth = 4e6;
    return opts;
  };

  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, spill_options("spill_ref"));
    ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
    TrainBatches(**trainer, cfg, 0, kTotalSteps, &ref_losses);
    ref_state = ExportAllP32(**trainer, model);
  }

  const std::string ckpt_dir = tmp.Sub("spill_ckpts");
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, spill_options("spill_save"));
    ASSERT_TRUE(trainer.ok());
    std::vector<float> losses;
    TrainBatches(**trainer, cfg, 0, kCrashAfter, &losses);
    EXPECT_GT((*trainer)->last_step_stats().activation_bytes_spilled, 0);
    ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
    // Saving mid-run does not perturb the run itself.
    TrainBatches(**trainer, cfg, kCrashAfter, kTotalSteps, &losses);
    ASSERT_EQ(losses.size(), ref_losses.size());
    for (size_t i = 0; i < losses.size(); ++i) {
      EXPECT_EQ(losses[i], ref_losses[i]) << "step " << i;
    }
  }

  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, spill_options("spill_resume"));
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);
    TrainBatches(**trainer, cfg, kCrashAfter, kTotalSteps, &resumed_losses);
    resumed_state = ExportAllP32(**trainer, model);
  }

  ExpectSameTrajectory(resumed_losses, resumed_state, ref_losses, ref_state);
}

// Restores the process-wide SIMD mode on scope exit.
class ScopedSimdMode {
 public:
  ScopedSimdMode() : saved_(simd::ActiveMode()) {}
  ~ScopedSimdMode() { simd::SetMode(saved_); }

 private:
  simd::Mode saved_;
};

// Resumed ≡ uninterrupted across SIMD modes: a checkpoint saved under
// avx2 restores under scalar and trains on bitwise like the
// uninterrupted avx2 run (ctest labels: fault, determinism, simd).
TEST_F(CrashRecoveryTest, SaveUnderAvx2ResumeUnderScalarIsBitwise) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const ScopedSimdMode restore_mode;
  const ag::TinyGptConfig cfg = SmallConfig();
  const std::string ckpt_dir = tmp.Sub("xmode_ckpts");
  ASSERT_TRUE(simd::SetMode(simd::Mode::kAvx2));

  // Reference: the uninterrupted avx2 run.
  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("xmode_ref_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
    TrainBatches(**trainer, cfg, 0, kTotalSteps, &ref_losses);
    ref_state = ExportAllP32(**trainer, model);
  }

  // Under avx2: train to the checkpoint and save.
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("xmode_save_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    std::vector<float> losses;
    TrainBatches(**trainer, cfg, 0, kCrashAfter, &losses);
    ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
  }

  // Under scalar: restore and train on.
  ASSERT_TRUE(simd::SetMode(simd::Mode::kScalar));
  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("xmode_resume_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);
    TrainBatches(**trainer, cfg, kCrashAfter, kTotalSteps, &resumed_losses);
    resumed_state = ExportAllP32(**trainer, model);
  }

  ExpectSameTrajectory(resumed_losses, resumed_state, ref_losses, ref_state);
}

TEST_F(CrashRecoveryTest, RestoreWithoutAnyValidCheckpointIsNotFound) {
  ag::TinyGpt model(SmallConfig(), /*seed=*/3);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("nf_store");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  const auto resumed =
      (*trainer)->RestoreLatestCheckpoint(tmp.Sub("nf_ckpts"));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*trainer)->global_step(), 0);
}

}  // namespace
}  // namespace ratel
