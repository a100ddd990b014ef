#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/activation_planner.h"
#include "core/hardware_profile.h"
#include "core/recompute_knapsack.h"
#include "hw/catalog.h"
#include "mem/tier_cache.h"
#include "model/transformer_config.h"
#include "runtime/checkpoint.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

// ---------- SyntheticDataset ----------

TEST(SyntheticDatasetTest, ShapesAndRanges) {
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 1);
  const TokenBatch b = ds.EvalBatch(4);
  EXPECT_EQ(b.ids.size(), 32u);
  EXPECT_EQ(b.targets.size(), 32u);
  for (int64_t id : b.ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 32);
  }
}

TEST(SyntheticDatasetTest, TasksAreWhatTheyClaim) {
  const int64_t v = 17, s = 6;
  for (SyntheticTask task :
       {SyntheticTask::kAffineMap, SyntheticTask::kCopyPrevious,
        SyntheticTask::kPairSum}) {
    SyntheticDataset ds(task, v, s, 7);
    const TokenBatch b = ds.EvalBatch(3);
    for (int64_t row = 0; row < 3; ++row) {
      const int64_t* ids = b.ids.data() + row * s;
      const int64_t* tgt = b.targets.data() + row * s;
      for (int64_t i = 0; i < s; ++i) {
        switch (task) {
          case SyntheticTask::kAffineMap:
            EXPECT_EQ(tgt[i], (ids[i] * 3 + 1) % v);
            break;
          case SyntheticTask::kCopyPrevious:
            EXPECT_EQ(tgt[i], ids[i > 0 ? i - 1 : 0]);
            break;
          case SyntheticTask::kPairSum:
            EXPECT_EQ(tgt[i], (ids[i] + (i > 0 ? ids[i - 1] : 0)) % v);
            break;
        }
      }
    }
  }
}

TEST(SyntheticDatasetTest, EvalBatchStableTrainStreamAdvances) {
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 3);
  const TokenBatch e1 = ds.EvalBatch(2);
  const TokenBatch t1 = ds.NextBatch(2);
  const TokenBatch t2 = ds.NextBatch(2);
  const TokenBatch e2 = ds.EvalBatch(2);
  EXPECT_EQ(e1.ids, e2.ids);   // eval stream independent of training draws
  EXPECT_NE(t1.ids, t2.ids);   // training stream advances
}

// ---------- Checkpoint ----------

using CheckpointTest = TempDirTest;
TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  TransferOptions xfer;
  xfer.dir = tmp.Sub("ckpt_store");
  xfer.num_stripes = 2;
  xfer.chunk_bytes = 4096;
  auto engine = TransferEngine::Open(xfer);
  ASSERT_TRUE(engine.ok());
  AsyncUpdateEngine adam(AdamConfig{}, engine->get());
  Rng rng(1);
  std::vector<float> w1(100), w2(37);
  for (auto& x : w1) x = static_cast<float>(rng.NextGaussian());
  for (auto& x : w2) x = static_cast<float>(rng.NextGaussian());
  ASSERT_TRUE(adam.Register("blk0/w", w1).ok());
  ASSERT_TRUE(adam.Register("blk1/w", w2).ok());

  const std::string path = tmp.Sub("model.ckpt");
  ASSERT_TRUE(checkpoint::Save(adam, {"blk0/w", "blk1/w"}, path).ok());
  // The master-copy readout travels on the checkpoint flow.
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kCheckpoint).bytes_read,
            4 * (100 + 37));
  auto entries = checkpoint::Load(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "blk0/w");
  EXPECT_EQ((*entries)[0].values, w1);
  EXPECT_EQ((*entries)[1].name, "blk1/w");
  EXPECT_EQ((*entries)[1].values, w2);
}

TEST_F(CheckpointTest, RejectsGarbageAndMissing) {
  EXPECT_EQ(checkpoint::Load(tmp.Sub("nonexistent")).status().code(),
            StatusCode::kNotFound);
  const std::string path = tmp.Sub("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTACKPT12345678", 1, 16, f);
    std::fclose(f);
  }
  EXPECT_EQ(checkpoint::Load(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, CorruptCountsFailAsDataLossWithoutAllocating) {
  // A v1 header claiming 2^32-1 entries, then one entry claiming 2^40
  // elements: both exceed the bytes in the file and must be rejected
  // before anything is reserved or resized.
  auto write_file = [](const std::string& path, uint32_t count,
                       uint64_t n) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t version = 1, name_len = 1;
    std::fwrite("RATELCKP", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fwrite("w", 1, 1, f);
    std::fwrite(&n, sizeof(n), 1, f);
    std::fclose(f);
  };
  const std::string path = tmp.Sub("corrupt_counts.ckpt");
  write_file(path, /*count=*/0xFFFFFFFFu, /*n=*/0);
  EXPECT_EQ(checkpoint::Load(path).status().code(), StatusCode::kDataLoss);
  write_file(path, /*count=*/1, /*n=*/uint64_t{1} << 40);
  EXPECT_EQ(checkpoint::Load(path).status().code(), StatusCode::kDataLoss);
}

// ---------- TierCache ----------

TEST(TierCacheTest, LruEvictionUnderPressure) {
  TierCache cache(2500);  // fits two 1000-byte blobs
  const Buffer data = Buffer::Allocate(1000);
  cache.AdmitBuffer("a", data);
  cache.AdmitBuffer("b", data);
  Buffer out;
  ASSERT_TRUE(cache.TryGetRef("a", 1000, &out));  // a is hot
  cache.AdmitBuffer("c", data);                    // evicts b
  EXPECT_GE(cache.stats().evictions, 1);
  const int64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.TryGetRef("a", 1000, &out));
  EXPECT_EQ(cache.stats().hits, hits_before + 1);  // a survived
  EXPECT_FALSE(cache.TryGetRef("b", 1000, &out));
  EXPECT_EQ(cache.stats().misses, 1);  // b was evicted
  EXPECT_LE(cache.stats().bytes_cached, 2500);
}

TEST(TierCacheTest, OversizedBlobBypassesCache) {
  TierCache cache(100);
  cache.AdmitBuffer("big", Buffer::Allocate(1000));
  EXPECT_EQ(cache.stats().bytes_cached, 0);
  Buffer out;
  EXPECT_FALSE(cache.TryGetRef("big", 1000, &out));  // store-only
}

TEST(TierCacheTest, InvalidateDropsDramCopyOnly) {
  TierCache cache(1 << 20);
  const Buffer data = Buffer::Allocate(64);
  cache.AdmitBuffer("k", data);
  cache.Invalidate("k");
  EXPECT_EQ(cache.stats().bytes_cached, 0);
  Buffer out;
  EXPECT_FALSE(cache.TryGetRef("k", 64, &out));
  EXPECT_EQ(data.use_count(), 1);  // the cache released its reference
}

// ---------- Recompute knapsack ----------

TEST(KnapsackTest, RespectsBudgetExactly) {
  auto cfg = LlmFromTableIV("6B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 4);
  std::vector<ActivationUnit> optional;
  for (const auto& u : wl.activation_units()) {
    if (!u.inter_block) optional.push_back(u);
  }
  int64_t total = 0;
  for (const auto& u : optional) total += u.bytes;
  for (double frac : {0.1, 0.33, 0.7}) {
    const int64_t budget = static_cast<int64_t>(frac * total);
    const KnapsackPlan dp = SolveRecomputeKnapsack(optional, budget);
    EXPECT_LE(dp.bytes, budget);
    // With uniform unit sizes, DP must match the greedy optimum.
    const KnapsackPlan greedy = GreedyRecomputeKnapsack(optional, budget);
    EXPECT_NEAR(dp.flops_saved, greedy.flops_saved,
                1e-6 * greedy.flops_saved + 1.0);
  }
}

TEST(KnapsackTest, BeatsGreedyOnAdversarialInstance) {
  // Greedy-by-density takes the dense small item and wastes capacity;
  // the DP picks the two larger items worth more in total.
  std::vector<ActivationUnit> units(3);
  units[0] = {"dense", 0, 6, 10.0, false};   // density 1.67
  units[1] = {"bulk1", 0, 5, 7.0, false};    // density 1.4
  units[2] = {"bulk2", 0, 5, 7.0, false};    // density 1.4
  const KnapsackPlan dp = SolveRecomputeKnapsack(units, 10);
  const KnapsackPlan greedy = GreedyRecomputeKnapsack(units, 10);
  EXPECT_DOUBLE_EQ(dp.flops_saved, 14.0);
  EXPECT_DOUBLE_EQ(greedy.flops_saved, 10.0);
  EXPECT_LE(dp.bytes, 10);
}

TEST(KnapsackTest, DegenerateInputs) {
  std::vector<ActivationUnit> units(1);
  units[0] = {"u", 0, 100, 5.0, false};
  EXPECT_TRUE(SolveRecomputeKnapsack(units, 0).chosen.empty());
  EXPECT_TRUE(SolveRecomputeKnapsack({}, 100).chosen.empty());
  EXPECT_TRUE(SolveRecomputeKnapsack(units, 99).chosen.empty());
  EXPECT_EQ(SolveRecomputeKnapsack(units, 100).chosen.size(), 1u);
}

// ---------- Planner order-policy ablation ----------

TEST(SwapOrderPolicyTest, BenefitOrderNeverWorse) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 12);
  for (int batch : {16, 32, 64}) {
    const WorkloadProfile wl = WorkloadProfile::Build(*cfg, batch);
    auto hw = HardwareProfiler(server).Profile(wl);
    ASSERT_TRUE(hw.ok());
    const CostModel cm(*hw, wl);
    const ActivationPlan benefit =
        ActivationPlanner(cm, SwapOrderPolicy::kOffloadingBenefit).Plan();
    const ActivationPlan naive =
        ActivationPlanner(cm, SwapOrderPolicy::kModelOrder).Plan();
    EXPECT_LE(benefit.predicted_iter_time,
              naive.predicted_iter_time * (1.0 + 1e-9))
        << "batch " << batch;
  }
}

// ---------- Activation spill through the real runtime ----------

TEST(ActivationSpillTest, CollectsIntermediateNodes) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  ag::TinyGpt model(cfg, 5);
  Rng rng(1);
  std::vector<int64_t> ids(8), targets(8);
  for (auto& v : ids) v = static_cast<int64_t>(rng.NextBelow(32));
  for (auto& v : targets) v = static_cast<int64_t>(rng.NextBelow(32));
  ag::Variable loss = model.Loss(ids, targets, 1);
  const auto nodes = ag::CollectIntermediateNodes(loss);
  EXPECT_GT(nodes.size(), 10u);
  std::set<const ag::Node*> unique;
  for (const auto& n : nodes) {
    EXPECT_FALSE(n->inputs.empty());  // no leaves
    unique.insert(n.get());
  }
  EXPECT_EQ(unique.size(), nodes.size());  // no duplicates
}

TEST(ActivationSpillTest, SpillPreservesTrainingNumerics) {
  const ScopedTempDir tmp("ext");
  auto run = [&](bool spill) {
    ag::TinyGptConfig cfg;
    cfg.vocab_size = 32;
    cfg.seq_len = 8;
    cfg.hidden_dim = 16;
    cfg.num_heads = 2;
    cfg.num_layers = 2;
    ag::TinyGpt model(cfg, 77);
    TrainerOptions opts;
    opts.spill_activations = spill;
    opts.store_dir = tmp.Sub(spill ? "spill_on" : "spill_off");
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok());
    SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 9);
    std::vector<float> final_w;
    for (int step = 0; step < 4; ++step) {
      const TokenBatch b = ds.NextBatch(2);
      auto loss = (*trainer)->TrainStep(b.ids, b.targets, 2);
      EXPECT_TRUE(loss.ok());
    }
    EXPECT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk0/w_qkv", &final_w)
            .ok());
    const int64_t spilled = (*trainer)->last_step_stats()
                                .activation_bytes_spilled;
    if (spill) {
      EXPECT_GT(spilled, 0);
    } else {
      EXPECT_EQ(spilled, 0);
    }
    return final_w;
  };
  EXPECT_EQ(run(false), run(true));  // bit-identical parameters
}

}  // namespace
}  // namespace ratel
