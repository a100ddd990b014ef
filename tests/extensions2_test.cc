#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/transformer.h"
#include "baselines/deepspeed.h"
#include "baselines/stronghold.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ratel_system.h"
#include "core/run_estimator.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "sim/engine.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

// ---------- New autograd ops ----------

TEST(ExtraOpsTest, SigmoidForwardAndGradient) {
  ag::Variable p = ag::Variable::Parameter({3}, {0.0f, 2.0f, -2.0f}, "p");
  ag::Variable y = ag::Sigmoid(p);
  EXPECT_NEAR(y.value()[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y.value()[1], 0.8808f, 1e-3f);
  ag::Variable loss = ag::Mean(y);
  loss.Backward();
  // d/dx sigmoid(0) / 3 = 0.25 / 3.
  EXPECT_NEAR(p.grad()[0], 0.25f / 3.0f, 1e-5f);
}

TEST(ExtraOpsTest, TanhGradientNumeric) {
  const float eps = 1e-3f;
  ag::Variable p = ag::Variable::Parameter({1}, {0.7f}, "p");
  ag::Variable loss = ag::Mean(ag::Tanh(p));
  loss.Backward();
  ag::Variable pp = ag::Variable::Parameter({1}, {0.7f + eps}, "p");
  ag::Variable pm = ag::Variable::Parameter({1}, {0.7f - eps}, "p");
  const float numeric = (ag::Mean(ag::Tanh(pp)).value()[0] -
                         ag::Mean(ag::Tanh(pm)).value()[0]) /
                        (2 * eps);
  EXPECT_NEAR(p.grad()[0], numeric, 1e-3f);
}

TEST(ExtraOpsTest, MeanIsUniformGradient) {
  ag::Variable p =
      ag::Variable::Parameter({4}, {1.0f, 2.0f, 3.0f, 4.0f}, "p");
  ag::Variable m = ag::Mean(p);
  EXPECT_FLOAT_EQ(m.value()[0], 2.5f);
  m.Backward();
  for (float g : p.grad()) EXPECT_FLOAT_EQ(g, 0.25f);
}

TEST(ExtraOpsTest, DropoutMaskDeterministicAndScaled) {
  std::vector<float> ones(1000, 1.0f);
  ag::Variable a = ag::Variable::Parameter({1000}, ones, "a");
  ag::Variable d1 = ag::Dropout(a, 0.4f, 99);
  ag::Variable d2 = ag::Dropout(a, 0.4f, 99);
  EXPECT_EQ(d1.value(), d2.value());  // same seed, same mask
  int zeros = 0;
  double sum = 0.0;
  for (float v : d1.value()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);  // inverted scaling
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.4, 0.06);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.08);  // expectation preserved
  // Gradient flows only through kept elements.
  ag::Variable loss = ag::Mean(d1);
  loss.Backward();
  for (size_t i = 0; i < 1000; ++i) {
    if (d1.value()[i] == 0.0f) {
      EXPECT_EQ(a.grad()[i], 0.0f);
    } else {
      EXPECT_GT(a.grad()[i], 0.0f);
    }
  }
}

TEST(ExtraOpsTest, DropoutRateZeroIsIdentity) {
  ag::Variable a = ag::Variable::Parameter({5}, {1, 2, 3, 4, 5}, "a");
  EXPECT_EQ(ag::Dropout(a, 0.0f, 1).value(), a.value());
}

TEST(ExtraOpsTest, AccuracyCountsArgmaxMatches) {
  // Rows: argmax = 2, 0, 1.
  ag::Variable logits = ag::Variable::Constant(
      {3, 3}, {0.f, 1.f, 5.f, 9.f, 1.f, 2.f, 0.f, 4.f, 1.f});
  EXPECT_DOUBLE_EQ(ag::Accuracy(logits, {2, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(ag::Accuracy(logits, {2, 1, 1}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ag::Accuracy(logits, {0, 1, 2}), 0.0);
}

TEST(ExtraOpsTest, LogitsConsistentWithLoss) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 16;
  cfg.seq_len = 4;
  cfg.hidden_dim = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  ag::TinyGpt model(cfg, 4);
  std::vector<int64_t> ids{1, 2, 3, 4}, targets{2, 3, 4, 5};
  ag::Variable logits = model.Logits(ids, 1);
  ag::Variable ce = ag::SoftmaxCrossEntropy(logits, targets);
  ag::Variable loss = model.Loss(ids, targets, 1);
  EXPECT_FLOAT_EQ(ce.value()[0], loss.value()[0]);
}

// ---------- Critical path ----------

TEST(CriticalPathTest, FollowsDependencyChain) {
  SimEngine eng;
  const ResourceId gpu = eng.AddResource("gpu", 1.0);
  const ResourceId link = eng.AddResource("link", 1.0);
  const TaskId a = eng.AddTask("a", gpu, 3.0);
  eng.AddTask("side", link, 1.0);  // off the critical path
  const TaskId b = eng.AddTask("b", link, 2.0, {a});
  const TaskId c = eng.AddTask("c", gpu, 4.0, {b});
  ASSERT_TRUE(eng.Run().ok());
  const auto path = eng.CriticalPath();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].name, "a");
  EXPECT_EQ(path[1].name, "b");
  EXPECT_EQ(path[2].name, "c");
  (void)c;
  // The path spans the makespan.
  EXPECT_NEAR(path.back().timing.finish, eng.Makespan(), 1e-9);
  EXPECT_NEAR(path.front().timing.start, 0.0, 1e-9);
}

TEST(CriticalPathTest, FollowsQueueBlocker) {
  // Two sequential tasks on one resource with no dependency: the second
  // waits in queue; the path must include both.
  SimEngine eng;
  const ResourceId r = eng.AddResource("r", 1.0);
  const TaskId a = eng.AddTask("first", r, 2.0);
  eng.AddTask("second", r, 2.0, {a});  // serialized
  ASSERT_TRUE(eng.Run().ok());
  const auto path = eng.CriticalPath();
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].name, "first");
  EXPECT_EQ(path[1].name, "second");
}

// ---------- StrongHold ----------

TEST(StrongHoldTest, CapacityMatchesZeroOffloadButFasterIteration) {
  StrongHoldSystem sh;
  ZeroOffloadSystem zo;
  const ServerConfig s =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  // Same DRAM-bound capacity class...
  EXPECT_NEAR(sh.MaxTrainableBillions(s, 1), zo.MaxTrainableBillions(s, 1),
              8.0);
  // ...but the overlapped optimizer beats the serialized one.
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  auto rs = sh.Run(*cfg, 32, s);
  auto rz = zo.Run(*cfg, 32, s);
  ASSERT_TRUE(rs.ok() && rz.ok());
  EXPECT_GT(rs->tokens_per_s, rz->tokens_per_s);
  // Ratel still wins: it also lifts the capacity ceiling via SSDs.
  auto rr = RatelSystem().Run(*cfg, 32, s);
  ASSERT_TRUE(rr.ok());
  EXPECT_GT(rr->tokens_per_s, rs->tokens_per_s * 0.95);
  EXPECT_GT(RatelSystem().MaxTrainableBillions(s, 1),
            sh.MaxTrainableBillions(s, 1));
}

// ---------- Run estimator ----------

TEST(RunEstimatorTest, ScalesLinearlyWithIterations) {
  const ServerConfig s =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 12);
  FineTuneRunEstimator est(s);
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  auto e1 = est.Estimate(*cfg, 32, 100);
  auto e2 = est.Estimate(*cfg, 32, 1000);
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_GT(e1->iteration_seconds, 0.0);
  EXPECT_NEAR(e1->profiling_seconds, 2.5 * e1->iteration_seconds, 1e-9);
  // 900 extra iterations at steady state.
  EXPECT_NEAR(e2->total_seconds - e1->total_seconds,
              900 * e1->iteration_seconds, 1e-6 * e2->total_seconds);
  EXPECT_NEAR(e2->total_ssd_writes_bytes / e1->total_ssd_writes_bytes, 10.0,
              1e-9);
}

TEST(RunEstimatorTest, WritesDominatedByModelStates) {
  const ServerConfig s =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  FineTuneRunEstimator est(s);
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  auto e = est.Estimate(*cfg, 32, 1);
  ASSERT_TRUE(e.ok());
  const double p = static_cast<double>(cfg->ParameterCount());
  EXPECT_GE(e->ssd_writes_per_iter_bytes, 14.0 * p);
  EXPECT_GE(e->ssd_reads_per_iter_bytes, 16.0 * p);
  EXPECT_GT(e->endurance_fraction, 0.0);
  EXPECT_LT(e->endurance_fraction, 1e-2);  // one iteration is harmless
  EXPECT_FALSE(FormatEstimate(*e).empty());
}

TEST(RunEstimatorTest, LongRunConsumesMeaningfulEndurance) {
  // 175B for 10k iterations writes ~24 PB: a real fraction of a 12-drive
  // array's 84 PB rating — the practical concern the endurance model
  // captures.
  const ServerConfig s =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  FineTuneRunEstimator est(s);
  auto cfg = LlmFromTableIV("175B");
  ASSERT_TRUE(cfg.ok());
  auto e = est.Estimate(*cfg, 8, 10000);
  ASSERT_TRUE(e.ok());
  EXPECT_GT(e->endurance_fraction, 0.1);
  EXPECT_LT(e->endurance_fraction, 1.0);
}

// ---------- Host tier cache in the trainer ----------

using TrainerCacheTest = TempDirTest;
TEST_F(TrainerCacheTest, CacheServesHotModelStates) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, 3);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("cache");
  opts.host_cache_bytes = 64 * kMiB;  // fits the whole tiny model
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 1);
  for (int step = 0; step < 3; ++step) {
    const TokenBatch b = ds.NextBatch(2);
    ASSERT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 2).ok());
  }
  const TransferStats xfer = (*trainer)->transfer_stats();
  EXPECT_GT(xfer.cache.hits, 0);
  EXPECT_GT(xfer.DramHitRate(), 0.9);  // everything hot after warmup
  // Per-flow view: with the whole model cached, almost every read was
  // served from DRAM rather than the store.
  int64_t from_cache = 0, read = 0;
  for (int i = 0; i < kNumFlowClasses; ++i) {
    from_cache += xfer.flow[i].bytes_from_cache;
    read += xfer.flow[i].bytes_read;
  }
  EXPECT_GT(from_cache, read / 2);
  // Reconciliation: reads not served by DRAM are exactly the store's.
  EXPECT_EQ(read - from_cache, xfer.store_bytes_read);
}

TEST_F(TrainerCacheTest, TrainingNumericsUnchangedByCache) {
  auto run = [&](int64_t cache_bytes) {
    ag::TinyGptConfig cfg;
    cfg.vocab_size = 32;
    cfg.seq_len = 8;
    cfg.hidden_dim = 16;
    cfg.num_heads = 2;
    cfg.num_layers = 1;
    ag::TinyGpt model(cfg, 8);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("cache_eq" + std::to_string(cache_bytes));
    opts.host_cache_bytes = cache_bytes;
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok());
    SyntheticDataset ds(SyntheticTask::kPairSum, 32, 8, 6);
    for (int step = 0; step < 3; ++step) {
      const TokenBatch b = ds.NextBatch(2);
      EXPECT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 2).ok());
    }
    std::vector<float> w;
    EXPECT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk0/w_up", &w).ok());
    return w;
  };
  EXPECT_EQ(run(0), run(32 * kMiB));
}

}  // namespace
}  // namespace ratel
