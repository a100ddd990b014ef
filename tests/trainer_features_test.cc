#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "common/units.h"
#include "hw/catalog.h"
#include "optim/cpu_adam.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

ag::TinyGptConfig SmallConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

// ---------- Flow trace capture ----------

using FlowTraceTest = TempDirTest;
TEST_F(FlowTraceTest, CapturesMonotonicPerFlowCounters) {
  ag::TinyGpt model(SmallConfig(), 61);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("flowtrace");
  opts.capture_flow_trace = true;
  opts.spill_activations = true;
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) {
    const TokenBatch b = ds.NextBatch(2);
    ASSERT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 2).ok());
  }
  const ScheduleTrace& trace = (*trainer)->flow_trace();
  ASSERT_FALSE(trace.counters().empty());
  // Two series (bytes_read, bytes_written) per flow class per step.
  EXPECT_EQ(trace.counters().size(),
            static_cast<size_t>(kSteps * kNumFlowClasses * 2));
  // Cumulative counters never decrease and timestamps advance.
  std::map<std::string, double> last_value;
  double last_time = -1.0;
  for (const auto& c : trace.counters()) {
    auto [it, inserted] = last_value.emplace(c.name, c.value);
    if (!inserted) {
      EXPECT_GE(c.value, it->second) << c.name;
      it->second = c.value;
    }
    EXPECT_GE(c.time, last_time - 1e-12);
    last_time = std::max(last_time, c.time);
  }
  // The param-fetch and grad-state flows moved real bytes.
  EXPECT_GT(last_value["xfer/param_fetch/bytes_read"], 0.0);
  EXPECT_GT(last_value["xfer/grad_state/bytes_written"], 0.0);
  EXPECT_GT(last_value["xfer/activation_spill/bytes_written"], 0.0);
  // The trace exports as valid Chrome JSON with counter events.
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("xfer/param_fetch/bytes_read"), std::string::npos);
}

TEST_F(FlowTraceTest, DisabledByDefault) {
  ag::TinyGpt model(SmallConfig(), 62);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("noflowtrace");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const TokenBatch b = ds.NextBatch(2);
  ASSERT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 2).ok());
  EXPECT_TRUE((*trainer)->flow_trace().counters().empty());
}

// ---------- Gradient accumulation ----------

using GradAccumulationTest = TempDirTest;
TEST_F(GradAccumulationTest, MatchesSingleLargeBatch) {
  // One step over batch 4 with accumulation 2 must match accumulation 1
  // bit-for-bit: the micro-batch losses are means over equal slices, so
  // averaged gradients coincide.
  auto run = [&](int accum) {
    ag::TinyGpt model(SmallConfig(), 55);
    TrainerOptions opts;
    opts.grad_accumulation_steps = accum;
    opts.store_dir = tmp.Sub("accum" + std::to_string(accum));
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok());
    SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
    const TokenBatch b = ds.EvalBatch(4);
    EXPECT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 4).ok());
    std::vector<float> w;
    EXPECT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk1/w_down", &w).ok());
    return w;
  };
  const std::vector<float> w1 = run(1);
  const std::vector<float> w2 = run(2);
  ASSERT_EQ(w1.size(), w2.size());
  // Gradients differ only by fp32 summation order inside the CE mean;
  // allow tiny drift.
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_NEAR(w1[i], w2[i], 2e-4f) << i;
  }
}

TEST_F(GradAccumulationTest, RejectsIndivisibleBatch) {
  ag::TinyGpt model(SmallConfig(), 56);
  TrainerOptions opts;
  opts.grad_accumulation_steps = 3;
  opts.store_dir = tmp.Sub("indivisible");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const TokenBatch b = ds.EvalBatch(4);
  EXPECT_EQ((*trainer)->TrainStep(b.ids, b.targets, 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GradAccumulationTest, LossStillDecreases) {
  ag::TinyGpt model(SmallConfig(), 57);
  TrainerOptions opts;
  opts.grad_accumulation_steps = 2;
  opts.adam.lr = 3e-3;
  opts.store_dir = tmp.Sub("accum_train");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 13);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 20; ++step) {
    const TokenBatch b = ds.NextBatch(4);
    auto loss = (*trainer)->TrainStep(b.ids, b.targets, 4);
    ASSERT_TRUE(loss.ok());
    if (step == 0) first = *loss;
    last = *loss;
  }
  EXPECT_LT(last, first);
}

// ---------- Mixed-precision loss scaling ----------

TEST(LossScalingTest, KernelUnscaleInvertsScale) {
  CpuAdamKernel kernel(AdamConfig{});
  constexpr int64_t kN = 128;
  Rng rng(3);
  std::vector<float> grads(kN);
  for (auto& g : grads) g = static_cast<float>(rng.NextGaussian()) * 0.01f;
  // Path A: unscaled fp16 grads.
  std::vector<Fp16> ga(kN);
  for (int64_t i = 0; i < kN; ++i) ga[i] = FloatToHalf(grads[i]);
  std::vector<float> pa(kN, 1.0f), ma(kN, 0.0f), va(kN, 0.0f);
  kernel.StepFp16Grads(1, kN, ga.data(), pa.data(), ma.data(), va.data(),
                       nullptr);
  // Path B: grads scaled by 1024 before the cast, unscaled in the kernel.
  std::vector<Fp16> gb(kN);
  for (int64_t i = 0; i < kN; ++i) gb[i] = FloatToHalf(grads[i] * 1024.0f);
  std::vector<float> pb(kN, 1.0f), mb(kN, 0.0f), vb(kN, 0.0f);
  kernel.StepFp16Grads(1, kN, gb.data(), pb.data(), mb.data(), vb.data(),
                       nullptr, 1.0f / 1024.0f);
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(pa[i], pb[i], 2e-5f) << i;
  }
}

TEST(LossScalingTest, RescuesSubUnderflowGradients) {
  // Gradients below the smallest fp16 subnormal (~6e-8) vanish without
  // scaling but survive with a 2^14 scale.
  CpuAdamKernel kernel(AdamConfig{});
  const float tiny = 2e-8f;  // below half of the smallest fp16 subnormal
  std::vector<Fp16> unscaled{FloatToHalf(tiny)};
  EXPECT_EQ(HalfToFloat(unscaled[0]), 0.0f);  // lost
  const float scale = 16384.0f;
  std::vector<Fp16> scaled{FloatToHalf(tiny * scale)};
  std::vector<float> p{1.0f}, m{0.0f}, v{0.0f};
  kernel.StepFp16Grads(1, 1, scaled.data(), p.data(), m.data(), v.data(),
                       nullptr, 1.0f / scale);
  EXPECT_NE(m[0], 0.0f);  // the moment saw the gradient
  EXPECT_NEAR(m[0], 0.1f * tiny, 0.02f * tiny);
}

TEST(LossScalingTest, TrainerScaledRunMatchesUnscaled) {
  const ScopedTempDir tmp("tf");
  // With well-conditioned gradients, training with loss_scale 256 must
  // land near the unscaled run (scaling is numerically transparent).
  auto run = [&](float scale) {
    ag::TinyGpt model(SmallConfig(), 58);
    TrainerOptions opts;
    opts.loss_scale = scale;
    opts.store_dir = tmp.Sub("scale" + std::to_string(scale));
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok());
    SyntheticDataset ds(SyntheticTask::kPairSum, 32, 8, 14);
    for (int step = 0; step < 5; ++step) {
      const TokenBatch b = ds.NextBatch(2);
      EXPECT_TRUE((*trainer)->TrainStep(b.ids, b.targets, 2).ok());
    }
    std::vector<float> w;
    EXPECT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk0/w_proj", &w).ok());
    return w;
  };
  const std::vector<float> w1 = run(1.0f);
  const std::vector<float> w256 = run(256.0f);
  ASSERT_EQ(w1.size(), w256.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < w1.size(); ++i) {
    max_diff = std::max(max_diff,
                        static_cast<double>(std::fabs(w1[i] - w256[i])));
  }
  EXPECT_LT(max_diff, 5e-4);
}

// ---------- Hardware specs ----------

TEST(HwSpecsTest, ArrayBandwidthCappedByBridge) {
  SsdArraySpec arr;
  arr.ssd = catalog::IntelP5510();
  arr.host_bridge_bandwidth = 32e9;
  arr.count = 2;
  EXPECT_NEAR(arr.ReadBandwidth(), 2 * arr.ssd.read_bandwidth, 1.0);
  arr.count = 12;
  EXPECT_NEAR(arr.ReadBandwidth(), 32e9, 1.0);  // bridge cap
  EXPECT_NEAR(arr.WriteBandwidth(), 32e9, 1.0);
  EXPECT_EQ(arr.CapacityBytes(), 12 * arr.ssd.capacity_bytes);
}

TEST(HwSpecsTest, ServerPriceSumsComponents) {
  const ServerConfig s = catalog::MultiGpuServer(
      catalog::Rtx4090(), 4, 768 * kGiB, 6);
  EXPECT_NEAR(s.TotalPriceUsd(),
              14098.0 + 4 * 1600.0 + 6 * 308.0, 0.01);
  EXPECT_NEAR(catalog::DgxA100().TotalPriceUsd(), 200000.0, 0.01);
}

TEST(HwSpecsTest, CatalogSanity) {
  EXPECT_GT(catalog::Rtx4090().peak_fp16_flops,
            catalog::Rtx4080().peak_fp16_flops);
  EXPECT_GT(catalog::Rtx4080().peak_fp16_flops,
            catalog::Rtx3090().peak_fp16_flops);
  EXPECT_FALSE(catalog::Rtx4090().supports_gpudirect);
  EXPECT_TRUE(catalog::A100_80G().supports_gpudirect);
  EXPECT_GT(catalog::IntelP5510().endurance_bytes_written,
            catalog::IntelP5510().capacity_bytes);
}

}  // namespace
}  // namespace ratel
