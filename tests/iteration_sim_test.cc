#include "core/iteration_sim.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/activation_planner.h"
#include "common/units.h"
#include "core/hardware_profile.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"

namespace ratel {
namespace {

struct SimFixture {
  WorkloadProfile workload;
  HardwareProfile hw;
  ActivationPlan plan;

  static SimFixture Make(const std::string& model, int batch,
                         int64_t mem_gib = 768, int ssds = 12) {
    auto cfg = LlmFromTableIV(model);
    EXPECT_TRUE(cfg.ok());
    SimFixture f{WorkloadProfile::Build(*cfg, batch), {}, {}};
    const ServerConfig server = catalog::EvaluationServer(
        catalog::Rtx4090(), mem_gib * kGiB, ssds);
    auto hp = HardwareProfiler(server).Profile(f.workload);
    EXPECT_TRUE(hp.ok()) << hp.status().ToString();
    f.hw = *hp;
    const CostModel cm(f.hw, f.workload);
    f.plan = ActivationPlanner(cm).Plan();
    return f;
  }
};

IterationResult MustSimulate(const SimFixture& f, const IterationKnobs& k) {
  auto res = IterationSimulator(f.hw, f.workload, f.plan, k).Simulate();
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return *res;
}

TEST(IterationSimTest, StagesArePositiveAndSum) {
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs k;
  const IterationResult r = MustSimulate(f, k);
  EXPECT_GT(r.t_forward, 0.0);
  EXPECT_GT(r.t_backward, 0.0);
  EXPECT_NEAR(r.t_iter, r.t_forward + r.t_backward + r.t_optimizer, 1e-6);
  EXPECT_GT(r.tokens_per_s, 0.0);
  EXPECT_GT(r.model_tflops, 0.0);
}

TEST(IterationSimTest, UtilizationsAreFractions) {
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs k;
  const IterationResult r = MustSimulate(f, k);
  for (const StageStats* s : {&r.forward, &r.backward}) {
    EXPECT_GE(s->gpu_busy_frac, 0.0);
    EXPECT_LE(s->gpu_busy_frac, 1.0 + 1e-9);
    EXPECT_LE(s->m2g_busy_frac, 1.0 + 1e-9);
    EXPECT_LE(s->g2m_busy_frac, 1.0 + 1e-9);
    EXPECT_LE(s->ssd_busy_frac, 1.0 + 1e-9);
    EXPECT_LE(s->cpu_busy_frac, 1.0 + 1e-9);
  }
  EXPECT_LE(r.gpu_busy_frac, 1.0 + 1e-9);
}

TEST(IterationSimTest, AgreesWithClosedFormUnderFullOverlap) {
  // The DES pipelines everything; its stage times should be within ~35%
  // of Eq. 4/5 (which assume perfect overlap and no pipeline fill).
  const auto f = SimFixture::Make("13B", 32);
  const CostModel cm(f.hw, f.workload);
  const double tf = cm.ForwardTime(static_cast<double>(f.plan.a_g2m));
  const double tb = cm.BackwardTime(static_cast<double>(f.plan.a_g2m),
                                    f.plan.flop_r);
  IterationKnobs k;
  k.gpu_efficiency = 1.0;  // the closed form uses raw THP_G
  const IterationResult r = MustSimulate(f, k);
  EXPECT_NEAR(r.t_forward, tf, 0.35 * tf);
  EXPECT_NEAR(r.t_backward, tb, 0.45 * tb);
}

TEST(IterationSimTest, GradientModeOrdering) {
  // Optimized active offloading <= naive <= fully serialized (Fig. 3/7).
  const auto f = SimFixture::Make("13B", 64, 768, 12);
  IterationKnobs k;
  k.grad_mode = GradientOffloadMode::kOptimizedActive;
  const double t_opt = MustSimulate(f, k).t_iter;
  k.grad_mode = GradientOffloadMode::kNaiveActive;
  const double t_naive = MustSimulate(f, k).t_iter;
  k.grad_mode = GradientOffloadMode::kSerializedPipelined;
  const double t_serial_piped = MustSimulate(f, k).t_iter;
  k.grad_mode = GradientOffloadMode::kSerializedOptimizer;
  const double t_serial = MustSimulate(f, k).t_iter;
  EXPECT_LE(t_opt, t_naive * 1.001);
  EXPECT_LE(t_naive, t_serial * 1.001);
  EXPECT_LE(t_serial_piped, t_serial * 1.001);
  EXPECT_LT(t_opt, t_serial);  // strictly better end to end
}

TEST(IterationSimTest, SerializedModeReportsOptimizerTail) {
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs k;
  k.grad_mode = GradientOffloadMode::kSerializedOptimizer;
  const IterationResult r = MustSimulate(f, k);
  EXPECT_GT(r.t_optimizer, 1.0);  // a real separate stage
  k.grad_mode = GradientOffloadMode::kOptimizedActive;
  const IterationResult r2 = MustSimulate(f, k);
  EXPECT_DOUBLE_EQ(r2.t_optimizer, 0.0);  // hidden behind backward
}

TEST(IterationSimTest, ZeroInfinityOptimizerStageNearPaper) {
  // Section III-B / Fig. 1a: the serialized out-of-core optimizer stage
  // for 13B on 12 SSDs measures ~23 s.
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs k;
  k.grad_mode = GradientOffloadMode::kSerializedOptimizer;
  const IterationResult r = MustSimulate(f, k);
  EXPECT_NEAR(r.t_optimizer, 23.0, 6.0);
}

TEST(IterationSimTest, PerLayerOverheadSlowsIteration) {
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs fast;
  IterationKnobs slow;
  slow.per_layer_overhead_s = 0.2;
  const double t_fast = MustSimulate(f, fast).t_iter;
  const double t_slow = MustSimulate(f, slow).t_iter;
  // 40 blocks x ~3 passes x 0.2 s of extra GPU serialization.
  EXPECT_GT(t_slow, t_fast + 10.0);
}

TEST(IterationSimTest, LowerGpuEfficiencyLowersTflops) {
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs hi;
  hi.gpu_efficiency = 0.95;
  IterationKnobs lo;
  lo.gpu_efficiency = 0.50;
  EXPECT_GT(MustSimulate(f, hi).model_tflops,
            MustSimulate(f, lo).model_tflops);
}

TEST(IterationSimTest, GpuOptimizerMovesStatesOverSsdLink) {
  // G10-style in-GPU Adam: the optimizer tail is dominated by streaming
  // 26P+ bytes through the SSD array (Fig. 1b: ~13 s for 13B).
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs k;
  k.gpu_optimizer = true;
  const IterationResult r = MustSimulate(f, k);
  EXPECT_GT(r.t_optimizer, 8.0);
  EXPECT_LT(r.t_optimizer, 18.0);
}

TEST(IterationSimTest, MainMemoryStatesSkipSsd) {
  // ZeRO-Offload placement: with states in DRAM the optimizer stage
  // shrinks to CPU-compute plus fast memory traffic.
  const auto f = SimFixture::Make("13B", 32);
  IterationKnobs ssd;
  ssd.grad_mode = GradientOffloadMode::kSerializedOptimizer;
  ssd.state_placement = ModelStatePlacement::kSsd;
  IterationKnobs dram = ssd;
  dram.state_placement = ModelStatePlacement::kMainMemory;
  EXPECT_LT(MustSimulate(f, dram).t_optimizer,
            MustSimulate(f, ssd).t_optimizer);
}

TEST(IterationSimTest, MultiGpuIncreasesAggregateThroughput) {
  const auto f = SimFixture::Make("13B", 16, 768, 12);
  IterationKnobs one;
  one.num_gpus = 1;
  IterationKnobs four;
  four.num_gpus = 4;
  const double t1 = MustSimulate(f, one).tokens_per_s;
  const double t4 = MustSimulate(f, four).tokens_per_s;
  EXPECT_GT(t4, t1 * 1.5);       // clearly better than one GPU
  EXPECT_LT(t4, t1 * 4.0 + 1.0);  // but not super-linear
}

TEST(IterationSimTest, ActivationsResidentSkipsSwapTraffic) {
  const auto f = SimFixture::Make("6B", 8, 768, 12);
  IterationKnobs moving;
  IterationKnobs resident;
  resident.activations_resident = true;
  resident.state_placement = ModelStatePlacement::kGpu;
  const IterationResult r = MustSimulate(f, resident);
  // Backward has no recompute: strictly less GPU work than the moving
  // config which recomputes some units.
  EXPECT_LE(r.t_iter, MustSimulate(f, moving).t_iter * 1.01);
}

TEST(IterationSimTest, DeeperStagingNeverSlower) {
  // Fig. 3b's lookahead: depth 1 collapses towards the naive handler;
  // deeper staging monotonically helps until the pipeline saturates.
  const auto f = SimFixture::Make("13B", 32);
  double prev = 1e300;
  for (int depth : {1, 2, 4, 8}) {
    IterationKnobs k;
    k.staging_depth = depth;
    const double t = MustSimulate(f, k).t_iter;
    EXPECT_LE(t, prev * 1.001) << depth;
    prev = t;
  }
}

TEST(IterationSimTest, MoreSsdsNeverSlower) {
  auto cfg = LlmFromTableIV("135B");
  ASSERT_TRUE(cfg.ok());
  double prev = 1e30;
  for (int ssds : {1, 2, 3, 6, 12}) {
    const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 8);
    const ServerConfig server =
        catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, ssds);
    auto hp = HardwareProfiler(server).Profile(wl);
    ASSERT_TRUE(hp.ok());
    const CostModel cm(*hp, wl);
    const ActivationPlan plan = ActivationPlanner(cm).Plan();
    IterationKnobs k;
    auto res = IterationSimulator(*hp, wl, plan, k).Simulate();
    ASSERT_TRUE(res.ok());
    EXPECT_LE(res->t_iter, prev * 1.001) << ssds;
    prev = res->t_iter;
  }
}

// std::string, not const char*: gtest lists a pointer parameter with its
// address, which would change the ctest test name on every build.
using ModeParam = std::tuple<std::string, int>;

class GradientModeSweep : public ::testing::TestWithParam<ModeParam> {};

TEST_P(GradientModeSweep, OptimizedNeverWorse) {
  const auto [model, batch] = GetParam();
  const auto f = SimFixture::Make(model, batch);
  IterationKnobs k;
  k.grad_mode = GradientOffloadMode::kOptimizedActive;
  const double t_opt = MustSimulate(f, k).t_iter;
  for (auto mode : {GradientOffloadMode::kNaiveActive,
                    GradientOffloadMode::kSerializedPipelined,
                    GradientOffloadMode::kSerializedOptimizer}) {
    k.grad_mode = mode;
    EXPECT_LE(t_opt, MustSimulate(f, k).t_iter * 1.001)
        << model << " b" << batch << " vs " << GradientOffloadModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradientModeSweep,
    ::testing::Values(ModeParam{"6B", 8}, ModeParam{"6B", 32},
                      ModeParam{"13B", 8}, ModeParam{"13B", 32},
                      ModeParam{"13B", 64}, ModeParam{"30B", 16},
                      ModeParam{"70B", 16}, ModeParam{"175B", 8}),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return std::string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ratel
