#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/units.h"
#include "core/hardware_profile.h"
#include "hw/catalog.h"
#include "model/tensor_inventory.h"
#include "model/transformer_config.h"

namespace ratel {
namespace {

HardwareProfile ProfileFor(const std::string& model, int batch,
                           int64_t main_mem_gib = 768, int ssds = 12) {
  auto cfg = LlmFromTableIV(model);
  EXPECT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, batch);
  const ServerConfig server = catalog::EvaluationServer(
      catalog::Rtx4090(), main_mem_gib * kGiB, ssds);
  auto hp = HardwareProfiler(server).Profile(wl);
  EXPECT_TRUE(hp.ok()) << hp.status().ToString();
  return *hp;
}

TEST(HardwareProfilerTest, ProvidesTableIQuantities) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  auto hp = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hp.ok());
  EXPECT_NEAR(hp->thp_g, 165e12, 1e10);
  EXPECT_NEAR(hp->bw_g, 21e9, 1e7);
  EXPECT_NEAR(hp->bw_s2m, 32e9, 1e9);   // 12 SSDs capped by the bridge
  EXPECT_GT(hp->mem_avail_m, 0);
  EXPECT_EQ(hp->layer_forward_seconds.size(), 40u);
  EXPECT_GT(hp->t_f, 0.0);
  EXPECT_GT(hp->t_b, hp->t_f);  // backward is ~2x forward + recompute
}

TEST(HardwareProfilerTest, FailsWhenPinnedExceedsMainMemory) {
  auto cfg = LlmFromTableIV("276B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 1);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 128 * kGiB, 12);
  auto hp = HardwareProfiler(server).Profile(wl);
  EXPECT_FALSE(hp.ok());
  EXPECT_EQ(hp.status().code(), StatusCode::kOutOfMemory);
}

TEST(HardwareProfilerTest, FailsWithoutSsds) {
  auto cfg = LlmFromTableIV("6B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 1);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 0);
  EXPECT_FALSE(HardwareProfiler(server).Profile(wl).ok());
}

TEST(CostModelTest, SsdSpillFollowsEq3) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const HardwareProfile hw = ProfileFor("13B", 32);
  const CostModel cm(hw, wl);
  EXPECT_DOUBLE_EQ(cm.SsdActivationBytes(0.0), 0.0);
  EXPECT_DOUBLE_EQ(
      cm.SsdActivationBytes(static_cast<double>(hw.mem_avail_m)), 0.0);
  EXPECT_DOUBLE_EQ(
      cm.SsdActivationBytes(static_cast<double>(hw.mem_avail_m) + 5e9), 5e9);
}

TEST(CostModelTest, ForwardTimeComponentsDominateCorrectly) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const HardwareProfile hw = ProfileFor("13B", 32);
  const CostModel cm(hw, wl);
  // With nothing swapped, forward is GPU-bound for 13B/bsz32:
  // FLOP_f / THP_G ~ 5.3 s (Fig. 1c shows a 5 s forward stage).
  const double t0 = cm.ForwardTime(0.0);
  EXPECT_NEAR(t0, wl.forward_flops() / hw.thp_g, 1e-9);
  EXPECT_NEAR(t0, 5.3, 0.8);
  // Swapping everything makes the G2M link the forward bottleneck.
  const double a_all = static_cast<double>(wl.total_activation_bytes());
  EXPECT_GT(cm.ForwardTime(a_all), t0);
  EXPECT_NEAR(cm.ForwardTime(a_all),
              std::max(a_all / hw.bw_g,
                       2.0 * wl.param_count() / hw.bw_s2m +
                           cm.SsdActivationBytes(a_all) / hw.bw_m2s),
              0.5);
}

TEST(CostModelTest, BackwardTimeIncludesModelStateTraffic) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const HardwareProfile hw = ProfileFor("13B", 32);
  const CostModel cm(hw, wl);
  // SSD term: 14P read + 14P write at the array bandwidths must be a
  // lower bound on the backward stage (Eq. 5's last component).
  const double p14 = 14.0 * static_cast<double>(wl.param_count());
  const double ssd_floor = p14 / hw.bw_s2m + p14 / hw.bw_m2s;
  EXPECT_GE(cm.BackwardTime(0.0, 0.0) + 1e-9, ssd_floor);
}

TEST(CostModelTest, RecomputeFlopsMonotoneNonIncreasing) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 16);
  const HardwareProfile hw = ProfileFor("13B", 16);
  const CostModel cm(hw, wl);
  double prev = cm.RecomputeFlopsAt(0.0);
  EXPECT_NEAR(prev, cm.TotalRecomputableFlops(), 1e-3 * prev);
  const double a_all = static_cast<double>(wl.total_activation_bytes());
  for (int i = 1; i <= 64; ++i) {
    const double a = a_all * i / 64.0;
    const double fr = cm.RecomputeFlopsAt(a);
    EXPECT_LE(fr, prev + 1e-3) << i;
    prev = fr;
  }
  EXPECT_NEAR(cm.RecomputeFlopsAt(a_all), 0.0, 1e-3);
}

// ---------- Convexity property sweep (the Section IV-D proof) ----------

// std::string, not const char*: gtest lists a pointer parameter with its
// address, which would change the ctest test name on every build.
using ConvexityParam = std::tuple<std::string, int, int64_t>;

class ConvexityTest : public ::testing::TestWithParam<ConvexityParam> {};

TEST_P(ConvexityTest, IterTimeIsConvexInSwappedBytes) {
  const auto [model, batch, mem_gib] = GetParam();
  auto cfg = LlmFromTableIV(model);
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, batch);
  const ServerConfig server = catalog::EvaluationServer(
      catalog::Rtx4090(), mem_gib * kGiB, 12);
  auto hp = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hp.ok()) << hp.status().ToString();
  const CostModel cm(*hp, wl);

  // Sample T_iter on a uniform grid over the feasible domain
  // [A_interBlock, A_all] (the checkpoints are always swapped) and check
  // discrete convexity: second differences >= -epsilon.
  constexpr int kPoints = 200;
  const double a_lo =
      static_cast<double>(wl.inter_block_activation_bytes());
  const double a_all = static_cast<double>(wl.total_activation_bytes());
  std::vector<double> t(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    t[i] = cm.IterTimeAt(a_lo + (a_all - a_lo) * i / (kPoints - 1));
  }
  for (int i = 1; i + 1 < kPoints; ++i) {
    const double second_diff = t[i + 1] - 2.0 * t[i] + t[i - 1];
    EXPECT_GE(second_diff, -1e-6 * t[i])
        << "non-convex at grid point " << i << " for " << model << "/b"
        << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndBatches, ConvexityTest,
    ::testing::Values(
        ConvexityParam{"6B", 8, 256}, ConvexityParam{"6B", 64, 128},
        ConvexityParam{"13B", 16, 256}, ConvexityParam{"13B", 32, 768},
        ConvexityParam{"13B", 64, 128}, ConvexityParam{"30B", 24, 256},
        ConvexityParam{"70B", 16, 512}, ConvexityParam{"70B", 32, 256},
        ConvexityParam{"135B", 8, 768}, ConvexityParam{"175B", 8, 768}),
    [](const ::testing::TestParamInfo<ConvexityParam>& info) {
      return std::string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

TEST(CostModelTest, IterTimeMatchesPaperScaleFor13B) {
  // Fig. 1c: Ratel runs 13B/bsz32 in roughly 25 s (5 s forward + 20 s
  // backward) on the 12-SSD server. The model should land in that
  // neighbourhood at its optimum.
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const HardwareProfile hw = ProfileFor("13B", 32);
  const CostModel cm(hw, wl);
  double best = 1e30;
  const double a_all = static_cast<double>(wl.total_activation_bytes());
  for (int i = 0; i <= 100; ++i) {
    best = std::min(best, cm.IterTimeAt(a_all * i / 100.0));
  }
  EXPECT_GT(best, 10.0);
  EXPECT_LT(best, 40.0);
}

}  // namespace
}  // namespace ratel
