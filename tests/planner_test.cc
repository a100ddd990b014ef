#include "core/activation_planner.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "common/units.h"
#include "core/hardware_profile.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"

namespace ratel {
namespace {

struct PlannerFixture {
  TransformerConfig config;
  WorkloadProfile workload;
  HardwareProfile hw;

  static PlannerFixture Make(const std::string& model, int batch,
                             int64_t mem_gib, int ssds) {
    auto cfg = LlmFromTableIV(model);
    EXPECT_TRUE(cfg.ok());
    PlannerFixture f{*cfg, WorkloadProfile::Build(*cfg, batch), {}};
    const ServerConfig server = catalog::EvaluationServer(
        catalog::Rtx4090(), mem_gib * kGiB, ssds);
    auto hp = HardwareProfiler(server).Profile(f.workload);
    EXPECT_TRUE(hp.ok()) << hp.status().ToString();
    f.hw = *hp;
    return f;
  }
};

TEST(ActivationPlannerTest, PlanAlwaysCoversCheckpoints) {
  const auto f = PlannerFixture::Make("13B", 32, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).Plan();
  EXPECT_GE(plan.a_g2m, f.workload.inter_block_activation_bytes());
  // Every inter-block unit must be in the swap set.
  std::set<int> swapped(plan.swapped_units.begin(), plan.swapped_units.end());
  for (size_t i = 0; i < f.workload.activation_units().size(); ++i) {
    if (f.workload.activation_units()[i].inter_block) {
      EXPECT_TRUE(swapped.count(static_cast<int>(i))) << i;
    }
  }
}

TEST(ActivationPlannerTest, PlanInternallyConsistent) {
  const auto f = PlannerFixture::Make("13B", 48, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).Plan();
  // a_g2m equals the sum of swapped unit bytes; flop_r the unswapped sum.
  int64_t bytes = 0;
  double flops = 0.0;
  std::set<int> swapped(plan.swapped_units.begin(), plan.swapped_units.end());
  for (size_t i = 0; i < f.workload.activation_units().size(); ++i) {
    const auto& u = f.workload.activation_units()[i];
    if (swapped.count(static_cast<int>(i))) {
      bytes += u.bytes;
    } else {
      flops += u.recompute_flops;
    }
  }
  EXPECT_EQ(bytes, plan.a_g2m);
  EXPECT_NEAR(flops, plan.flop_r, 1e-6 * (flops + 1));
  EXPECT_NEAR(plan.predicted_iter_time,
              cm.IterTime(static_cast<double>(plan.a_g2m), plan.flop_r),
              1e-12);
  EXPECT_EQ(plan.ssd_bytes,
            static_cast<int64_t>(
                cm.SsdActivationBytes(static_cast<double>(plan.a_g2m))));
}

// ---------- Algorithm 1 vs exhaustive search (optimality) ----------

// std::string, not const char*: gtest lists a pointer parameter with its
// address, which would change the ctest test name on every build.
using PlanParam = std::tuple<std::string, int, int64_t, int>;

class PlannerOptimalityTest : public ::testing::TestWithParam<PlanParam> {};

TEST_P(PlannerOptimalityTest, Algorithm1MatchesExhaustiveSearch) {
  const auto [model, batch, mem_gib, ssds] = GetParam();
  const auto f = PlannerFixture::Make(model, batch, mem_gib, ssds);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlanner planner(cm);
  const ActivationPlan fast = planner.Plan();
  const ActivationPlan brute = planner.PlanByExhaustiveSearch();
  EXPECT_NEAR(fast.predicted_iter_time, brute.predicted_iter_time,
              1e-9 * brute.predicted_iter_time)
      << model << " b" << batch;
  EXPECT_EQ(fast.a_g2m, brute.a_g2m) << model << " b" << batch;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerOptimalityTest,
    ::testing::Values(PlanParam{"6B", 8, 128, 3}, PlanParam{"6B", 64, 256, 12},
                      PlanParam{"13B", 16, 128, 1},
                      PlanParam{"13B", 24, 256, 12},
                      PlanParam{"13B", 32, 768, 12},
                      PlanParam{"13B", 64, 256, 6},
                      PlanParam{"30B", 16, 256, 12},
                      PlanParam{"70B", 16, 512, 12},
                      PlanParam{"70B", 32, 128, 3},
                      PlanParam{"135B", 8, 768, 12},
                      PlanParam{"175B", 4, 256, 12}),
    [](const ::testing::TestParamInfo<PlanParam>& info) {
      return std::string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// ---------- Case detection (Section IV-D cases 1-3) ----------

TEST(ActivationPlannerTest, SmallBatchFewSsdsIsPcieBound) {
  // Few SSDs + small batch: extra swapping only adds traffic (Case 1;
  // Fig. 9b shows this for batch 24).
  const auto f = PlannerFixture::Make("13B", 8, 128, 1);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).Plan();
  EXPECT_EQ(plan.swap_case, SwapCase::kPcieBound);
  EXPECT_EQ(plan.a_g2m, f.workload.inter_block_activation_bytes());
}

TEST(ActivationPlannerTest, LargeBatchManySsdsSwapsMore) {
  // Plenty of I/O headroom and a big batch: the planner moves past the
  // checkpoints (Cases 2/3; Fig. 9b batch 48/60 behaviour).
  const auto f = PlannerFixture::Make("13B", 64, 768, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).Plan();
  EXPECT_NE(plan.swap_case, SwapCase::kPcieBound);
  EXPECT_GT(plan.a_g2m, f.workload.inter_block_activation_bytes());
}

TEST(ActivationPlannerTest, PlanForAmountReachesTarget) {
  const auto f = PlannerFixture::Make("13B", 32, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlanner planner(cm);
  const int64_t target = 40ll * 1000 * 1000 * 1000;
  const ActivationPlan plan = planner.PlanForAmount(target);
  EXPECT_GE(plan.a_g2m, target);
  // Overshoot is at most one unit.
  int64_t max_unit = 0;
  for (const auto& u : f.workload.activation_units()) {
    max_unit = std::max(max_unit, u.bytes);
  }
  EXPECT_LE(plan.a_g2m, target + max_unit);
}

TEST(ActivationPlannerTest, PlanForZeroSwapsNothing) {
  const auto f = PlannerFixture::Make("6B", 8, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).PlanForAmount(0);
  EXPECT_EQ(plan.a_g2m, 0);
  EXPECT_TRUE(plan.swapped_units.empty());
  EXPECT_NEAR(plan.flop_r, cm.TotalRecomputableFlops(), 1.0);
}

TEST(ActivationPlannerTest, BudgetRespected) {
  const auto f = PlannerFixture::Make("13B", 32, 768, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlanner planner(cm);
  const int64_t budget = f.workload.total_activation_bytes() / 3;
  const ActivationPlan plan = planner.PlanWithObjective(
      budget, [&](double a, double fr) { return cm.IterTime(a, fr); });
  EXPECT_LE(plan.a_g2m, budget);
}

TEST(ActivationPlannerTest, UnboundedBudgetMatchesAlgorithm1) {
  const auto f = PlannerFixture::Make("13B", 48, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlanner planner(cm);
  const ActivationPlan a = planner.Plan();
  const ActivationPlan b = planner.PlanWithObjective(
      f.workload.total_activation_bytes() + 1,
      [&](double x, double fr) { return cm.IterTime(x, fr); });
  EXPECT_EQ(a.a_g2m, b.a_g2m);
}

TEST(ActivationPlannerTest, CheckmateObjectiveFillsBudget) {
  // Minimizing FLOP_r alone swaps as much as the budget allows.
  const auto f = PlannerFixture::Make("13B", 32, 768, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlanner planner(cm);
  const int64_t budget = f.workload.total_activation_bytes() / 2;
  const ActivationPlan plan = planner.PlanWithObjective(
      budget, [](double, double fr) { return fr; });
  // Within one unit of the budget.
  int64_t max_unit = 0;
  for (const auto& u : f.workload.activation_units()) {
    max_unit = std::max(max_unit, u.bytes);
  }
  EXPECT_GE(plan.a_g2m, budget - max_unit);
  EXPECT_LE(plan.a_g2m, budget);
}

TEST(ActivationPlannerTest, HigherBenefitUnitsSwappedFirst) {
  // The minimum offloading benefit among swapped optional units must be
  // >= the maximum among recomputed ones (exchange-argument optimality).
  const auto f = PlannerFixture::Make("13B", 48, 256, 12);
  const CostModel cm(f.hw, f.workload);
  const ActivationPlan plan = ActivationPlanner(cm).Plan();
  std::set<int> swapped(plan.swapped_units.begin(), plan.swapped_units.end());
  double min_swapped = 1e30, max_recomputed = -1.0;
  for (size_t i = 0; i < f.workload.activation_units().size(); ++i) {
    const auto& u = f.workload.activation_units()[i];
    if (u.inter_block) continue;
    if (swapped.count(static_cast<int>(i))) {
      min_swapped = std::min(min_swapped, u.OffloadingBenefit());
    } else {
      max_recomputed = std::max(max_recomputed, u.OffloadingBenefit());
    }
  }
  if (max_recomputed >= 0.0 && min_swapped < 1e30) {
    EXPECT_GE(min_swapped, max_recomputed);
  }
}

}  // namespace
}  // namespace ratel
