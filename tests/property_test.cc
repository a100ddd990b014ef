// Property-based suites: exhaustive fp16 round-trip, conservation laws
// of the discrete-event engine, and workload/feasibility invariants
// swept across the full Table IV model grid.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/activation_planner.h"
#include "core/hardware_profile.h"
#include "core/ratel_system.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "sim/engine.h"
#include "storage/fair_queue.h"
#include "storage/fault_injector.h"
#include "storage/io_scheduler.h"
#include "xfer/codec.h"
#include "xfer/transfer_engine.h"

namespace ratel {
namespace {

// ---------- fp16: exhaustive over every bit pattern ----------

TEST(Fp16PropertyTest, EveryHalfRoundTripsExactly) {
  // HalfToFloat is exact, and FloatToHalf of an exactly-representable
  // value must return the identical bit pattern — for all 65536 halfs
  // except NaNs (payloads may canonicalize).
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const Fp16 h = static_cast<Fp16>(bits);
    const uint32_t exp = (h >> 10) & 0x1F;
    const uint32_t mant = h & 0x3FF;
    if (exp == 0x1F && mant != 0) continue;  // NaN
    const float f = HalfToFloat(h);
    EXPECT_EQ(FloatToHalf(f), h)
        << "bits 0x" << std::hex << bits << " -> " << f;
  }
}

TEST(Fp16PropertyTest, MonotoneOnPositives) {
  // Conversion preserves order for positive halfs.
  float prev = -1.0f;
  for (uint32_t bits = 0; bits < 0x7C00; ++bits) {  // up to +inf
    const float f = HalfToFloat(static_cast<Fp16>(bits));
    EXPECT_GT(f, prev) << bits;
    prev = f;
  }
}

TEST(Fp16PropertyTest, RoundingNeverMovesMoreThanHalfUlp) {
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    const float x =
        static_cast<float>(rng.NextGaussian()) * 100.0f;
    const Fp16 h = FloatToHalf(x);
    const float back = HalfToFloat(h);
    // Neighbouring halfs must not be strictly closer to x.
    const float lo = HalfToFloat(static_cast<Fp16>(h - 1));
    const float hi = HalfToFloat(static_cast<Fp16>(h + 1));
    const float err = std::fabs(back - x);
    if (!std::isinf(lo)) {
      EXPECT_LE(err, std::fabs(lo - x) + 1e-12f) << x;
    }
    if (!std::isinf(hi) && (h & 0x7FFF) != 0) {
      EXPECT_LE(err, std::fabs(hi - x) + 1e-12f) << x;
    }
  }
}

// ---------- DES conservation laws ----------

TEST(SimConservationTest, WorkNeverExceedsCapacityAndMatchesDemand) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    SimEngine eng;
    const int n_res = 2 + static_cast<int>(rng.NextBelow(3));
    std::vector<ResourceId> res;
    std::vector<double> rates;
    for (int r = 0; r < n_res; ++r) {
      rates.push_back(1.0 + rng.NextDouble() * 9.0);
      res.push_back(eng.AddResource("r" + std::to_string(r), rates.back()));
    }
    const int n_tasks = 20 + static_cast<int>(rng.NextBelow(60));
    std::vector<double> demand(n_res, 0.0);
    std::vector<TaskId> tasks;
    for (int i = 0; i < n_tasks; ++i) {
      const int r = static_cast<int>(rng.NextBelow(n_res));
      const double amount = rng.NextDouble() * 5.0;
      std::vector<TaskId> deps;
      if (!tasks.empty() && rng.NextBelow(2) == 0) {
        deps.push_back(tasks[rng.NextBelow(tasks.size())]);
      }
      tasks.push_back(eng.AddTask("t", res[r], amount, deps));
      demand[r] += amount;
    }
    ASSERT_TRUE(eng.Run().ok());
    const double span = eng.Makespan();
    for (int r = 0; r < n_res; ++r) {
      const double busy = eng.ResourceBusyTime(res[r], 0.0, span);
      const double work = eng.ResourceWorkDone(res[r], 0.0, span);
      EXPECT_LE(busy, span + 1e-9);
      // Capacity: work <= rate * busy-time; demand conservation: every
      // byte/FLOP requested was served.
      EXPECT_LE(work, rates[r] * busy + 1e-6);
      EXPECT_NEAR(work, demand[r], 1e-6 * (demand[r] + 1.0));
    }
    // Causality: tasks start after their dependencies finish.
    const auto records = eng.TaskRecords();
    (void)records;
  }
}

TEST(SimConservationTest, DependenciesRespectedInRandomDags) {
  Rng rng(17);
  SimEngine eng;
  const ResourceId r0 = eng.AddResource("a", 2.0);
  const ResourceId r1 = eng.AddResource("b", 3.0);
  std::vector<TaskId> tasks;
  std::vector<std::vector<TaskId>> deps_of;
  for (int i = 0; i < 120; ++i) {
    std::vector<TaskId> deps;
    for (int d = 0; d < 3 && !tasks.empty(); ++d) {
      if (rng.NextBelow(3) == 0) {
        deps.push_back(tasks[rng.NextBelow(tasks.size())]);
      }
    }
    tasks.push_back(eng.AddTask("t", rng.NextBelow(2) ? r0 : r1,
                                rng.NextDouble() * 2.0, deps));
    deps_of.push_back(deps);
  }
  ASSERT_TRUE(eng.Run().ok());
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (TaskId d : deps_of[i]) {
      EXPECT_GE(eng.timing(tasks[i]).start, eng.timing(d).finish - 1e-9);
    }
  }
}

// ---------- Workload invariants across the Table IV grid ----------

class TableIVWorkloadTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TableIVWorkloadTest, StructuralInvariants) {
  const auto [model_idx, batch] = GetParam();
  const TransformerConfig cfg = AllTableIVModels()[model_idx];
  const WorkloadProfile wl = WorkloadProfile::Build(cfg, batch);

  // 8 activation units per block.
  EXPECT_EQ(wl.activation_units().size(),
            static_cast<size_t>(8 * cfg.num_layers));
  // Exactly one inter-block checkpoint per block, 1/16 of block bytes.
  int inter = 0;
  for (const auto& u : wl.activation_units()) inter += u.inter_block;
  EXPECT_EQ(inter, cfg.num_layers);
  EXPECT_EQ(wl.inter_block_activation_bytes() * 16,
            wl.total_activation_bytes());
  // Backward-is-2x-forward bookkeeping (Table I).
  EXPECT_GT(wl.forward_flops(), 0.0);
  // Parameters dominated by blocks; embeddings < 10% for >= 6B models.
  EXPECT_LT(cfg.EmbeddingParameterCount(),
            0.10 * cfg.ParameterCount());
  // Per-block working set is positive and grows with batch.
  EXPECT_GT(wl.PerBlockGpuWorkingSetBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TableIVWorkloadTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return AllTableIVModels()[std::get<0>(info.param)].name + "_b" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- Feasibility monotonicity ----------

class FeasibilityMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilityMonotoneTest, MoreMemoryNeverHurtsRatel) {
  const TransformerConfig cfg = AllTableIVModels()[GetParam()];
  RatelSystem ratel;
  bool was_feasible = false;
  for (int64_t mem : {128, 256, 384, 512, 640, 768, 1024}) {
    const ServerConfig s = catalog::EvaluationServer(
        catalog::Rtx4090(), mem * kGiB, 12);
    const bool feasible = ratel.CanTrain(cfg, 1, s);
    EXPECT_TRUE(feasible || !was_feasible)
        << cfg.name << " became infeasible at " << mem << " GiB";
    was_feasible = feasible || was_feasible;
  }
}

TEST_P(FeasibilityMonotoneTest, MoreBatchNeverHelps) {
  const TransformerConfig cfg = AllTableIVModels()[GetParam()];
  RatelSystem ratel;
  const ServerConfig s = catalog::EvaluationServer(
      catalog::Rtx4090(), 768 * kGiB, 12);
  bool prev = true;
  for (int batch : {1, 4, 16, 64, 256}) {
    const bool feasible = ratel.CanTrain(cfg, batch, s);
    EXPECT_TRUE(!feasible || prev)
        << cfg.name << " regained feasibility at batch " << batch;
    prev = feasible;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, FeasibilityMonotoneTest,
                         ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return AllTableIVModels()[info.param].name;
                         });

// ---------- Cost-model sensitivity ----------

TEST(CostModelSensitivityTest, FasterDevicesNeverSlower) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig s = catalog::EvaluationServer(
      catalog::Rtx4090(), 256 * kGiB, 12);
  auto base = HardwareProfiler(s).Profile(wl);
  ASSERT_TRUE(base.ok());
  const double a = 30e9;
  const double t0 = CostModel(*base, wl).IterTimeAt(a);
  for (double* field : {&base->thp_g, &base->bw_g, &base->bw_s2m,
                        &base->bw_m2s}) {
    HardwareProfile hw = *base;
    const ptrdiff_t offset =
        reinterpret_cast<const char*>(field) -
        reinterpret_cast<const char*>(&(*base));
    double* target =
        reinterpret_cast<double*>(reinterpret_cast<char*>(&hw) + offset);
    *target *= 2.0;
    const double t = CostModel(hw, wl).IterTimeAt(a);
    EXPECT_LE(t, t0 + 1e-9);
  }
}

TEST(CostModelSensitivityTest, MoreSpareMemoryNeverSlower) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 48);
  const ServerConfig s = catalog::EvaluationServer(
      catalog::Rtx4090(), 256 * kGiB, 3);
  auto hw = HardwareProfiler(s).Profile(wl);
  ASSERT_TRUE(hw.ok());
  double prev = 1e300;
  for (int64_t extra = 0; extra <= 200; extra += 50) {
    HardwareProfile h2 = *hw;
    h2.mem_avail_m = hw->mem_avail_m + extra * kGiB;
    const CostModel cm(h2, wl);
    const double t = ActivationPlanner(cm).Plan().predicted_iter_time;
    EXPECT_LE(t, prev + 1e-9) << extra;
    prev = t;
  }
}

// ---------- Retry/backoff schedule invariants ----------

TEST(RetryPolicyPropertyTest, ScheduleIsDeterministicForAFixedSeed) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    RetryPolicy p;
    p.max_attempts = 1 + static_cast<int>(rng.NextBelow(10));
    p.base_backoff_s = 1e-5 * (1.0 + static_cast<double>(rng.NextBelow(100)));
    p.backoff_multiplier = 1.0 + 0.25 * static_cast<double>(rng.NextBelow(12));
    p.max_backoff_s = p.base_backoff_s * (1 + rng.NextBelow(64));
    p.backoff_deadline_s =
        p.base_backoff_s * (1 + static_cast<double>(rng.NextBelow(256)));
    p.jitter_seed = rng.NextU64();
    // Same policy, same seed: bit-for-bit the same schedule. The
    // scheduler's recovery behaviour is replayable, not "roughly so".
    EXPECT_EQ(BackoffSchedule(p), BackoffSchedule(p));
    for (int k = 1; k < p.max_attempts; ++k) {
      EXPECT_EQ(RetryBackoffSeconds(p, k), RetryBackoffSeconds(p, k));
    }
  }
}

TEST(RetryPolicyPropertyTest, EverySleepIsJitteredClampedExponential) {
  Rng rng(32);
  for (int trial = 0; trial < 200; ++trial) {
    RetryPolicy p;
    p.max_attempts = 2 + static_cast<int>(rng.NextBelow(8));
    p.base_backoff_s = 1e-5 * (1.0 + static_cast<double>(rng.NextBelow(100)));
    p.backoff_multiplier = 1.0 + 0.5 * static_cast<double>(rng.NextBelow(6));
    p.max_backoff_s = p.base_backoff_s * (1 + rng.NextBelow(64));
    p.backoff_deadline_s = 1e9;  // no truncation in this sweep
    p.jitter_seed = rng.NextU64();
    for (int k = 1; k < p.max_attempts; ++k) {
      double ideal = p.base_backoff_s;
      for (int i = 1; i < k; ++i) ideal *= p.backoff_multiplier;
      const double clamped = std::min(ideal, p.max_backoff_s);
      const double slept = RetryBackoffSeconds(p, k);
      // Jitter shrinks, never grows, and never below 75% of nominal.
      EXPECT_GE(slept, 0.75 * clamped - 1e-15) << "retry " << k;
      EXPECT_LT(slept, clamped + 1e-15) << "retry " << k;
    }
  }
}

TEST(RetryPolicyPropertyTest, CumulativeBackoffNeverExceedsTheDeadline) {
  Rng rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    RetryPolicy p;
    p.max_attempts = 1 + static_cast<int>(rng.NextBelow(12));
    p.base_backoff_s = 1e-5 * (1.0 + static_cast<double>(rng.NextBelow(500)));
    p.backoff_multiplier = 1.0 + 0.25 * static_cast<double>(rng.NextBelow(12));
    p.max_backoff_s = p.base_backoff_s * (1 + rng.NextBelow(64));
    // Deadlines from "tighter than one sleep" to "covers everything".
    p.backoff_deadline_s =
        p.base_backoff_s * 0.5 * (1 + static_cast<double>(rng.NextBelow(128)));
    p.jitter_seed = rng.NextU64();
    const std::vector<double> sched = BackoffSchedule(p);
    EXPECT_LE(sched.size(), static_cast<size_t>(p.max_attempts - 1));
    double total = 0.0;
    for (size_t k = 0; k < sched.size(); ++k) {
      EXPECT_EQ(sched[k], RetryBackoffSeconds(p, static_cast<int>(k) + 1));
      total += sched[k];
    }
    // The bound the pipeline relies on: a request can never sit in
    // backoff longer than the configured deadline.
    EXPECT_LE(total, p.backoff_deadline_s + 1e-12);
  }
}

TEST(RetryPolicyPropertyTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(IsRetryableIoError(Status::Unavailable("transient")));
  EXPECT_TRUE(IsRetryableIoError(Status::IoError("transient")));
  EXPECT_FALSE(IsRetryableIoError(Status::Ok()));
  EXPECT_FALSE(IsRetryableIoError(Status::DataLoss("checksum mismatch")));
  EXPECT_FALSE(IsRetryableIoError(Status::NotFound("gone")));
  EXPECT_FALSE(IsRetryableIoError(Status::InvalidArgument("bad size")));
}

// ---------- Fault-injection schedule invariants ----------

TEST(FaultSchedulePropertyTest, ReadFaultsFireExactlyEveryKthOperation) {
  for (int k : {2, 3, 5, 8}) {
    FaultConfig cfg;
    cfg.seed = 0xABCDEFull + k;
    cfg.read_error_every = k;
    FaultInjector a(cfg), b(cfg);
    for (const std::string key : {"p16/wte", "m/block0", "chan"}) {
      std::vector<int> fault_ops;
      for (int n = 1; n <= 6 * k; ++n) {
        const bool faulted_a = !a.OnBlobRead(key).ok();
        const bool faulted_b = !b.OnBlobRead(key).ok();
        // Same seed => identical decisions, op for op.
        EXPECT_EQ(faulted_a, faulted_b) << key << " op " << n;
        if (faulted_a) fault_ops.push_back(n);
      }
      // Exactly every k-th op of the key faults: 6 faults in 6k ops,
      // consecutive faults exactly k apart, first within the first k.
      ASSERT_EQ(fault_ops.size(), 6u) << key;
      EXPECT_LE(fault_ops[0], k);
      for (size_t i = 1; i < fault_ops.size(); ++i) {
        EXPECT_EQ(fault_ops[i] - fault_ops[i - 1], k) << key;
      }
    }
  }
}

TEST(FaultSchedulePropertyTest, RetryAfterAFaultDeterministicallyPasses) {
  // The contract the retry loop leans on: with every >= 2, the op right
  // after a fault never faults, so max_attempts = 2 already converges.
  FaultConfig cfg;
  cfg.seed = 77;
  cfg.write_error_every = 2;
  FaultInjector inj(cfg);
  int64_t torn = -1;
  bool prev_faulted = false;
  for (int n = 0; n < 40; ++n) {
    const bool faulted = !inj.OnBlobWrite("p32/w", 1024, &torn).ok();
    if (prev_faulted) {
      EXPECT_FALSE(faulted) << "op " << n;
    }
    prev_faulted = faulted;
  }
}

// ---------- CRC-32C ----------

TEST(ChecksumPropertyTest, MatchesTheCastagnoliCheckValue) {
  // The standard CRC-32C check vector: crc of "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(ChecksumPropertyTest, ChainingEqualsOneShotOverTheConcatenation) {
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> buf(1 + rng.NextBelow(512));
    for (auto& c : buf) c = static_cast<uint8_t>(rng.NextU64());
    const uint32_t whole = Crc32c(buf.data(), buf.size());
    const size_t cut = rng.NextBelow(buf.size() + 1);
    const uint32_t part = Crc32c(buf.data() + cut, buf.size() - cut,
                                 Crc32c(buf.data(), cut));
    EXPECT_EQ(part, whole);
    Crc32cAccumulator acc;
    for (size_t i = 0; i < buf.size(); ++i) acc.Update(&buf[i], 1);
    EXPECT_EQ(acc.value(), whole);
  }
}

// Bit-at-a-time CRC-32C: the definition both backends must agree with.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t size, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

// The SSE4.2 instruction path equals the slice-by-8 table path for every
// length 0..4097 at every start offset 0..7 (every head/tail split of the
// 8-byte loops), and the table path equals the bitwise definition.
TEST(ChecksumPropertyTest, HardwareAndTablePathsAgreeAtEveryLengthAndOffset) {
  Rng rng(43);
  std::vector<uint8_t> buf(4097 + 8);
  for (auto& c : buf) c = static_cast<uint8_t>(rng.NextU64());
  const bool hardware = checksum_internal::HostHasCrc32cInstruction();
  if (!hardware) std::cerr << "host lacks SSE4.2: table path only\n";
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4097; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      const uint32_t table = checksum_internal::Crc32cPortable(p, len, seed);
      ASSERT_EQ(checksum_internal::Crc32cHardware(p, len, seed), table)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32c(p, len, seed), table);
      if (len <= 64 || len % 257 == 0) {
        ASSERT_EQ(table, ReferenceCrc32c(p, len, seed))
            << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(ChecksumPropertyTest, SingleBitFlipsAlwaysChangeTheChecksum) {
  // CRC-32C detects every single-bit error — the torn-write /
  // bit-rot class the checkpoint shards guard against.
  Rng rng(42);
  std::vector<uint8_t> buf(64);
  for (auto& c : buf) c = static_cast<uint8_t>(rng.NextU64());
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= (1u << bit);
      EXPECT_NE(Crc32c(buf.data(), buf.size()), base)
          << "byte " << byte << " bit " << bit;
      buf[byte] ^= (1u << bit);
    }
  }
}

// ---------- Fair-share (DWRR) invariants ----------

TEST(FairSharePropertyTest, WorkConservingAndPerLaneFifoUnderMixedLoad) {
  // Random mixed-flow load over four tenant lanes: interleaved pushes
  // and pops with request sizes spanning three orders of magnitude.
  // Invariants: (a) work conservation — PopNext always yields an item
  // while any lane is non-empty, and everything pushed is eventually
  // popped; (b) FIFO holds within every (lane) regardless of the
  // cross-lane interleaving the deficits pick.
  FairQueue<std::pair<int, int>> q(/*quantum_bytes=*/512);
  q.SetWeight(2, 3);
  q.SetWeight(3, 7);
  Rng rng(2024);
  std::array<std::deque<int>, 4> expected;
  std::array<int, 4> next_value{};
  int64_t pushed = 0;
  int64_t popped = 0;
  for (int round = 0; round < 5000; ++round) {
    if (q.empty() || rng.NextBelow(100) < 55) {
      const int tenant = static_cast<int>(rng.NextBelow(4));
      const int64_t size = 1 + static_cast<int64_t>(rng.NextBelow(4096));
      q.Push(tenant, size, {tenant, next_value[tenant]});
      expected[tenant].push_back(next_value[tenant]++);
      ++pushed;
    } else {
      const std::pair<int, int> item = q.PopNext();
      ASSERT_FALSE(expected[item.first].empty());
      EXPECT_EQ(item.second, expected[item.first].front())
          << "lane " << item.first << " violated FIFO";
      expected[item.first].pop_front();
      ++popped;
    }
  }
  while (!q.empty()) {
    const std::pair<int, int> item = q.PopNext();
    ASSERT_FALSE(expected[item.first].empty());
    EXPECT_EQ(item.second, expected[item.first].front());
    expected[item.first].pop_front();
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  for (const auto& lane : expected) EXPECT_TRUE(lane.empty());
}

TEST(FairSharePropertyTest, ServedBytesConvergeToConfiguredWeights) {
  // Three permanently backlogged lanes with weights 1:2:4 and random
  // request sizes: the byte shares served must converge to the weight
  // ratio (classic DWRR guarantee, within one-quantum slack per visit).
  const std::array<int, 3> kWeights = {1, 2, 4};
  FairQueue<std::pair<int, int64_t>> q(/*quantum_bytes=*/512);
  Rng rng(7);
  std::array<int64_t, 3> outstanding{};
  auto refill = [&](int tenant) {
    // Keep every lane backlogged so no idle-share redistribution kicks
    // in; the shares must then track the weights alone.
    while (outstanding[tenant] < 64 * 1024) {
      const int64_t size = 1 + static_cast<int64_t>(rng.NextBelow(2048));
      q.Push(tenant, size, {tenant, size});
      outstanding[tenant] += size;
    }
  };
  for (int t = 0; t < 3; ++t) {
    q.SetWeight(t, kWeights[t]);
    refill(t);
  }
  int64_t served_total = 0;
  while (served_total < 4 << 20) {
    const std::pair<int, int64_t> item = q.PopNext();
    outstanding[item.first] -= item.second;
    served_total += item.second;
    refill(item.first);
  }
  const double weight_total = kWeights[0] + kWeights[1] + kWeights[2];
  for (int t = 0; t < 3; ++t) {
    const double share =
        static_cast<double>(q.served_bytes(t)) / served_total;
    const double target = kWeights[t] / weight_total;
    EXPECT_NEAR(share, target, 0.05)
        << "tenant " << t << " share " << share << " target " << target;
  }
}

// ---------- Offload-codec invariants ----------

std::vector<float> RandomFloatTensor(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian()) * 2.0f;
  return v;
}

std::vector<float> RoundTrip(const Codec& codec, const std::vector<float>& in) {
  const int64_t logical = static_cast<int64_t>(in.size()) * 4;
  std::vector<uint8_t> frame(FrameSizeFor(codec, logical));
  EncodeFrame(codec, reinterpret_cast<const uint8_t*>(in.data()), logical,
              frame.data());
  std::vector<float> out(in.size());
  EXPECT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()), logical)
                  .ok());
  return out;
}

TEST(CodecPropertyTest, DecodeEncodeErrorIsBoundedPerCodec) {
  // Per-codec error law over random tensors and seeds:
  //   identity — decode(encode(x)) == x, bitwise;
  //   fp16     — elementwise exactly FloatToHalf rounding, so relative
  //              error <= 2^-11 for values in the binary16 normal range;
  //   topk     — kept elements bitwise exact, dropped elements exactly
  //              zero, so the squared error equals the dropped energy.
  auto identity = MakeIdentityCodec();
  auto fp16 = MakeFp16Codec();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(9000 + seed);
    const int64_t n = 1 + static_cast<int64_t>(rng.NextBelow(700));
    const std::vector<float> x = RandomFloatTensor(n, seed);

    const std::vector<float> id_out = RoundTrip(*identity, x);
    EXPECT_EQ(0, std::memcmp(id_out.data(), x.data(), n * 4)) << seed;

    const std::vector<float> half_out = RoundTrip(*fp16, x);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(half_out[i], HalfToFloat(FloatToHalf(x[i]))) << seed;
      const float ax = std::fabs(x[i]);
      if (ax >= 6.2e-5f && ax <= 65504.0f) {  // binary16 normal range
        EXPECT_LE(std::fabs(half_out[i] - x[i]), ax * (1.0f / 2048.0f))
            << "seed " << seed << " i " << i;
      }
    }

    const int64_t k = 1 + static_cast<int64_t>(rng.NextBelow(n));
    auto topk = MakeTopKCodec(k);
    const std::vector<float> sparse = RoundTrip(*topk, x);
    double dropped_energy = 0.0, error_energy = 0.0;
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (sparse[i] != 0.0f || x[i] == 0.0f) {
        ASSERT_EQ(sparse[i], x[i]) << "kept element not exact";
        ++kept;
      } else {
        dropped_energy += static_cast<double>(x[i]) * x[i];
      }
      const double e = static_cast<double>(sparse[i]) - x[i];
      error_energy += e * e;
    }
    EXPECT_LE(kept, std::min(k, n));
    EXPECT_DOUBLE_EQ(error_energy, dropped_energy) << seed;
  }
}

TEST(CodecPropertyTest, EncodedFrameSizeIsMonotoneInK) {
  // More kept coefficients can never shrink a top-k frame, and the size
  // saturates exactly at k == n (further k buys nothing).
  for (int64_t n : {1, 7, 64, 333}) {
    const int64_t logical = n * 4 + 2;  // plus an odd tail
    int64_t prev = -1;
    for (int64_t k = 1; k <= n + 8; ++k) {
      auto codec = MakeTopKCodec(k);
      const int64_t size = FrameSizeFor(*codec, logical);
      if (prev >= 0) {
        EXPECT_GE(size, prev) << "n=" << n << " k=" << k;
        if (k <= n) {
          EXPECT_GT(size, prev) << "n=" << n << " k=" << k;
        } else {
          EXPECT_EQ(size, prev) << "n=" << n << " k=" << k;
        }
      }
      prev = size;
    }
  }
}

TEST(CodecPropertyTest, CompressionRatioStatsReconcileExactly) {
  // Mixed codec'd and raw traffic through one engine: for every flow,
  // ratio * encoded bytes must equal logical bytes *exactly* (the ratio
  // is defined as their quotient, never sampled), and the per-flow
  // encoded totals must sum to the store totals byte-for-byte.
  TransferOptions opts;
  opts.dir = ::testing::TempDir() + "/ratel_codec_prop_" +
             std::to_string(::getpid());
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  opts.codec.spec(FlowClass::kGradState) = "topk:24";
  opts.codec.spec(FlowClass::kCheckpoint) = "identity";
  // kParamFetch and kDeferredState stay raw: encoded == logical there.
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  Rng rng(321);
  constexpr FlowClass kFlows[] = {
      FlowClass::kParamFetch, FlowClass::kGradState,
      FlowClass::kActivationSpill, FlowClass::kCheckpoint,
      FlowClass::kDeferredState,
  };
  int blob = 0;
  for (int round = 0; round < 3; ++round) {
    for (FlowClass flow : kFlows) {
      const int64_t floats = 16 + static_cast<int64_t>(rng.NextBelow(2048));
      const std::vector<float> data = RandomFloatTensor(floats, 55 + blob);
      const int64_t bytes = floats * 4;
      const std::string key = "b/" + std::to_string(blob++);
      ASSERT_TRUE((*engine)->Write(flow, key, data.data(), bytes).ok());
      std::vector<float> out(floats);
      ASSERT_TRUE((*engine)->Read(flow, key, out.data(), bytes).ok());
    }
  }

  const TransferStats stats = (*engine)->stats();
  int64_t encoded_written = 0, encoded_read = 0;
  for (int f = 0; f < kNumFlowClasses; ++f) {
    const FlowCounters& c = stats.flow[f];
    // Exact reconciliation, not approximate: the ratio times the
    // encoded bytes reproduces the logical bytes it was derived from.
    EXPECT_DOUBLE_EQ(
        c.WriteCompressionRatio() * static_cast<double>(c.encoded_bytes_written),
        static_cast<double>(c.bytes_written))
        << "flow " << f;
    EXPECT_DOUBLE_EQ(
        c.ReadCompressionRatio() * static_cast<double>(c.encoded_bytes_read),
        static_cast<double>(c.bytes_read - c.bytes_from_cache))
        << "flow " << f;
    // Codec'd flows did encode/decode work; raw flows did none.
    const FlowClass flow = static_cast<FlowClass>(f);
    const bool coded = (*engine)->codecs().ForFlow(flow) != nullptr;
    EXPECT_EQ(c.encodes > 0, coded) << "flow " << f;
    EXPECT_EQ(c.decodes > 0, coded) << "flow " << f;
    encoded_written += c.encoded_bytes_written;
    encoded_read += c.encoded_bytes_read;
  }
  // The store moved exactly the encoded bytes — nothing more, nothing
  // hidden: mixed codec/raw accounting reconciles byte-for-byte.
  EXPECT_EQ(encoded_written, stats.store_bytes_written);
  EXPECT_EQ(encoded_read, stats.store_bytes_read);
}

}  // namespace
}  // namespace ratel
