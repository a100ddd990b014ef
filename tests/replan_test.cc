// Online re-planning battery (ctest label: replan).
//
// Pins the plan->run->observe loop at three levels:
//  - FlowObserver: windows are exact snapshot deltas of the cumulative
//    TransferStats, so dropped-base + ring always reconciles against
//    the counters — no drift, no double-count, even with concurrent
//    engine traffic racing the window boundaries.
//  - Replanner: the deviation trigger (observed-baseline-relative),
//    hysteresis, cooldown, multiplicative calibration, and the
//    drift-free-means-zero-resolves guarantee.
//  - RatelTrainer hot-swap safety: a replan firing mid-run (stripes
//    killed under the async optimizer's pending deferred epochs and the
//    prefetcher's in-flight gated reads) leaves the loss trajectory
//    bitwise identical to an undisturbed run, and a partial spill set
//    is loss-equivalent to the classic spill-everything path.

#include "core/replanner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "common/units.h"
#include "core/activation_planner.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "model/workload.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "storage/fault_injector.h"
#include "xfer/flow_window.h"
#include "xfer/transfer_engine.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

// ---------- FlowObserver: windows reconcile against the counters ----------

FlowCounters& Mut(TransferStats* s, FlowClass flow) {
  return s->flow[static_cast<int>(flow)];
}

void ExpectWindowMatchesDelta(const FlowWindow& w, const FlowCounters& later,
                              const FlowCounters& earlier,
                              const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(w.reads, later.reads - earlier.reads);
  EXPECT_EQ(w.writes, later.writes - earlier.writes);
  EXPECT_EQ(w.bytes_read, later.bytes_read - earlier.bytes_read);
  EXPECT_EQ(w.bytes_written, later.bytes_written - earlier.bytes_written);
  EXPECT_EQ(w.bytes_from_cache,
            later.bytes_from_cache - earlier.bytes_from_cache);
  EXPECT_EQ(w.encoded_bytes_read,
            later.encoded_bytes_read - earlier.encoded_bytes_read);
  EXPECT_EQ(w.encoded_bytes_written,
            later.encoded_bytes_written - earlier.encoded_bytes_written);
  EXPECT_EQ(w.errors, later.errors - earlier.errors);
  EXPECT_EQ(w.retries, later.retries - earlier.retries);
  EXPECT_NEAR(w.read_seconds, later.read_seconds - earlier.read_seconds, 1e-9);
  EXPECT_NEAR(w.write_seconds, later.write_seconds - earlier.write_seconds,
              1e-9);
}

/// The reconciliation contract: dropped_base + sum(ring) == latest -
/// epoch, per flow, per counter. Seconds are doubles, so they get a
/// tolerance; every integer counter must match exactly.
void ExpectReconciles(const FlowObserver& obs) {
  const TransferStats epoch = obs.epoch();
  const TransferStats latest = obs.latest();
  for (int f = 0; f < kNumFlowClasses; ++f) {
    const FlowClass flow = static_cast<FlowClass>(f);
    FlowWindow total = obs.DroppedBase(flow);
    for (const FlowWindow& w : obs.History(flow)) total.Accumulate(w);
    ExpectWindowMatchesDelta(total, latest.flow[f], epoch.flow[f],
                             std::string("flow ") + FlowClassName(flow));
  }
}

TEST(FlowObserverTest, WindowIsTheExactSnapshotDelta) {
  FlowObserver obs(8, 0.5);
  TransferStats s;
  obs.Start(s, 0.0);

  FlowCounters before = Mut(&s, FlowClass::kActivationSpill);
  auto& c = Mut(&s, FlowClass::kActivationSpill);
  c.writes += 3;
  c.bytes_written += 3000;
  c.encoded_bytes_written += 1500;  // 2x codec
  c.write_seconds += 0.25;
  c.reads += 2;
  c.bytes_read += 2000;
  c.bytes_from_cache += 1000;
  c.encoded_bytes_read += 500;
  c.read_seconds += 0.1;
  c.errors += 1;
  c.retries += 2;
  EXPECT_EQ(obs.Advance(s, 1.0), 1);

  const FlowWindow w = obs.Last(FlowClass::kActivationSpill);
  ExpectWindowMatchesDelta(w, c, before, "spill window 1");
  EXPECT_DOUBLE_EQ(w.start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(w.end_seconds, 1.0);
  EXPECT_DOUBLE_EQ(w.WallSeconds(), 1.0);
  // Service bandwidth is the *encoded* (store-leg) rate.
  EXPECT_DOUBLE_EQ(w.WriteServiceBandwidth(), 1500 / 0.25);
  EXPECT_DOUBLE_EQ(w.ReadServiceBandwidth(), 500 / 0.1);
  // Untouched flows closed an all-zero window.
  const FlowWindow idle = obs.Last(FlowClass::kCheckpoint);
  EXPECT_EQ(idle.writes, 0);
  EXPECT_DOUBLE_EQ(idle.WriteServiceBandwidth(), 0.0);
}

TEST(FlowObserverTest, EvictionFoldsIntoDroppedBaseWithoutDrift) {
  constexpr int kCapacity = 3;
  FlowObserver obs(kCapacity, 0.5);
  TransferStats s;
  obs.Start(s, 0.0);
  for (int i = 1; i <= 10; ++i) {
    auto& c = Mut(&s, FlowClass::kGradState);
    c.writes += 1;
    c.bytes_written += i;  // distinct per window: folding errors would show
    c.encoded_bytes_written += i;
    c.write_seconds += 0.01;
    obs.Advance(s, 0.1 * i);
  }
  EXPECT_EQ(obs.windows(), 10);
  const auto history = obs.History(FlowClass::kGradState);
  ASSERT_EQ(static_cast<int>(history.size()), kCapacity);
  // Ring keeps the newest 3 windows (8, 9, 10)...
  EXPECT_EQ(history.front().bytes_written, 8);
  EXPECT_EQ(history.back().bytes_written, 10);
  // ...and the evicted 1..7 folded into the base: sum 28.
  EXPECT_EQ(obs.DroppedBase(FlowClass::kGradState).bytes_written, 28);
  ExpectReconciles(obs);
}

TEST(FlowObserverTest, EwmaTracksServiceBandwidthPerSide) {
  FlowObserver obs(8, 0.5);
  TransferStats s;
  obs.Start(s, 0.0);

  auto write_window = [&](int64_t bytes, double seconds, double at) {
    auto& c = Mut(&s, FlowClass::kActivationSpill);
    c.writes += 1;
    c.bytes_written += bytes;
    c.encoded_bytes_written += bytes;
    c.write_seconds += seconds;
    obs.Advance(s, at);
  };
  write_window(1000, 0.01, 1.0);  // 100 kB/s
  FlowObserver::Ewma e = obs.ewma(FlowClass::kActivationSpill);
  EXPECT_TRUE(e.write_valid);
  EXPECT_FALSE(e.read_valid);  // no read traffic yet: side stays invalid
  EXPECT_DOUBLE_EQ(e.write_bandwidth, 100e3);

  write_window(500, 0.01, 2.0);  // 50 kB/s -> ewma (alpha .5) = 75 kB/s
  e = obs.ewma(FlowClass::kActivationSpill);
  EXPECT_DOUBLE_EQ(e.write_bandwidth, 75e3);

  // An idle window (no write_seconds) must not decay the estimate.
  obs.Advance(s, 3.0);
  e = obs.ewma(FlowClass::kActivationSpill);
  EXPECT_DOUBLE_EQ(e.write_bandwidth, 75e3);
}

TEST(FlowObserverTest, AdvanceBeforeStartOpensTheEpoch) {
  FlowObserver obs(4, 0.5);
  TransferStats s;
  Mut(&s, FlowClass::kParamFetch).bytes_read = 777;
  EXPECT_EQ(obs.Advance(s, 1.0), 0);  // first call: epoch, no window
  EXPECT_EQ(obs.windows(), 0);
  EXPECT_EQ(obs.epoch().flow[0].bytes_read, 777);
  Mut(&s, FlowClass::kParamFetch).bytes_read = 1000;
  EXPECT_EQ(obs.Advance(s, 2.0), 1);
  EXPECT_EQ(obs.Last(FlowClass::kParamFetch).bytes_read, 223);
}

TEST(FlowObserverTest, ReconciliationHoldsUnderConcurrentEngineTraffic) {
  const ScopedTempDir tmp("replan");
  // Three threads hammer distinct flows through a live engine while the
  // observer closes windows at arbitrary moments in between — exactly
  // the trainer's step-boundary pattern racing the I/O workers. After
  // the dust settles, every flow's dropped-base + ring must equal the
  // cumulative counter delta: no lost bytes, no double counting.
  TransferOptions opts;
  opts.dir = tmp.Sub("obs_conc");
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.io_workers = 4;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  FlowObserver obs(/*capacity=*/4, /*ewma_alpha=*/0.5);  // force eviction
  obs.Start((*engine)->stats(), 0.0);

  const FlowClass flows[] = {FlowClass::kParamFetch, FlowClass::kGradState,
                             FlowClass::kCheckpoint};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      const FlowClass flow = flows[t];
      std::vector<uint8_t> buf(2048, static_cast<uint8_t>(t));
      std::vector<uint8_t> out(buf.size());
      for (int i = 0; i < 40; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "/k" + std::to_string(i % 8);
        ASSERT_TRUE(
            (*engine)->Write(flow, key, buf.data(), buf.size()).ok());
        ASSERT_TRUE(
            (*engine)->Read(flow, key, out.data(), out.size()).ok());
      }
    });
  }
  for (int k = 1; k <= 25; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    obs.Advance((*engine)->stats(), 0.001 * k);
  }
  for (auto& w : workers) w.join();
  obs.Advance((*engine)->stats(), 1.0);  // final boundary after quiesce

  EXPECT_GE(obs.windows(), 26);
  ExpectReconciles(obs);
  // The traffic really ran and really evicted windows.
  const TransferStats latest = obs.latest();
  for (const FlowClass flow : flows) {
    EXPECT_EQ(latest.Flow(flow).writes - obs.epoch().Flow(flow).writes, 40);
    EXPECT_LE(static_cast<int>(obs.History(flow).size()), 4);
  }
}

// ---------- Replanner: trigger, hysteresis, cooldown, calibration ----------

WorkloadProfile FixtureWorkload() {
  auto cfg = LlmFromTableIV("13B");
  EXPECT_TRUE(cfg.ok());
  return WorkloadProfile::Build(*cfg, 32);
}

HardwareProfile FixtureProfile(const WorkloadProfile& workload) {
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 12);
  auto hw = HardwareProfiler(server).Profile(workload);
  EXPECT_TRUE(hw.ok());
  return *hw;
}

struct PlannerFixture {
  WorkloadProfile workload = FixtureWorkload();
  HardwareProfile profile = FixtureProfile(workload);
};

/// Drives a Replanner with synthetic cumulative stats whose write-side
/// service bandwidth is exactly what each window dictates.
class SyntheticFeed {
 public:
  explicit SyntheticFeed(Replanner* rp) : rp_(rp) {
    rp_->Observe(stats_, t_);  // opens the observation epoch
  }

  std::optional<ReplanResult> WriteWindow(double bandwidth,
                                          int64_t bytes = 1 << 20) {
    auto& c = stats_.flow[static_cast<int>(FlowClass::kActivationSpill)];
    c.writes += 4;
    c.bytes_written += bytes;
    c.encoded_bytes_written += bytes;
    c.write_seconds += static_cast<double>(bytes) / bandwidth;
    stats_.store_write_busy_seconds += static_cast<double>(bytes) / bandwidth;
    t_ += 0.1;
    return rp_->Observe(stats_, t_);
  }

 private:
  Replanner* rp_;
  TransferStats stats_;
  double t_ = 0.0;
};

TEST(ReplannerTest, InitialPlanIsSolvedAtConstruction) {
  PlannerFixture fx;
  ReplanConfig cfg;
  cfg.enabled = true;
  Replanner rp(cfg, fx.profile, fx.workload);
  EXPECT_GT(rp.current_plan().a_g2m, 0);
  EXPECT_FALSE(rp.current_plan().swapped_units.empty());
  EXPECT_EQ(rp.observation().resolves, 0);  // the initial solve is free
  EXPECT_DOUBLE_EQ(rp.current_profile().bw_m2s, fx.profile.bw_m2s);
}

TEST(ReplannerTest, DriftFreeRunPerformsZeroResolves) {
  // The acceptance criterion in miniature: constant observed bandwidth
  // means the plan is never stale, so the loop never re-solves — by
  // construction, because drift is measured against the loop's own
  // locked baseline, not against nameplate numbers.
  PlannerFixture fx;
  ReplanConfig cfg;
  cfg.enabled = true;  // defaults: threshold .15, hyst 2, cooldown 3
  Replanner rp(cfg, fx.profile, fx.workload);
  SyntheticFeed feed(&rp);
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(feed.WriteWindow(1e9).has_value()) << "window " << i;
  }
  const ReplanObservation obs = rp.observation();
  EXPECT_EQ(obs.windows, 30);
  EXPECT_EQ(obs.resolves, 0);
  EXPECT_EQ(obs.deviating_windows, 0);
  EXPECT_TRUE(obs.baseline_locked);
  EXPECT_LT(obs.staleness, 0.01);
  EXPECT_NEAR(obs.observed_write_bandwidth, 1e9, 1e9 * 1e-6);
  EXPECT_DOUBLE_EQ(obs.observed_read_bandwidth, 0.0);  // side never seen
}

TEST(ReplannerTest, SustainedDriftCalibratesOnceAndReanchors) {
  PlannerFixture fx;
  ReplanConfig cfg;
  cfg.enabled = true;
  cfg.deviation_threshold = 0.15;
  cfg.hysteresis_windows = 2;
  cfg.cooldown_windows = 3;
  cfg.ewma_alpha = 0.5;
  Replanner rp(cfg, fx.profile, fx.workload);
  SyntheticFeed feed(&rp);

  // Warmup at 1 GB/s: baseline locks at window 3 (= cooldown).
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(feed.WriteWindow(1e9).has_value());
  ASSERT_TRUE(rp.observation().baseline_locked);

  // Bandwidth halves. EWMA walk: .75 -> .625 -> .5625 of baseline, so
  // deviation crosses 15% at window 4 (streak 1), window 5 makes the
  // hysteresis (streak 2) but is still inside the cooldown (5-3 < 3);
  // window 6 fires.
  ASSERT_FALSE(feed.WriteWindow(5e8).has_value());  // window 4
  ASSERT_FALSE(feed.WriteWindow(5e8).has_value());  // window 5 (cooldown)
  auto result = feed.WriteWindow(5e8);              // window 6
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->solve_index, 1);
  EXPECT_NEAR(result->deviation, 0.4375, 1e-3);
  // Multiplicative calibration of the drifted side only.
  EXPECT_NEAR(result->calibrated.bw_m2s, fx.profile.bw_m2s * 0.5625,
              fx.profile.bw_m2s * 1e-3);
  EXPECT_DOUBLE_EQ(result->calibrated.bw_s2m, fx.profile.bw_s2m);
  EXPECT_EQ(result->calibrated.calibration_windows, 6);
  EXPECT_NEAR(result->calibrated.observed_activation_compression, 1.0, 1e-9);

  // The baseline re-anchored at the solve: the *same* degraded world is
  // no longer drift, so the loop settles — no thrash.
  for (int i = 0; i < 14; ++i) {
    EXPECT_FALSE(feed.WriteWindow(5e8).has_value()) << "post-solve " << i;
  }
  EXPECT_EQ(rp.observation().resolves, 1);
  EXPECT_NEAR(rp.current_profile().bw_m2s, fx.profile.bw_m2s * 0.5625,
              fx.profile.bw_m2s * 1e-3);
}

TEST(ReplannerTest, HysteresisFiltersASingleNoisyWindow) {
  PlannerFixture fx;
  ReplanConfig cfg;
  cfg.enabled = true;
  cfg.deviation_threshold = 0.2;
  cfg.hysteresis_windows = 2;
  cfg.cooldown_windows = 2;
  cfg.ewma_alpha = 1.0;  // no smoothing: the noise hits at full strength
  Replanner rp(cfg, fx.profile, fx.workload);
  SyntheticFeed feed(&rp);

  // The baseline locks at window 2 and its 2-window cooldown has elapsed
  // by window 4, so only hysteresis can hold the noisy window after it.
  for (int i = 0; i < 4; ++i) ASSERT_FALSE(feed.WriteWindow(1e9).has_value());
  // One 60%-off window (window 5): streak 1 < hysteresis 2 — no solve...
  ASSERT_FALSE(feed.WriteWindow(4e8).has_value());
  // ...and recovery resets the streak, so it never fires.
  for (int i = 0; i < 8; ++i) ASSERT_FALSE(feed.WriteWindow(1e9).has_value());
  const ReplanObservation obs = rp.observation();
  EXPECT_EQ(obs.resolves, 0);
  EXPECT_EQ(obs.deviating_windows, 1);
}

TEST(ReplannerTest, CooldownSpacesBackToBackResolves) {
  PlannerFixture fx;
  ReplanConfig cfg;
  cfg.enabled = true;
  cfg.deviation_threshold = 0.2;
  cfg.hysteresis_windows = 1;
  cfg.cooldown_windows = 4;
  cfg.ewma_alpha = 1.0;
  Replanner rp(cfg, fx.profile, fx.workload);
  SyntheticFeed feed(&rp);

  for (int i = 0; i < 4; ++i) ASSERT_FALSE(feed.WriteWindow(1e9).has_value());

  // Persistent 2x degradation from window 5: armed immediately
  // (hysteresis 1) but held until the cooldown elapses at window 8.
  std::vector<int64_t> fired_at;
  for (int w = 5; w <= 8; ++w) {
    auto r = feed.WriteWindow(5e8);
    if (r.has_value()) fired_at.push_back(r->calibrated.calibration_windows);
  }
  ASSERT_EQ(fired_at, (std::vector<int64_t>{8}));

  // A second degradation composes: the next solve waits out its own
  // cooldown and scales the already-calibrated profile again.
  for (int w = 9; w <= 12; ++w) {
    auto r = feed.WriteWindow(2.5e8);
    if (r.has_value()) {
      fired_at.push_back(r->calibrated.calibration_windows);
      EXPECT_EQ(r->solve_index, 2);
      EXPECT_NEAR(r->calibrated.bw_m2s, fx.profile.bw_m2s * 0.25,
                  fx.profile.bw_m2s * 1e-3);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int64_t>{8, 12}));
  EXPECT_EQ(rp.observation().resolves, 2);
}

TEST(ReplanConfigTest, EnvKnobsOverlayOntoBase) {
  TrainerOptions options;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_REPLAN", "1"},
                             {"RATEL_REPLAN_THRESHOLD_PCT", "35"},
                             {"RATEL_REPLAN_HYSTERESIS", "4"},
                             {"RATEL_REPLAN_COOLDOWN", "7"},
                             {"RATEL_REPLAN_EWMA_ALPHA", "0.25"},
                             {"RATEL_REPLAN_WINDOWS", "8"}},
                            &options)
                  .ok());
  const ReplanConfig& cfg = options.replan;
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.deviation_threshold, 0.35);
  EXPECT_EQ(cfg.hysteresis_windows, 4);
  EXPECT_EQ(cfg.cooldown_windows, 7);
  EXPECT_DOUBLE_EQ(cfg.ewma_alpha, 0.25);
  EXPECT_EQ(cfg.window_capacity, 8);

  // RATEL_REPLAN=0 force-disables a programmatically armed config.
  TrainerOptions armed;
  armed.replan.enabled = true;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_REPLAN", "0"}}, &armed).ok());
  EXPECT_FALSE(armed.replan.enabled);
}

// ---------- Stripe death degrades the array's channels ----------

TEST(FaultInjectorTest, KillStripeFailsWritesRegardlessOfFlowMask) {
  FaultConfig cfg;           // no scheduled faults at all
  cfg.flow_mask = 0;         // and every flow class scoped *out*
  FaultInjector injector(cfg);
  EXPECT_FALSE(injector.FailsStripeWrite(2));
  injector.KillStripe(2);
  // Wear-out is a device-level fact: the flow scope must not save the
  // write, and the failure repeats forever (no periodic schedule).
  FaultInjector::ScopedFlow scope(
      static_cast<int>(FlowClass::kActivationSpill));
  EXPECT_TRUE(injector.FailsStripeWrite(2));
  EXPECT_TRUE(injector.FailsStripeWrite(2));
  EXPECT_FALSE(injector.FailsStripeWrite(0));
  EXPECT_EQ(injector.counts().stripe_write_failures, 2);
}

using TransferEngineTest = TempDirTest;
TEST_F(TransferEngineTest, StripeDeathRescalesThrottledChannels) {
  // RAID-0 physics: losing 1 of 4 devices loses a quarter of the
  // array's lanes, so both throttled channels re-rate to 0.75x once the
  // store declares the stripe dead.
  const double kBw = 8.0 * (1 << 20);
  FaultInjector injector{FaultConfig{}};
  TransferOptions opts;
  opts.dir = tmp.Sub("degrade");
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.read_bandwidth = kBw;
  opts.write_bandwidth = kBw;
  opts.fault_injector = &injector;
  opts.stripe_death_threshold = 1;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  EXPECT_DOUBLE_EQ((*engine)->current_read_bandwidth(), kBw);
  EXPECT_DOUBLE_EQ((*engine)->current_write_bandwidth(), kBw);

  std::vector<uint8_t> blob(64 * 1024, 0xA5);  // 16 chunks: all stripes
  ASSERT_TRUE((*engine)
                  ->Write(FlowClass::kCheckpoint, "pre", blob.data(),
                          blob.size())
                  .ok());
  injector.KillStripe(0);
  // The write that trips the wear-out fault is retried around the dead
  // stripe, so the data path stays correct while the channels degrade.
  ASSERT_TRUE((*engine)
                  ->Write(FlowClass::kCheckpoint, "post", blob.data(),
                          blob.size())
                  .ok());
  std::vector<uint8_t> out(blob.size());
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kCheckpoint, "post", out.data(), out.size())
          .ok());
  EXPECT_EQ(out, blob);
  EXPECT_GE(injector.counts().stripe_write_failures, 1);
  EXPECT_DOUBLE_EQ((*engine)->current_read_bandwidth(), kBw * 0.75);
  EXPECT_DOUBLE_EQ((*engine)->current_write_bandwidth(), kBw * 0.75);
}

TEST_F(TransferEngineTest, StoreBusyTimeExcludesQueueWait) {
  // The replanner's bandwidth sample is store bytes per busy second. A
  // burst of writes queued at once on a throttled channel must read
  // close to the channel's rate that way, while bytes per summed
  // submit-to-completion second — which counts every request's queue
  // wait — reads a fraction of it.
  const double kBw = 4.0 * (1 << 20);
  TransferOptions opts;
  opts.dir = tmp.Sub("busy");
  opts.write_bandwidth = kBw;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  constexpr int kWrites = 8;
  constexpr int64_t kBytes = 32 * 1024;
  const std::vector<uint8_t> blob(kBytes, 0x5A);
  std::vector<TransferEngine::Ticket> tickets;
  for (int i = 0; i < kWrites; ++i) {
    tickets.push_back((*engine)->SubmitWrite(FlowClass::kCheckpoint,
                                             "burst" + std::to_string(i),
                                             blob.data(), kBytes));
  }
  ASSERT_TRUE((*engine)->WaitAll(tickets).ok());
  const TransferStats stats = (*engine)->stats();
  const double bytes = static_cast<double>(kWrites * kBytes);
  ASSERT_GT(stats.store_write_busy_seconds, 0.0);
  const double busy_bw = bytes / stats.store_write_busy_seconds;
  const double latency_bw =
      bytes / stats.Flow(FlowClass::kCheckpoint).write_seconds;
  // The throttle never lets bytes through faster than its rate.
  EXPECT_LE(busy_bw, kBw * 1.05);
  EXPECT_GT(busy_bw, 2.0 * latency_bw);
  EXPECT_EQ(stats.store_read_busy_seconds, 0.0);  // no read was served
}

TEST_F(TransferEngineTest, DegradeKnobOffKeepsNameplateBandwidth) {
  const double kBw = 8.0 * (1 << 20);
  FaultInjector injector{FaultConfig{}};
  TransferOptions opts;
  opts.dir = tmp.Sub("no_degrade");
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.read_bandwidth = kBw;
  opts.write_bandwidth = kBw;
  opts.fault_injector = &injector;
  opts.stripe_death_threshold = 1;
  opts.degrade_bandwidth_on_stripe_death = false;
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  injector.KillStripe(1);
  std::vector<uint8_t> blob(64 * 1024, 0x3C);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kCheckpoint, "b", blob.data(), blob.size())
          .ok());
  EXPECT_DOUBLE_EQ((*engine)->current_read_bandwidth(), kBw);
  EXPECT_DOUBLE_EQ((*engine)->current_write_bandwidth(), kBw);
}

// ---------- Trainer hot-swap safety ----------

ag::TinyGptConfig TinyConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

std::vector<TokenBatch> CollectBatches(int steps, int batch) {
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  std::vector<TokenBatch> batches;
  for (int i = 0; i < steps; ++i) batches.push_back(ds.NextBatch(batch));
  return batches;
}

std::vector<float> RunTrainer(RatelTrainer* trainer,
                              const std::vector<TokenBatch>& batches,
                              int batch) {
  std::vector<float> losses;
  for (const TokenBatch& b : batches) {
    auto loss = trainer->TrainStep(b.ids, b.targets, batch);
    EXPECT_TRUE(loss.ok()) << loss.status().message();
    EXPECT_TRUE(std::isfinite(*loss));
    losses.push_back(*loss);
  }
  return losses;
}

using ReplanTrainerTest = TempDirTest;
TEST_F(ReplanTrainerTest, ArmedButQuietLoopIsBitwiseIdenticalToDisabled) {
  // The armed-but-never-firing loop must be a pure observer: with the
  // trigger out of reach, every per-step loss matches the disabled
  // trainer bit for bit even though the replanner's initial plan (and
  // possibly a partial spill set) is installed and live.
  const int kSteps = 6, kBatch = 2;
  const auto batches = CollectBatches(kSteps, kBatch);

  ag::TinyGpt model_a(TinyConfig(), 71);
  TrainerOptions opts_a;
  opts_a.store_dir = tmp.Sub("quiet_a");
  opts_a.spill_activations = true;
  auto trainer_a = RatelTrainer::Create(&model_a, opts_a);
  ASSERT_TRUE(trainer_a.ok());
  const auto losses_a = RunTrainer(trainer_a->get(), batches, kBatch);

  ag::TinyGpt model_b(TinyConfig(), 71);
  TrainerOptions opts_b = opts_a;
  opts_b.store_dir = tmp.Sub("quiet_b");
  opts_b.replan.enabled = true;
  opts_b.replan.deviation_threshold = 1e9;  // unreachable: never fires
  auto trainer_b = RatelTrainer::Create(&model_b, opts_b);
  ASSERT_TRUE(trainer_b.ok());
  const auto losses_b = RunTrainer(trainer_b->get(), batches, kBatch);

  ASSERT_EQ(losses_a.size(), losses_b.size());
  for (size_t i = 0; i < losses_a.size(); ++i) {
    EXPECT_EQ(losses_a[i], losses_b[i]) << "step " << i << " diverged";
  }
  ASSERT_NE((*trainer_b)->replanner(), nullptr);
  EXPECT_EQ((*trainer_a)->replanner(), nullptr);
  const StepStats& stats = (*trainer_b)->last_step_stats();
  EXPECT_EQ(stats.replans, 0);
  EXPECT_EQ((*trainer_b)->active_schedule().version, 0);
  EXPECT_GT((*trainer_b)->replanner()->observation().windows, 0);
}

TEST_F(ReplanTrainerTest, MidRunStripeDeathReplansAndStaysLossEquivalent) {
  // The full loop under fire: stripes wear out mid-run while the async
  // optimizer holds pending deferred epochs across the step boundary
  // and the prefetcher issues gated reads. The replanner must observe
  // the bandwidth collapse, re-solve, and hot-swap the schedule — and
  // the loss trajectory must stay bitwise identical to an undisturbed
  // unthrottled run, because every swapped quantity (spill set,
  // prefetch depth) is numerics-neutral.
  const int kSteps = 10, kBatch = 2;
  const auto batches = CollectBatches(kSteps, kBatch);

  TrainerOptions common;
  common.spill_activations = true;
  common.async_optimizer = true;
  common.async_partition_chunk = 64;  // multi-chunk: a real deferred tail
  common.async_background_threads = 2;

  ag::TinyGpt model_a(TinyConfig(), 72);
  TrainerOptions opts_a = common;
  opts_a.store_dir = tmp.Sub("fire_a");
  auto trainer_a = RatelTrainer::Create(&model_a, opts_a);
  ASSERT_TRUE(trainer_a.ok());
  const auto losses_a = RunTrainer(trainer_a->get(), batches, kBatch);

  ag::TinyGpt model_b(TinyConfig(), 72);
  FaultInjector injector{FaultConfig{}};
  TrainerOptions opts_b = common;
  opts_b.store_dir = tmp.Sub("fire_b");
  // Throttle slow enough that the deterministic bandwidth sleeps
  // dominate service latency even under sanitizer + parallel-ctest
  // load — otherwise scheduler jitter can out-shout the physical
  // bandwidth halving and calibrate the profile the wrong way. This
  // model's blobs are ~1 KiB: at 8 MiB/s a transfer took ~0.1 ms, on
  // the order of a loaded host's wake-up latency, and a pre-kill window
  // could read 1.7x its neighbour; at 4 MiB/s the post-kill bandwidth
  // reads at most 0.66x the baseline in 250 loaded runs.
  const double kBw = 4.0 * (1 << 20);
  opts_b.ssd_read_bandwidth = kBw;
  opts_b.ssd_write_bandwidth = kBw;
  opts_b.stripe_chunk_bytes = 4096;  // stripe every blob across devices
  opts_b.stripe_death_threshold = 1;
  opts_b.fault_injector = &injector;
  opts_b.replan.enabled = true;
  opts_b.replan.deviation_threshold = 0.2;
  // Smoothed + hysteretic: a single noisy window must not re-anchor
  // the baseline before the sustained wear-out signal arrives.
  opts_b.replan.hysteresis_windows = 2;
  opts_b.replan.cooldown_windows = 2;
  opts_b.replan.ewma_alpha = 0.5;
  auto trainer_b = RatelTrainer::Create(&model_b, opts_b);
  ASSERT_TRUE(trainer_b.ok());

  std::vector<float> losses_b;
  int64_t deferred = 0;
  for (int i = 0; i < kSteps; ++i) {
    auto loss =
        (*trainer_b)->TrainStep(batches[i].ids, batches[i].targets, kBatch);
    ASSERT_TRUE(loss.ok()) << "step " << i << ": " << loss.status().message();
    losses_b.push_back(*loss);
    deferred += (*trainer_b)->last_step_stats().deferred_epochs;
    if (i == 2) {
      // Two of four devices wear out between steps: array bandwidth
      // halves once the store declares them dead.
      injector.KillStripe(0);
      injector.KillStripe(1);
    }
  }

  ASSERT_EQ(losses_a.size(), losses_b.size());
  for (size_t i = 0; i < losses_a.size(); ++i) {
    EXPECT_EQ(losses_a[i], losses_b[i]) << "step " << i << " diverged";
  }
  EXPECT_GT(deferred, 0) << "async tail never deferred: hot-swap untested";
  // The wear-out really degraded the array and the loop really fired.
  EXPECT_GE(injector.counts().stripe_write_failures, 1);
  EXPECT_LT((*trainer_b)->engine().current_write_bandwidth(), kBw);
  const StepStats& stats = (*trainer_b)->last_step_stats();
  EXPECT_GE(stats.replans, 1) << "bandwidth collapse never triggered a solve";
  ASSERT_NE((*trainer_b)->replanner(), nullptr);
  EXPECT_GE((*trainer_b)->replanner()->observation().resolves, 1);
  EXPECT_GE((*trainer_b)->active_schedule().version, 1);
  // The re-solve calibrated the SSD terms downward from nameplate.
  const HardwareProfile calibrated =
      (*trainer_b)->replanner()->current_profile();
  EXPECT_LT(calibrated.bw_m2s, kBw);
}

TEST_F(ReplanTrainerTest, PartialSpillSetIsLossEquivalentToSpillEverything) {
  // With the SSD nameplate rates tiny, Algorithm 1 swaps only the
  // inter-block minimum — the installed schedule carries a *partial*
  // spill set. The partial path must move strictly fewer activation
  // bytes while leaving the loss trajectory bitwise identical to the
  // classic spill-everything trainer (the spill round-trip is raw).
  const int kSteps = 3, kBatch = 2;
  const auto batches = CollectBatches(kSteps, kBatch);
  const double kBw = 8.0 * (1 << 20);

  ag::TinyGpt model_a(TinyConfig(), 73);
  TrainerOptions opts_a;
  opts_a.store_dir = tmp.Sub("partial_a");
  opts_a.spill_activations = true;
  opts_a.ssd_read_bandwidth = kBw;
  opts_a.ssd_write_bandwidth = kBw;
  auto trainer_a = RatelTrainer::Create(&model_a, opts_a);
  ASSERT_TRUE(trainer_a.ok());
  const auto losses_a = RunTrainer(trainer_a->get(), batches, kBatch);
  const int64_t spilled_a = (*trainer_a)
                                ->transfer_stats()
                                .Flow(FlowClass::kActivationSpill)
                                .bytes_written;

  ag::TinyGpt model_b(TinyConfig(), 73);
  TrainerOptions opts_b = opts_a;
  opts_b.store_dir = tmp.Sub("partial_b");
  opts_b.replan.enabled = true;
  opts_b.replan.deviation_threshold = 1e9;  // initial plan only, no solves
  auto trainer_b = RatelTrainer::Create(&model_b, opts_b);
  ASSERT_TRUE(trainer_b.ok());
  const auto losses_b = RunTrainer(trainer_b->get(), batches, kBatch);

  const RatelTrainer::ActiveSchedule& sched = (*trainer_b)->active_schedule();
  ASSERT_GT(sched.spill_fraction, 0.0);
  ASSERT_LT(sched.spill_fraction, 1.0)
      << "planner unexpectedly chose spill-everything; the partial path "
         "went unexercised";
  const int64_t spilled_b = (*trainer_b)
                                ->transfer_stats()
                                .Flow(FlowClass::kActivationSpill)
                                .bytes_written;
  EXPECT_GT(spilled_b, 0);
  EXPECT_LT(spilled_b, spilled_a);

  ASSERT_EQ(losses_a.size(), losses_b.size());
  for (size_t i = 0; i < losses_a.size(); ++i) {
    EXPECT_EQ(losses_a[i], losses_b[i]) << "step " << i << " diverged";
  }
}

TEST_F(ReplanTrainerTest, EnvKnobsArmTheLoopOnAnUnmodifiedTrainer) {
  ag::TinyGpt model(TinyConfig(), 74);
  TrainerOptions opts;  // replan left at its disabled default
  opts.store_dir = tmp.Sub("env_arm");
  opts.spill_activations = true;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_REPLAN", "1"},
                             // observer-only
                             {"RATEL_REPLAN_THRESHOLD_PCT", "1000000"}},
                            &opts)
                  .ok());
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());

  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const TokenBatch b = ds.NextBatch(2);
  auto loss = (*trainer)->TrainStep(b.ids, b.targets, 2);
  ASSERT_TRUE(loss.ok());
  ASSERT_NE((*trainer)->replanner(), nullptr);
  EXPECT_DOUBLE_EQ((*trainer)->replanner()->config().deviation_threshold,
                   10000.0);
  EXPECT_GE((*trainer)->last_step_stats().plan_staleness_pct, 0.0);
}

}  // namespace
}  // namespace ratel
