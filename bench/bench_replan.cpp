// BENCH_replan.json: the online re-planning loop under mid-run wear-out
// — a closed-loop (replan-enabled) TinyGpt fine-tune vs the static
// spill-everything baseline on the same throttled store, with two of
// four stripes killed mid-run (FaultInjector::KillStripe). The store
// declares them dead, re-stripes around them, and re-rates the throttled
// channels to the surviving bandwidth; the replanner sees the write-side
// service bandwidth collapse, calibrates the profile, and re-solves at a
// step boundary.
//
// The headline numbers are post-kill steady-state tokens/s for both
// modes and the closed-loop run's re-solve count. The closed-loop win
// decomposes into (a) the planner-driven spill set — Algorithm 1 moves
// only the inter-block minimum through the store instead of everything,
// available from the initial solve — and (b) the post-kill
// recalibration, which re-anchors the plan and deepens the parameter prefetch
// to match the degraded device. Acceptance (real run only): the
// closed-loop run's post-kill steady state reaches >= 1.3x the
// no-replan steady-state tokens/s, the kill run re-solves at least
// once, and a drift-free control run (replanner armed, no kill)
// performs exactly zero re-solves. Every schedule swap is
// numerics-neutral (spill round-trips raw bytes, prefetch depth is
// timing-only, recompute choices are advisory), so all modes' loss
// trajectories must be bitwise identical — asserted in smoke too.
//
// Usage: bench_replan [out.json]   (default: BENCH_replan.json)
// RATEL_BENCH_SMOKE=1 shrinks the run to a CI-sized smoke.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "runtime/ratel_trainer.h"
#include "storage/fault_injector.h"
#include "xfer/transfer_engine.h"

namespace {

using namespace ratel;

struct PhaseStats {
  double tok_s = 0.0;
  double step_ms = 0.0;
  int steps = 0;
};

struct ModeResult {
  bool ok = false;
  std::vector<double> step_s;
  std::vector<float> losses;
  PhaseStats pre;   // steps before the kill (whole run when no kill)
  PhaseStats post;  // steady state after the kill + settle window
  int64_t resolves = 0;
  int64_t replans = 0;
  int64_t windows = 0;
  int64_t schedule_version = 0;
  double spill_fraction = 1.0;
  int prefetch_depth = 0;
  double calibrated_bw_m2s = 0.0;  // plan's profile, bytes/s
  double engine_write_bw = 0.0;    // channel re-rate after stripe death
  int64_t act_store_bytes = 0;     // spill bytes through the store
  double staleness_pct = 0.0;
};

PhaseStats Phase(const std::vector<double>& step_s, int begin, int end,
                 int64_t tokens_per_step) {
  PhaseStats p;
  double total = 0.0;
  for (int i = begin; i < end; ++i) total += step_s[i];
  p.steps = end - begin;
  if (p.steps <= 0 || total <= 0.0) return p;
  p.tok_s = static_cast<double>(p.steps) * tokens_per_step / total;
  p.step_ms = 1e3 * total / p.steps;
  return p;
}

// One fine-tune run. `kill_at` >= 0 kills stripes 0 and 1 after that
// measured step completes (-1 never kills); `settle` steps after the
// kill are excluded from the post-kill steady state so the death
// threshold, re-stripe, and re-solve transients don't blur it.
ModeResult RunMode(const std::string& tag, bool replan_on, int kill_at,
                   int settle, int steps, const ag::TinyGptConfig& cfg,
                   double write_bw) {
  ag::TinyGpt model(cfg, /*seed=*/17);
  FaultInjector injector{FaultConfig{}};
  TrainerOptions opts;
  opts.store_dir = bench::ScratchDir("replan") + "/" + tag;
  opts.num_stripes = 4;
  // Small stripe chunk: every spilled blob stripes across the array, so
  // the mid-run wear-out touches all write traffic, not one shard.
  opts.stripe_chunk_bytes = 4096;
  opts.stripe_death_threshold = 1;
  // No DRAM tier: whatever the schedule spills round-trips the
  // throttled store, so the spill-set choice shows up in wall time.
  opts.host_cache_bytes = 0;
  opts.ssd_write_bandwidth = write_bw;
  opts.spill_activations = true;
  opts.fault_injector = &injector;
  if (replan_on) {
    opts.replan.enabled = true;
    opts.replan.deviation_threshold = 0.25;
    opts.replan.hysteresis_windows = 2;
    opts.replan.cooldown_windows = 2;
    opts.replan.ewma_alpha = 0.5;
  }
  auto trainer = RatelTrainer::Create(&model, opts);
  if (!trainer.ok()) {
    std::cerr << "trainer open failed: " << trainer.status().ToString()
              << "\n";
    return {};
  }

  Rng rng(5);
  const int batch = 2;
  std::vector<int64_t> ids(batch * cfg.seq_len), targets(batch * cfg.seq_len);
  auto next_batch = [&] {
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int64_t>(rng.NextBelow(cfg.vocab_size));
      targets[i] = (ids[i] * 3 + 1) % cfg.vocab_size;
    }
  };

  ModeResult result;
  // One warmup step primes the buffer pool and, with the replanner
  // armed, builds the workload profile and installs the initial plan.
  next_batch();
  if (!(*trainer)->TrainStep(ids, targets, batch).ok()) return {};
  const TransferStats t0 = (*trainer)->transfer_stats();
  for (int step = 0; step < steps; ++step) {
    next_batch();
    auto loss = (*trainer)->TrainStep(ids, targets, batch);
    if (!loss.ok()) {
      std::cerr << "step failed: " << loss.status().ToString() << "\n";
      return {};
    }
    result.step_s.push_back((*trainer)->last_step_stats().total_s);
    result.losses.push_back(*loss);
    if (step == kill_at) {
      injector.KillStripe(0);
      injector.KillStripe(1);
    }
  }
  const TransferStats t1 = (*trainer)->transfer_stats();
  const FlowCounters& a0 = t0.Flow(FlowClass::kActivationSpill);
  const FlowCounters& a1 = t1.Flow(FlowClass::kActivationSpill);
  result.act_store_bytes = a1.encoded_bytes_written - a0.encoded_bytes_written;

  const int64_t tokens_per_step = int64_t{batch} * cfg.seq_len;
  const int pre_end = kill_at >= 0 ? kill_at + 1 : steps;
  result.pre = Phase(result.step_s, 0, pre_end, tokens_per_step);
  if (kill_at >= 0) {
    result.post =
        Phase(result.step_s, kill_at + 1 + settle, steps, tokens_per_step);
  }

  const StepStats& stats = (*trainer)->last_step_stats();
  result.replans = stats.replans;
  result.staleness_pct = stats.plan_staleness_pct;
  const auto& schedule = (*trainer)->active_schedule();
  result.spill_fraction = schedule.spill_fraction;
  result.prefetch_depth = schedule.prefetch_depth;
  result.schedule_version = schedule.version;
  if (const Replanner* rp = (*trainer)->replanner()) {
    const ReplanObservation obs = rp->observation();
    result.resolves = obs.resolves;
    result.windows = obs.windows;
    result.calibrated_bw_m2s = rp->current_profile().bw_m2s;
  }
  result.engine_write_bw = (*trainer)->engine().current_write_bandwidth();
  result.ok = true;
  return result;
}

void Report(bench::BenchReport* report, const std::string& mode,
            const ModeResult& r) {
  report->Add(mode + "/pre_kill_tokens_per_s", 1, r.pre.tok_s, "tok/s");
  report->Add(mode + "/pre_kill_step_ms", 1, r.pre.step_ms, "ms");
  if (r.post.steps > 0) {
    report->Add(mode + "/post_kill_tokens_per_s", 1, r.post.tok_s, "tok/s");
    report->Add(mode + "/post_kill_step_ms", 1, r.post.step_ms, "ms");
  }
  report->Add(mode + "/resolves", 1, static_cast<double>(r.resolves), "");
  report->Add(mode + "/replans", 1, static_cast<double>(r.replans), "");
  report->Add(mode + "/spill_fraction", 1, r.spill_fraction, "");
  report->Add(mode + "/prefetch_depth", 1,
              static_cast<double>(r.prefetch_depth), "");
  report->Add(mode + "/ssd_act_bytes_per_step", 1,
              static_cast<double>(r.act_store_bytes) / r.step_s.size(), "B");
  report->Add(mode + "/engine_write_bw", 1, r.engine_write_bw, "B/s");
  if (r.calibrated_bw_m2s > 0.0) {
    report->Add(mode + "/calibrated_bw_m2s", 1, r.calibrated_bw_m2s, "B/s");
  }
  report->Add(mode + "/final_loss", 1, r.losses.back(), "");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_replan.json";
  const bool smoke = ratel::bench::SmokeMode();

  ag::TinyGptConfig cfg;
  cfg.vocab_size = 64;
  cfg.seq_len = smoke ? 8 : 64;
  cfg.hidden_dim = smoke ? 24 : 48;
  cfg.num_heads = 4;
  cfg.num_layers = smoke ? 2 : 4;
  const int steps = smoke ? 6 : 16;
  const int kill_at = smoke ? 2 : 5;
  const int settle = smoke ? 1 : 2;
  // Throttle sized so the spill writeback dominates the step — the
  // regime where the spill-set choice and the post-kill re-rate move
  // tokens/s.
  const double write_bw = smoke ? 256e6 : 40e6;

  const ModeResult station =
      RunMode("static", /*replan_on=*/false, kill_at, settle, steps, cfg,
              write_bw);
  const ModeResult closed =
      RunMode("replan", /*replan_on=*/true, kill_at, settle, steps, cfg,
              write_bw);
  const ModeResult driftfree =
      RunMode("driftfree", /*replan_on=*/true, /*kill_at=*/-1, settle, steps,
              cfg, write_bw);
  if (!station.ok || !closed.ok || !driftfree.ok) return 1;

  bench::BenchReport report("replan");
  Report(&report, "static", station);
  Report(&report, "replan", closed);
  Report(&report, "driftfree", driftfree);
  const double recovery = closed.post.tok_s / station.post.tok_s;
  report.Add("replan/post_kill_recovery_vs_static", 1, recovery, "x");

  report.PrintTable(std::cout);
  const Status st = report.WriteJson(out_path);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  // Loss equivalence binds in smoke too: the schedule swap never
  // touches numerics, and stripe wear-out only perturbs timing (writes
  // are retried around the dead stripes), so all three trajectories are
  // bitwise identical by construction.
  for (int i = 0; i < steps; ++i) {
    if (station.losses[i] != closed.losses[i] ||
        station.losses[i] != driftfree.losses[i]) {
      std::cerr << "FAIL: loss trajectories diverge at step " << i << " ("
                << station.losses[i] << " static vs " << closed.losses[i]
                << " replan vs " << driftfree.losses[i] << " drift-free)\n";
      return 1;
    }
  }
  // Smoke mode is a bit-rot check, not a measurement: the timing and
  // re-solve acceptance binds on the real run only (smoke windows are
  // microsecond-scale, too noisy for the drift detector's contract).
  if (smoke) return 0;
  if (driftfree.resolves != 0) {
    std::cerr << "FAIL: drift-free run performed " << driftfree.resolves
              << " re-solves (expected exactly 0: drift is measured "
                 "against the loop's own locked baseline)\n";
    return 1;
  }
  if (closed.resolves < 1) {
    std::cerr << "FAIL: closed-loop run never re-solved after the "
                 "mid-run stripe kill\n";
    return 1;
  }
  if (recovery < 1.3) {
    std::cerr << "FAIL: post-kill steady state recovered only " << recovery
              << "x of the no-replan baseline (floor: 1.3x)\n";
    return 1;
  }
  return 0;
}
