// BENCH_multitenant.json: N concurrent TinyGpt fine-tuning jobs through
// the JobManager on ONE shared TransferEngine, A/B-ing the tenancy
// layer's weighted fair share against plain FIFO queues.
//
// The fleet is adversarial on purpose: four "bully" jobs with a larger
// model flood the shared I/O scheduler with their optimizer-state
// writebacks while four latency-sensitive "victim" jobs (higher tenant
// weight) run small steps. Under FIFO tenancy a victim's state writes
// queue behind whole bully bursts, inflating its step tail; DWRR
// interleaves the lanes per byte-deficit, so the victims' p99 step
// latency must drop with no aggregate tokens/s regression. A 9th job
// over the SSD budget must be parked by admission control (queued, then
// run when capacity frees) — never started into an overcommitted store.
// Per-tenant accounting is reconciled exactly against the engine totals
// in both modes.
//
// The third scenario is job-stream churn: a seeded, Poisson-ish stream
// of arrivals (exponential inter-arrival gaps drawn from one Rng, so
// the stream replays identically) whose job sizes, step counts, and
// weights churn while earlier jobs depart. The SSD budget holds only a
// few jobs, so arrivals outrun departures, admission parks the
// overflow, and every departure re-admits the queue head — the
// steady-state tenancy regime rather than the one-shot fleet above.
// Acceptance: no arrival is rejected, every job (parked ones included)
// runs to completion, and accounting still reconciles exactly.
//
// Usage: bench_multitenant [out.json]   (default: BENCH_multitenant.json)
// RATEL_BENCH_SMOKE=1 shrinks the run to a CI-sized smoke.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "runtime/job_manager.h"

namespace {

using namespace ratel;

constexpr int kBullies = 4;
constexpr int kVictims = 4;

struct FleetResult {
  bool ok = false;
  double aggregate_tokens_per_s = 0.0;
  double victim_p99_s = 0.0;       // worst victim tail
  double victim_mean_step_s = 0.0;
  double bully_p99_s = 0.0;
  AdmissionVerdict ninth_verdict = AdmissionVerdict::kAdmitted;
  bool ninth_finished = false;
  bool reconciled = false;
};

ag::TinyGptConfig VictimConfig(bool smoke) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 8;
  cfg.hidden_dim = 24;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  (void)smoke;
  return cfg;
}

ag::TinyGptConfig BullyConfig(bool smoke) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 64;
  cfg.seq_len = smoke ? 8 : 16;
  cfg.hidden_dim = smoke ? 32 : 48;
  cfg.num_heads = 4;
  cfg.num_layers = smoke ? 2 : 3;
  return cfg;
}

bool Reconciles(TransferEngine& engine) {
  const TransferStats total = engine.stats();
  for (int f = 0; f < kNumFlowClasses; ++f) {
    int64_t reads = 0, writes = 0, bytes_read = 0, bytes_written = 0;
    for (TenantId t : engine.tenants()) {
      const TransferStats part = engine.tenant_stats(t);
      reads += part.flow[f].reads;
      writes += part.flow[f].writes;
      bytes_read += part.flow[f].bytes_read;
      bytes_written += part.flow[f].bytes_written;
    }
    if (reads != total.flow[f].reads || writes != total.flow[f].writes ||
        bytes_read != total.flow[f].bytes_read ||
        bytes_written != total.flow[f].bytes_written) {
      return false;
    }
  }
  return true;
}

FleetResult RunFleet(bool fair_share, bool smoke, int steps) {
  const ag::TinyGptConfig victim_cfg = VictimConfig(smoke);
  const ag::TinyGptConfig bully_cfg = BullyConfig(smoke);
  const JobDemand victim_demand = PlanJobDemand(victim_cfg, 2);
  const JobDemand bully_demand = PlanJobDemand(bully_cfg, 2);

  JobManager::Options options;
  options.engine.dir =
      bench::ScratchDir("mt") + (fair_share ? "/fair" : "/fifo");
  options.engine.num_stripes = 4;
  options.engine.chunk_bytes = 1 << 18;
  options.engine.io_workers = 2;
  options.engine.host_cache_bytes = int64_t{64} << 20;
  // The store-write throttle is the contended resource: bully state
  // writebacks occupy the array long enough that queueing discipline
  // decides the victims' tail.
  options.engine.write_bandwidth = smoke ? 0.0 : 48e6;
  options.engine.fair_share = fair_share;
  options.engine.fair_quantum_bytes = 16 * 1024;
  // Budget fits the 8-job fleet; the 9th job must wait its turn.
  options.ssd_budget_bytes = kBullies * bully_demand.ssd_bytes +
                             kVictims * victim_demand.ssd_bytes +
                             victim_demand.ssd_bytes / 2;
  options.dram_budget_bytes = 0;  // the SSD axis is the gate under test

  auto manager_or = JobManager::Create(options);
  if (!manager_or.ok()) {
    std::cerr << "manager open failed: "
              << manager_or.status().ToString() << "\n";
    return {};
  }
  JobManager& manager = **manager_or;

  FleetResult result;
  for (int j = 0; j < kBullies + kVictims; ++j) {
    const bool bully = j < kBullies;
    JobSpec spec;
    spec.name = (bully ? "bully" : "victim") + std::to_string(bully ? j : j - kBullies);
    spec.model = bully ? bully_cfg : victim_cfg;
    spec.seed = 100 + j;
    spec.batch = 2;
    spec.steps = steps;
    // Victims are the latency-sensitive class: 4x the scheduler share.
    spec.weight = bully ? 1 : 4;
    auto verdict = manager.Submit(spec);
    if (!verdict.ok() || *verdict != AdmissionVerdict::kAdmitted) {
      std::cerr << "job " << spec.name << " not admitted\n";
      return {};
    }
  }

  // The 9th job exceeds the remaining SSD budget: admission parks it
  // (FIFO) instead of overcommitting the array — it still runs once a
  // neighbor finishes and releases capacity.
  JobSpec ninth;
  ninth.name = "ninth";
  ninth.model = victim_cfg;
  ninth.seed = 999;
  ninth.batch = 2;
  ninth.steps = steps;
  auto ninth_verdict = manager.Submit(ninth);
  if (!ninth_verdict.ok()) {
    std::cerr << "ninth submit failed\n";
    return {};
  }
  result.ninth_verdict = *ninth_verdict;

  const Status status = manager.WaitAll();
  if (!status.ok()) {
    std::cerr << "fleet failed: " << status.ToString() << "\n";
    return {};
  }

  const JobManagerStats stats = manager.Stats();
  result.aggregate_tokens_per_s = stats.aggregate_tokens_per_s;
  double victim_mean_sum = 0.0;
  for (const JobStats& job : stats.jobs) {
    if (job.state != JobState::kFinished) {
      std::cerr << "job " << job.name << " ended "
                << JobStateName(job.state) << "\n";
      return {};
    }
    if (job.name == "ninth") {
      result.ninth_finished = true;
    } else if (job.name.rfind("victim", 0) == 0) {
      result.victim_p99_s = std::max(result.victim_p99_s,
                                     job.p99_step_seconds);
      victim_mean_sum += job.mean_step_seconds;
    } else {
      result.bully_p99_s = std::max(result.bully_p99_s,
                                    job.p99_step_seconds);
    }
  }
  result.victim_mean_step_s = victim_mean_sum / kVictims;
  result.reconciled = Reconciles(manager.engine());
  result.ok = true;
  return result;
}

struct ChurnResult {
  bool ok = false;
  int jobs = 0;
  int queued_on_arrival = 0;  // parked by admission, not started
  int queued_then_ran = 0;    // parked arrivals a departure released
  int max_concurrent = 0;     // peak running jobs, sampled at arrivals
  int rejected = 0;
  double makespan_s = 0.0;
  double aggregate_tokens_per_s = 0.0;
  bool all_finished = false;
  bool reconciled = false;
};

// Seeded job-stream churn: arrivals with pseudo-exponential gaps, sizes
// and lifetimes drawn from the same Rng, departures releasing capacity
// back to the FIFO admission queue. The stream itself is reproducible;
// only wall-clock interleaving varies run to run.
ChurnResult RunChurn(bool smoke, uint64_t seed) {
  const ag::TinyGptConfig small_cfg = VictimConfig(smoke);
  const ag::TinyGptConfig big_cfg = BullyConfig(smoke);
  const JobDemand big_demand = PlanJobDemand(big_cfg, 2);

  JobManager::Options options;
  options.engine.dir = bench::ScratchDir("mt") + "/churn";
  options.engine.num_stripes = 4;
  options.engine.chunk_bytes = 1 << 18;
  options.engine.io_workers = 2;
  options.engine.host_cache_bytes = int64_t{64} << 20;
  options.engine.write_bandwidth = smoke ? 0.0 : 48e6;
  options.engine.fair_share = true;
  options.engine.fair_quantum_bytes = 16 * 1024;
  // Room for ~3 of the largest job: the stream outruns departures, so
  // admission must park the overflow and drain it as neighbors finish.
  options.ssd_budget_bytes = 3 * big_demand.ssd_bytes +
                             big_demand.ssd_bytes / 2;
  options.dram_budget_bytes = 0;

  auto manager_or = JobManager::Create(options);
  if (!manager_or.ok()) {
    std::cerr << "churn manager open failed: "
              << manager_or.status().ToString() << "\n";
    return {};
  }
  JobManager& manager = **manager_or;

  Rng rng(seed);
  ChurnResult result;
  result.jobs = smoke ? 5 : 12;
  const double mean_gap_s = smoke ? 0.004 : 0.04;
  const auto t0 = std::chrono::steady_clock::now();
  for (int j = 0; j < result.jobs; ++j) {
    JobSpec spec;
    spec.name = "churn" + std::to_string(j);
    spec.model = rng.NextBelow(3) == 0 ? big_cfg : small_cfg;
    spec.seed = 500 + j;
    spec.batch = 2;
    spec.steps = 2 + static_cast<int64_t>(rng.NextBelow(smoke ? 3 : 5));
    spec.weight = 1 + static_cast<int>(rng.NextBelow(4));
    auto verdict = manager.Submit(spec);
    if (!verdict.ok()) {
      std::cerr << "churn submit failed: " << verdict.status().ToString()
                << "\n";
      return {};
    }
    if (*verdict == AdmissionVerdict::kQueued) ++result.queued_on_arrival;
    if (*verdict == AdmissionVerdict::kRejected) ++result.rejected;
    int running = 0;
    for (const JobStats& job : manager.Stats().jobs) {
      if (job.state == JobState::kRunning) ++running;
    }
    result.max_concurrent = std::max(result.max_concurrent, running);
    if (j + 1 < result.jobs) {
      // Inverse-CDF exponential gap from the seeded stream, capped so
      // one long draw cannot drain the fleet between arrivals.
      const double gap = -mean_gap_s * std::log(1.0 - rng.NextDouble());
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(gap, 8.0 * mean_gap_s)));
    }
  }

  const Status status = manager.WaitAll();
  if (!status.ok()) {
    std::cerr << "churn fleet failed: " << status.ToString() << "\n";
    return {};
  }
  result.makespan_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const JobManagerStats stats = manager.Stats();
  result.aggregate_tokens_per_s = stats.aggregate_tokens_per_s;
  result.all_finished = true;
  for (const JobStats& job : stats.jobs) {
    if (job.state != JobState::kFinished) {
      std::cerr << "churn job " << job.name << " ended "
                << JobStateName(job.state) << "\n";
      result.all_finished = false;
    }
    if (job.verdict == AdmissionVerdict::kQueued &&
        job.state == JobState::kFinished) {
      ++result.queued_then_ran;
    }
  }
  result.reconciled = Reconciles(manager.engine());
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_multitenant.json";
  const bool smoke = ratel::bench::SmokeMode();
  const int steps = smoke ? 2 : 6;

  const FleetResult fifo = RunFleet(/*fair_share=*/false, smoke, steps);
  const FleetResult fair = RunFleet(/*fair_share=*/true, smoke, steps);
  const ChurnResult churn = RunChurn(smoke, /*seed=*/0xC0FFEE);
  if (!fifo.ok || !fair.ok || !churn.ok) return 1;

  bench::BenchReport report("multitenant");
  report.Add("fifo/aggregate_tokens_per_s", kBullies + kVictims + 1,
             fifo.aggregate_tokens_per_s, "tok/s");
  report.Add("fair/aggregate_tokens_per_s", kBullies + kVictims + 1,
             fair.aggregate_tokens_per_s, "tok/s");
  report.Add("fifo/victim_p99_step_ms", kVictims, 1e3 * fifo.victim_p99_s,
             "ms");
  report.Add("fair/victim_p99_step_ms", kVictims, 1e3 * fair.victim_p99_s,
             "ms");
  report.Add("fifo/victim_mean_step_ms", kVictims,
             1e3 * fifo.victim_mean_step_s, "ms");
  report.Add("fair/victim_mean_step_ms", kVictims,
             1e3 * fair.victim_mean_step_s, "ms");
  report.Add("fifo/bully_p99_step_ms", kBullies, 1e3 * fifo.bully_p99_s,
             "ms");
  report.Add("fair/bully_p99_step_ms", kBullies, 1e3 * fair.bully_p99_s,
             "ms");
  report.Add("fair/victim_p99_improvement", kVictims,
             fifo.victim_p99_s / std::max(fair.victim_p99_s, 1e-9), "x");
  report.Add("fair/tokens_ratio_vs_fifo", kBullies + kVictims + 1,
             fair.aggregate_tokens_per_s /
                 std::max(fifo.aggregate_tokens_per_s, 1e-9),
             "x");
  report.Add("ninth_job_queued", 1,
             fair.ninth_verdict == AdmissionVerdict::kQueued ? 1.0 : 0.0, "");
  report.Add("accounting_reconciled", 1,
             (fair.reconciled && fifo.reconciled) ? 1.0 : 0.0, "");
  report.Add("churn/jobs", churn.jobs, static_cast<double>(churn.jobs), "");
  report.Add("churn/queued_on_arrival", churn.jobs,
             static_cast<double>(churn.queued_on_arrival), "");
  report.Add("churn/queued_then_ran", churn.jobs,
             static_cast<double>(churn.queued_then_ran), "");
  report.Add("churn/max_concurrent", churn.jobs,
             static_cast<double>(churn.max_concurrent), "");
  report.Add("churn/makespan_s", churn.jobs, churn.makespan_s, "s");
  report.Add("churn/aggregate_tokens_per_s", churn.jobs,
             churn.aggregate_tokens_per_s, "tok/s");
  report.Add("churn/accounting_reconciled", churn.jobs,
             churn.reconciled ? 1.0 : 0.0, "");

  report.PrintTable(std::cout);
  const Status st = report.WriteJson(out_path);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  // Structural acceptance binds in every mode: admission must park the
  // over-budget job (and still run it), and per-tenant accounting must
  // reconcile exactly against the engine totals.
  if (fair.ninth_verdict != AdmissionVerdict::kQueued ||
      fifo.ninth_verdict != AdmissionVerdict::kQueued) {
    std::cerr << "FAIL: over-budget 9th job was not queued (fair="
              << AdmissionVerdictName(fair.ninth_verdict) << ", fifo="
              << AdmissionVerdictName(fifo.ninth_verdict) << ")\n";
    return 1;
  }
  if (!fair.ninth_finished || !fifo.ninth_finished) {
    std::cerr << "FAIL: queued 9th job never ran to completion\n";
    return 1;
  }
  if (!fair.reconciled || !fifo.reconciled) {
    std::cerr << "FAIL: per-tenant accounting does not reconcile\n";
    return 1;
  }
  // Churn acceptance, structural part: nothing in the stream may be
  // rejected (every job fits the total budget), every job — parked ones
  // included — must run to completion, and accounting must reconcile
  // under arrivals/departures too.
  if (churn.rejected != 0 || !churn.all_finished || !churn.reconciled) {
    std::cerr << "FAIL: churn stream rejected=" << churn.rejected
              << " all_finished=" << churn.all_finished
              << " reconciled=" << churn.reconciled << "\n";
    return 1;
  }
  // Under the real throttle the stream provably outruns departures:
  // admission must have parked at least one arrival and released it.
  if (!smoke && (churn.queued_on_arrival < 1 || churn.queued_then_ran < 1)) {
    std::cerr << "FAIL: churn never exercised the park/release path "
                 "(queued=" << churn.queued_on_arrival << ", ran="
              << churn.queued_then_ran << ")\n";
    return 1;
  }
  // Timing acceptance only binds on the real (throttled) run: fair
  // share must beat FIFO on the victims' tail without giving up
  // aggregate throughput.
  if (!smoke && fair.victim_p99_s >= fifo.victim_p99_s) {
    std::cerr << "FAIL: fair-share victim p99 (" << fair.victim_p99_s
              << "s) not below FIFO (" << fifo.victim_p99_s << "s)\n";
    return 1;
  }
  if (!smoke &&
      fair.aggregate_tokens_per_s < 0.9 * fifo.aggregate_tokens_per_s) {
    std::cerr << "FAIL: fair share regressed aggregate tokens/s ("
              << fair.aggregate_tokens_per_s << " vs "
              << fifo.aggregate_tokens_per_s << ")\n";
    return 1;
  }
  return 0;
}
