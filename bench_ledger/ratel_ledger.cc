// ratel_ledger: the performance ledger of the real runtime.
//
// One invocation runs one workload in its own process as a closed loop:
// each job's own thread calls RatelTrainer::TrainStep back to back
// for --seconds (after a short warmup), then a checkpoint probe runs on
// the workload's primary job. The ledger prints every end-to-end and
// per-layer metric by name and unit, checks that the outputs are
// correct, and exits non-zero when a check fails.
//
// Everything is measured from outside: the ledger times the calls it
// makes into public functions (RatelTrainer::Create, TrainStep,
// SaveCheckpoint, RestoreLatestCheckpoint) and reads public counters
// (StepStats, TransferEngine::stats()/tenant_stats(),
// AsyncUpdateEngine::stats(), BufferPool::stats(), DispatchStatsFor).
// bench_ledger/README.md is the metric dictionary.
//
// Usage:
//   ratel_ledger --workload=<name> [--seed=<n>] [--seconds=<s>]
//                [--trace=<path>] [--smoke] [--out=<json>]
//                [--store_root=<dir>]
// Workloads: offload_e2e, state_writeback, compute_resident, shared_3job.
// --trace records step spans and per-step counter samples in memory and
// writes them at exit as Chrome trace-event JSON. --smoke runs a few
// steps and skips the checks that need a full run.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage or environment error.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/status.h"
#include "runtime/compute_pool.h"
#include "runtime/ratel_trainer.h"
#include "simd/simd.h"
#include "xfer/tenant.h"
#include "xfer/transfer_engine.h"

extern char** environ;

namespace {

using namespace ratel;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;          // set-ups per run; setup_s is the median
constexpr int kProbeOps = 5;        // checkpoint saves and restores per run
constexpr int kWarmupSteps = 3;     // per job, and at least kWarmupSeconds
constexpr double kWarmupSeconds = 1.0;
constexpr int kDigestLosses = 24;   // first losses per job in the digest
constexpr int kLossWindow = 10;     // first/last losses compared
constexpr double kTailQuantile = 0.90;
constexpr int kTailBeyond = 10;     // samples required beyond the tail rank
constexpr int kSmokeSteps = 8;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t PeakRssBytes() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// ------------------------------------------------------------ workloads

struct JobPlan {
  std::string name;
  ag::TinyGptConfig model;
  int64_t batch = 2;
  int weight = 1;  // DWRR weight on a shared engine
};

struct WorkloadSpec {
  std::string name;
  std::vector<JobPlan> jobs;
  /// The job whose step latency is the workload's step_ms (the victim on
  /// shared_3job) and that runs the checkpoint probe.
  size_t primary = 0;
  TrainerOptions trainer;  // per-job knobs; engine knobs unless shared
  bool shared = false;     // one TransferEngine under every job
  TransferOptions engine;  // that engine's knobs (shared only)
};

ag::TinyGptConfig Gpt(int64_t vocab, int64_t seq, int64_t hidden,
                      int64_t heads, int64_t layers) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = vocab;
  cfg.seq_len = seq;
  cfg.hidden_dim = hidden;
  cfg.num_heads = heads;
  cfg.num_layers = layers;
  return cfg;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  TrainerOptions& t = w.trainer;
  t.num_stripes = 4;
  t.stripe_chunk_bytes = 1 << 20;
  if (name == "offload_e2e") {
    // The canonical configuration: spill with fp16 on the activation
    // flow and the async optimizer, sharing one throttled write channel.
    w.jobs = {{"main", Gpt(64, 64, 48, 4, 4), 2, 1}};
    t.ssd_read_bandwidth = 80e6;
    t.ssd_write_bandwidth = 40e6;
    t.host_cache_bytes = int64_t{8} << 20;
    t.spill_activations = true;
    t.codec.spec(FlowClass::kActivationSpill) = "fp16";
    t.async_optimizer = true;
    t.async_hot_fraction = 0.1;
    t.async_partition_chunk = 512;
  } else if (name == "state_writeback") {
    // Write-only throttle, no spill: the deferred writeback gates the
    // next step's P16 fetch, so the drain stall dominates the step.
    w.jobs = {{"main", Gpt(64, 64, 48, 4, 4), 2, 1}};
    t.ssd_write_bandwidth = 40e6;
    t.host_cache_bytes = int64_t{64} << 20;
    t.async_optimizer = true;
    t.async_hot_fraction = 0.1;
    t.async_partition_chunk = 512;
    t.async_background_threads = 4;
  } else if (name == "compute_resident") {
    // Unthrottled, DRAM-resident, sync optimizer: kernels and threading.
    w.jobs = {{"main", Gpt(256, 128, 128, 4, 4), 4, 1}};
    t.host_cache_bytes = int64_t{256} << 20;
  } else if (name == "shared_3job") {
    // Two bullies and a weighted victim on one fair-share engine.
    w.jobs = {{"bully0", Gpt(64, 16, 48, 4, 3), 2, 1},
              {"bully1", Gpt(64, 16, 48, 4, 3), 2, 1},
              {"victim", Gpt(48, 8, 24, 2, 2), 2, 4}};
    w.primary = 2;
    w.shared = true;
    w.engine.num_stripes = 4;
    w.engine.chunk_bytes = 256 * 1024;
    w.engine.io_workers = 2;
    w.engine.host_cache_bytes = int64_t{64} << 20;
    w.engine.write_bandwidth = 48e6;
    w.engine.fair_share = true;
    w.engine.fair_quantum_bytes = 16 * 1024;
  } else {
    return std::nullopt;
  }
  return w;
}

double ReadBandwidth(const WorkloadSpec& w) {
  return w.shared ? w.engine.read_bandwidth : w.trainer.ssd_read_bandwidth;
}
double WriteBandwidth(const WorkloadSpec& w) {
  return w.shared ? w.engine.write_bandwidth : w.trainer.ssd_write_bandwidth;
}

uint64_t MixSeed(uint64_t seed, uint64_t job, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + 2 * job + stream + 1;
}

/// The seeded token stream of one job: uniform ids, each target a fixed
/// function of its id (learnable, so the loss must fall).
class TokenStream {
 public:
  TokenStream(uint64_t seed, const JobPlan& plan)
      : rng_(seed),
        vocab_(plan.model.vocab_size),
        ids_(plan.batch * plan.model.seq_len),
        targets_(ids_.size()) {}

  void Next() {
    for (size_t i = 0; i < ids_.size(); ++i) {
      ids_[i] = static_cast<int64_t>(rng_.NextBelow(vocab_));
      targets_[i] = (ids_[i] * 3 + 1) % vocab_;
    }
  }
  const std::vector<int64_t>& ids() const { return ids_; }
  const std::vector<int64_t>& targets() const { return targets_; }

 private:
  Rng rng_;
  int64_t vocab_;
  std::vector<int64_t> ids_;
  std::vector<int64_t> targets_;
};

// ------------------------------------------------------------ set-up

struct Job {
  JobPlan plan;
  TenantId tenant = kDefaultTenant;
  std::unique_ptr<ag::TinyGpt> model;
  std::unique_ptr<RatelTrainer> trainer;  // after model: destroyed first
};

struct Rig {
  std::unique_ptr<TransferEngine> engine;  // shared engine; outlives jobs
  std::vector<Job> jobs;
};

TransferEngine& EngineOf(Rig& rig) {
  return rig.engine != nullptr ? *rig.engine : rig.jobs[0].trainer->engine();
}

TrainerOptions JobOptions(const WorkloadSpec& w, const Job& job,
                          const std::string& dir, TransferEngine* shared,
                          const std::string& key_suffix) {
  TrainerOptions opts = w.trainer;
  opts.store_dir = dir;
  if (shared != nullptr) {
    opts.shared_engine = shared;
    opts.tenant = job.tenant;
    opts.key_namespace = job.plan.name + key_suffix + "/";
  }
  return opts;
}

/// Model construction plus RatelTrainer::Create for every job (and the
/// shared engine's Open): the work setup_s times.
Result<Rig> SetUp(const WorkloadSpec& w, uint64_t seed,
                  const std::string& dir) {
  Rig rig;
  if (w.shared) {
    TransferOptions engine = w.engine;
    engine.dir = dir;
    RATEL_ASSIGN_OR_RETURN(rig.engine, TransferEngine::Open(engine));
  }
  rig.jobs.reserve(w.jobs.size());
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    Job job;
    job.plan = w.jobs[j];
    if (w.shared) {
      job.tenant = static_cast<TenantId>(j + 1);
      TenantConfig tenant;
      tenant.weight = job.plan.weight;
      rig.engine->ConfigureTenant(job.tenant, tenant);
    }
    job.model =
        std::make_unique<ag::TinyGpt>(job.plan.model, MixSeed(seed, j, 0));
    RATEL_ASSIGN_OR_RETURN(
        job.trainer,
        RatelTrainer::Create(job.model.get(),
                             JobOptions(w, job, dir, rig.engine.get(), "")));
    rig.jobs.push_back(std::move(job));
  }
  return rig;
}

// ------------------------------------------------------------ snapshots

/// Counter levels at one instant; metrics are deltas between two.
struct Snapshot {
  double t = 0.0;  // seconds since the measured loop's origin
  TransferStats xfer;
  std::vector<TransferStats> tenants;  // per job (shared engine only)
  AsyncUpdateEngine::Stats optim;      // summed over the jobs in scope
  BufferPool::Stats pool;
  DispatchCounts dispatch;  // summed over every KernelCost class
};

void Accumulate(AsyncUpdateEngine::Stats* sum,
                const AsyncUpdateEngine::Stats& s) {
  sum->hot_chunks += s.hot_chunks;
  sum->tail_chunks += s.tail_chunks;
  sum->deferred_epochs += s.deferred_epochs;
  sum->durable_fallback_epochs += s.durable_fallback_epochs;
  sum->drain_waits += s.drain_waits;
  sum->drain_stall_seconds += s.drain_stall_seconds;
  sum->background_seconds += s.background_seconds;
}

/// `job` < 0 takes every job's optimizer counters and the per-tenant
/// accounting; otherwise only that job's optimizer counters.
Snapshot Take(Rig& rig, double t, int job) {
  Snapshot s;
  s.t = t;
  TransferEngine& engine = EngineOf(rig);
  s.xfer = engine.stats();
  for (size_t j = 0; j < rig.jobs.size(); ++j) {
    if (job >= 0 && static_cast<size_t>(job) != j) continue;
    Accumulate(&s.optim, rig.jobs[j].trainer->optimizer().stats());
    if (job < 0 && rig.engine != nullptr) {
      s.tenants.push_back(engine.tenant_stats(rig.jobs[j].tenant));
    }
  }
  s.pool = engine.buffer_pool().stats();
  for (int c = 0; c < kNumKernelCosts; ++c) {
    const DispatchCounts d = DispatchStatsFor(static_cast<KernelCost>(c));
    s.dispatch.pooled += d.pooled;
    s.dispatch.serial += d.serial;
  }
  return s;
}

double PoolBytes(const Snapshot& s) {
  return static_cast<double>(s.pool.outstanding_bytes + s.pool.pooled_bytes);
}

// ------------------------------------------------------------ the loop

struct StepRecord {
  double start_s = 0.0;  // since the loop's origin
  double dur_s = 0.0;    // the ledger-timed TrainStep call
  StepStats stats;
};

struct JobRun {
  std::vector<float> losses;      // every step in order, warmup included
  int64_t warmup_steps = 0;
  std::vector<StepRecord> steps;  // measured steps
  /// Traced runs: samples[0] before the first measured step, then one
  /// after every measured step (this job's optimizer counters only).
  std::vector<Snapshot> samples;
  double end_s = 0.0;  // when the job's last measured step returned
  int64_t attempted = 0;
  int64_t failed = 0;
  Status error;
};

/// One TrainStep on the current batch of `tokens`, timed by the ledger.
bool Step(RatelTrainer& trainer, const JobPlan& plan,
          const TokenStream& tokens, Clock::time_point origin, JobRun* run,
          StepRecord* record) {
  ++run->attempted;
  const Clock::time_point t0 = Clock::now();
  Result<float> loss =
      trainer.TrainStep(tokens.ids(), tokens.targets(), plan.batch);
  const Clock::time_point t1 = Clock::now();
  if (!loss.ok()) {
    ++run->failed;
    if (run->error.ok()) run->error = loss.status();
    return false;
  }
  run->losses.push_back(*loss);
  if (record != nullptr) {
    record->start_s = SecondsBetween(origin, t0);
    record->dur_s = SecondsBetween(t0, t1);
    record->stats = trainer.last_step_stats();
  }
  return true;
}

struct Loop {
  std::vector<JobRun> runs;
  Snapshot start;
  Snapshot end;
  Clock::time_point origin;
  double wall_s = 0.0;  // origin to the last job's last step
  /// Process peak RSS through set-up, warmup and the measured loop (the
  /// checkpoint probe after it holds a second trainer and is excluded).
  int64_t peak_rss_bytes = 0;
};

struct LoopPlan {
  double warmup_seconds = kWarmupSeconds;
  double seconds = 0.0;
  int64_t min_steps = 0;    // per job
  int64_t min_primary = 0;  // primary job: enough for the tail percentile
  bool traced = false;
};

/// Warmup on every job's thread (kWarmupSteps and warmup_seconds), then
/// the measured closed loop: each thread steps until `seconds` have
/// passed and it has its minimum step count.
Loop RunLoop(const WorkloadSpec& w, Rig& rig, std::vector<TokenStream>& tokens,
             const LoopPlan& plan) {
  const size_t n = rig.jobs.size();
  Loop loop;
  loop.runs.resize(n);
  std::latch ready(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    threads.emplace_back([&, j] {
      Job& job = rig.jobs[j];
      JobRun& run = loop.runs[j];
      bool ok = true;
      const Clock::time_point warm_until =
          Clock::now() + ToDuration(plan.warmup_seconds);
      while (ok && (run.warmup_steps < kWarmupSteps ||
                    Clock::now() < warm_until)) {
        tokens[j].Next();
        ok = Step(*job.trainer, job.plan, tokens[j], Clock::now(), &run,
                  nullptr);
        ++run.warmup_steps;
      }
      ready.count_down();
      go.wait();
      if (plan.traced) {
        run.samples.push_back(Take(
            rig, SecondsBetween(loop.origin, Clock::now()),
            static_cast<int>(j)));
      }
      const Clock::time_point deadline = loop.origin + ToDuration(plan.seconds);
      const int64_t floor = j == w.primary ? plan.min_primary : plan.min_steps;
      while (ok && (static_cast<int64_t>(run.steps.size()) < floor ||
                    Clock::now() < deadline)) {
        tokens[j].Next();
        StepRecord record;
        ok = Step(*job.trainer, job.plan, tokens[j], loop.origin, &run,
                  &record);
        if (!ok) break;
        run.steps.push_back(std::move(record));
        if (plan.traced) {
          run.samples.push_back(
              Take(rig, SecondsBetween(loop.origin, Clock::now()),
                   static_cast<int>(j)));
        }
      }
      run.end_s = SecondsBetween(loop.origin, Clock::now());
    });
  }
  ready.wait();
  loop.start = Take(rig, 0.0, -1);
  loop.origin = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  for (const JobRun& run : loop.runs) {
    loop.wall_s = std::max(loop.wall_s, run.end_s);
  }
  loop.end = Take(rig, loop.wall_s, -1);
  loop.peak_rss_bytes = PeakRssBytes();
  return loop;
}

// ------------------------------------------------------------ probe

struct Span {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
};

struct Probe {
  std::vector<double> save_s;
  std::vector<double> restore_s;
  std::vector<Span> spans;
  float uninterrupted_loss = 0.0f;
  float resumed_loss = 0.0f;
  bool compared = false;
};

/// The checkpoint probe on the primary job, outside the measured loop:
/// kProbeOps x (one step + SaveCheckpoint), then kProbeOps
/// RestoreLatestCheckpoint calls on a fresh trainer, then one more step
/// on both trainers with the same batch (their losses must agree
/// bitwise).
Status RunProbe(const WorkloadSpec& w, Rig& rig, TokenStream& tokens,
                uint64_t seed, const std::string& dir,
                Clock::time_point origin, JobRun* run, Probe* probe) {
  Job& job = rig.jobs[w.primary];
  const std::string ckpt_dir = dir + "/ckpt";
  auto timed = [&](const char* name, auto&& op) {
    const Clock::time_point t0 = Clock::now();
    Status s = op();
    const Clock::time_point t1 = Clock::now();
    ++run->attempted;
    if (!s.ok()) ++run->failed;
    probe->spans.push_back(
        {name, SecondsBetween(origin, t0), SecondsBetween(t0, t1)});
    return s;
  };
  auto step = [&](RatelTrainer& trainer) -> Result<float> {
    if (!Step(trainer, job.plan, tokens, origin, run, nullptr)) {
      return run->error;
    }
    return run->losses.back();
  };

  for (int i = 0; i < kProbeOps; ++i) {
    tokens.Next();
    RATEL_RETURN_IF_ERROR(step(*job.trainer).status());
    RATEL_RETURN_IF_ERROR(timed("checkpoint", [&] {
      return job.trainer->SaveCheckpoint(ckpt_dir);
    }));
    probe->save_s.push_back(probe->spans.back().dur_s);
  }

  ag::TinyGpt model(job.plan.model, MixSeed(seed, w.primary, 2));
  RATEL_ASSIGN_OR_RETURN(
      std::unique_ptr<RatelTrainer> fresh,
      RatelTrainer::Create(&model, JobOptions(w, job, dir + "/restore",
                                              rig.engine.get(), ".restore")));
  for (int i = 0; i < kProbeOps; ++i) {
    RATEL_RETURN_IF_ERROR(timed("restore", [&] {
      return fresh->RestoreLatestCheckpoint(ckpt_dir).status();
    }));
    probe->restore_s.push_back(probe->spans.back().dur_s);
  }

  tokens.Next();
  RATEL_ASSIGN_OR_RETURN(probe->uninterrupted_loss, step(*job.trainer));
  RATEL_ASSIGN_OR_RETURN(probe->resumed_loss, step(*fresh));
  probe->compared = true;
  return Status::Ok();
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // timing distributions only
};
using Metrics = std::vector<Metric>;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// 1-based nearest rank of quantile `q` among `n` samples.
size_t NearestRank(size_t n, double q) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::max<size_t>(rank, 1);
}

/// Nearest-rank quantile: an actual sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), q) - 1];
}

int64_t SamplesBeyond(size_t n, double q) {
  return static_cast<int64_t>(n) - static_cast<int64_t>(NearestRank(n, q));
}

/// Per-layer metrics of the window (a, b] holding `steps`. Used for the
/// whole measured loop and, in traced runs, for every single step.
void AddLayerMetrics(const WorkloadSpec& w, const Snapshot& a,
                     const Snapshot& b,
                     const std::vector<const StepRecord*>& steps,
                     double pool_peak_bytes, Metrics* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit, 0});
  };
  const double n = static_cast<double>(std::max<size_t>(steps.size(), 1));
  const double wall = std::max(b.t - a.t, 1e-9);

  double step_s = 0, fetch_s = 0, compute_s = 0, optimizer_s = 0,
         boundary_s = 0, stall_s = 0, overlap_s = 0;
  double hot = 0, tail = 0, epochs = 0;
  for (const StepRecord* r : steps) {
    step_s += r->dur_s;
    fetch_s += r->stats.fetch_s;
    compute_s += r->stats.compute_s;
    optimizer_s += r->stats.optimizer_s;
    boundary_s += r->dur_s - r->stats.total_s;
    stall_s += r->stats.drain_stall_s;
    overlap_s += r->stats.optimizer_overlap_s;
    hot += static_cast<double>(r->stats.hot_chunks);
    tail += static_cast<double>(r->stats.tail_chunks);
    epochs += static_cast<double>(r->stats.deferred_epochs);
  }
  add("runtime.step_ms", 1e3 * step_s / n, "ms");
  add("runtime.fetch_ms", 1e3 * fetch_s / n, "ms");
  add("runtime.compute_ms", 1e3 * compute_s / n, "ms");
  add("runtime.optimizer_ms", 1e3 * optimizer_s / n, "ms");
  add("runtime.boundary_ms", 1e3 * boundary_s / n, "ms");

  add("pool.pooled_per_step",
      static_cast<double>(b.dispatch.pooled - a.dispatch.pooled) / n,
      "count/step");
  add("pool.serial_per_step",
      static_cast<double>(b.dispatch.serial - a.dispatch.serial) / n,
      "count/step");

  add("optim.drain_stall_pct", 100.0 * Ratio(stall_s, step_s), "%");
  add("optim.overlap_pct", 100.0 * Ratio(overlap_s, step_s), "%");
  add("optim.hot_chunks", hot / n, "count/step");
  add("optim.tail_chunks", tail / n, "count/step");
  add("optim.deferred_epochs", epochs / n, "count/step");
  add("optim.drain_waits",
      static_cast<double>(b.optim.drain_waits - a.optim.drain_waits) / n,
      "count/step");
  add("optim.durable_fallback_epochs",
      static_cast<double>(b.optim.durable_fallback_epochs -
                          a.optim.durable_fallback_epochs),
      "count");

  const TransferStats d = Delta(b.xfer, a.xfer);
  double encode_s = 0, decode_s = 0, decode_failures = 0;
  double codec_logical = 0, codec_encoded = 0;
  for (int f = 0; f < kNumFlowClasses; ++f) {
    const FlowCounters& c = d.flow[f];
    const std::string p =
        std::string("xfer.") + FlowClassName(static_cast<FlowClass>(f));
    add(p + ".read_mb", 1e-6 * static_cast<double>(c.bytes_read) / n,
        "MB/step");
    add(p + ".write_mb", 1e-6 * static_cast<double>(c.bytes_written) / n,
        "MB/step");
    add(p + ".store_read_mb",
        1e-6 * static_cast<double>(c.encoded_bytes_read) / n, "MB/step");
    add(p + ".store_write_mb",
        1e-6 * static_cast<double>(c.encoded_bytes_written) / n, "MB/step");
    add(p + ".read_inflight", c.read_seconds / wall, "req");
    add(p + ".write_inflight", c.write_seconds / wall, "req");
    add(p + ".hit_ratio",
        Ratio(static_cast<double>(c.cache_hits),
              static_cast<double>(c.cache_hits + c.cache_misses)),
        "ratio");
    add(p + ".retries", static_cast<double>(c.retries) / n, "count/step");
    add(p + ".copied_mb", 1e-6 * static_cast<double>(c.bytes_copied) / n,
        "MB/step");
    encode_s += c.encode_seconds;
    decode_s += c.decode_seconds;
    decode_failures += static_cast<double>(c.decode_failures);
    if (c.encodes > 0) {
      codec_logical += static_cast<double>(c.bytes_written);
      codec_encoded += static_cast<double>(c.encoded_bytes_written);
    }
  }
  add("codec.encode_pct", 100.0 * Ratio(encode_s, step_s), "%");
  add("codec.decode_pct", 100.0 * Ratio(decode_s, step_s), "%");
  add("codec.compression_x",
      codec_encoded > 0 ? codec_logical / codec_encoded : 1.0, "x");
  add("codec.decode_failures", decode_failures / n, "count/step");

  add("storage.read_util",
      Ratio(static_cast<double>(d.store_bytes_read), ReadBandwidth(w) * wall),
      "ratio");
  add("storage.write_util",
      Ratio(static_cast<double>(d.store_bytes_written),
            WriteBandwidth(w) * wall),
      "ratio");

  add("mem.dram_hit_ratio",
      Ratio(static_cast<double>(d.cache.hits),
            static_cast<double>(d.cache.hits + d.cache.misses)),
      "ratio");
  add("mem.evictions", static_cast<double>(d.cache.evictions) / n,
      "count/step");
  add("mem.pinned_mb", 1e-6 * static_cast<double>(b.xfer.cache.pinned_bytes),
      "MB");
  add("mem.pool_allocs_per_step",
      static_cast<double>(b.pool.allocations - a.pool.allocations) / n,
      "count/step");
  add("mem.pool_peak_mb", 1e-6 * pool_peak_bytes, "MB");
}

/// tenant.<job>.* for the shared_3job jobs; zero where a job is absent.
void AddTenantMetrics(const WorkloadSpec& w, const Loop& loop, Metrics* out) {
  const double wall = std::max(loop.wall_s, 1e-9);
  for (const char* name : {"bully0", "bully1", "victim"}) {
    double steps_per_s = 0, write_inflight = 0, store_write_mb = 0;
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      if (!w.shared || w.jobs[j].name != name) continue;
      const double steps = static_cast<double>(loop.runs[j].steps.size());
      const TransferStats d = Delta(loop.end.tenants[j], loop.start.tenants[j]);
      double write_s = 0, encoded = 0;
      for (const FlowCounters& c : d.flow) {
        write_s += c.write_seconds;
        encoded += static_cast<double>(c.encoded_bytes_written);
      }
      steps_per_s = steps / wall;
      write_inflight = write_s / wall;
      store_write_mb = 1e-6 * Ratio(encoded, steps);
    }
    const std::string p = std::string("tenant.") + name;
    out->push_back({p + ".steps_per_s", steps_per_s, "1/s", 0});
    out->push_back({p + ".write_inflight", write_inflight, "req", 0});
    out->push_back({p + ".store_write_mb", store_write_mb, "MB/step", 0});
  }
}

/// Step latencies of the primary job that count for step_ms: every
/// measured step, or on a shared engine the victim's steps that started
/// while every other job was still running.
std::vector<double> PrimaryStepTimes(const WorkloadSpec& w, const Loop& loop) {
  double others_end = loop.wall_s;
  for (size_t j = 0; j < loop.runs.size(); ++j) {
    if (j != w.primary) others_end = std::min(others_end, loop.runs[j].end_s);
  }
  std::vector<double> out;
  for (const StepRecord& r : loop.runs[w.primary].steps) {
    if (w.jobs.size() == 1 || r.start_s < others_end) out.push_back(r.dur_s);
  }
  return out;
}

Metrics EndToEnd(const WorkloadSpec& w, const Loop& loop,
                 const std::vector<double>& setup_s) {
  Metrics out;
  double tokens = 0;
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    tokens += static_cast<double>(loop.runs[j].steps.size()) *
              static_cast<double>(w.jobs[j].batch * w.jobs[j].model.seq_len);
  }
  const std::vector<double> steps = PrimaryStepTimes(w, loop);
  const auto n = static_cast<int64_t>(steps.size());
  out.push_back({"tokens_per_s", Ratio(tokens, loop.wall_s), "tok/s", 0});
  out.push_back({"step_ms_p50", 1e3 * Quantile(steps, 0.5), "ms", n});
  out.push_back({"step_ms_p90", 1e3 * Quantile(steps, kTailQuantile), "ms", n});
  out.push_back({"setup_s", Quantile(setup_s, 0.5), "s",
                 static_cast<int64_t>(setup_s.size())});
  out.push_back({"peak_rss_mb", 1e-6 * static_cast<double>(loop.peak_rss_bytes),
                 "MB", 0});
  return out;
}

// ------------------------------------------------------------ checks

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// FNV-1a over each job's name and the bit patterns of its first
/// kDigestLosses losses (warmup included: the sequence depends only on
/// the seed).
std::string LossDigest(const WorkloadSpec& w, const Loop& loop) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    mix(w.jobs[j].name.data(), w.jobs[j].name.size());
    const std::vector<float>& losses = loop.runs[j].losses;
    const size_t count =
        std::min(losses.size(), static_cast<size_t>(kDigestLosses));
    for (size_t i = 0; i < count; ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, &losses[i], sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Mean(const std::vector<float>& v, size_t begin, size_t end) {
  double sum = 0;
  for (size_t i = begin; i < end; ++i) sum += v[i];
  return sum / static_cast<double>(std::max<size_t>(end - begin, 1));
}

/// Σ over flows of encoded bytes == store bytes, both directions.
Check FlowReconciliation(const TransferStats& s) {
  int64_t read = 0, written = 0;
  for (const FlowCounters& c : s.flow) {
    read += c.encoded_bytes_read;
    written += c.encoded_bytes_written;
  }
  Check c{"flow_reconciliation", read == s.store_bytes_read &&
                                     written == s.store_bytes_written, ""};
  c.detail = "flows read " + std::to_string(read) + " / store " +
             std::to_string(s.store_bytes_read) + ", flows wrote " +
             std::to_string(written) + " / store " +
             std::to_string(s.store_bytes_written);
  return c;
}

/// Σ over tenants of every integer flow counter == the engine total.
Check TenantReconciliation(TransferEngine& engine) {
  static constexpr int64_t FlowCounters::*kCounters[] = {
      &FlowCounters::reads,         &FlowCounters::writes,
      &FlowCounters::bytes_read,    &FlowCounters::bytes_written,
      &FlowCounters::bytes_from_cache, &FlowCounters::cache_hits,
      &FlowCounters::cache_misses,  &FlowCounters::errors,
      &FlowCounters::retries,       &FlowCounters::giveups,
      &FlowCounters::bytes_copied,  &FlowCounters::allocs_avoided,
      &FlowCounters::encoded_bytes_written,
      &FlowCounters::encoded_bytes_read,
      &FlowCounters::encodes,       &FlowCounters::decodes,
      &FlowCounters::decode_failures};
  const TransferStats total = engine.stats();
  std::array<FlowCounters, kNumFlowClasses> sum{};
  const std::vector<TenantId> tenants = engine.tenants();
  for (TenantId t : tenants) {
    const TransferStats part = engine.tenant_stats(t);
    for (int f = 0; f < kNumFlowClasses; ++f) {
      for (auto counter : kCounters) sum[f].*counter += part.flow[f].*counter;
    }
  }
  Check check{"tenant_reconciliation", true,
              std::to_string(tenants.size()) + " tenants"};
  for (int f = 0; f < kNumFlowClasses; ++f) {
    for (auto counter : kCounters) {
      if (sum[f].*counter != total.flow[f].*counter) {
        check.ok = false;
        check.detail = std::string("mismatch on flow ") +
                       FlowClassName(static_cast<FlowClass>(f));
      }
    }
  }
  return check;
}

/// Every step's fetch + compute + optimizer + boundary tiles the
/// ledger-timed step (boundary is the residual, so it must be >= 0).
Check StepTiling(const Loop& loop) {
  Check c{"step_tiling", true, ""};
  int64_t steps = 0;
  for (const JobRun& run : loop.runs) {
    for (const StepRecord& r : run.steps) {
      ++steps;
      const double boundary = r.dur_s - r.stats.total_s;
      const double sum = r.stats.fetch_s + r.stats.compute_s +
                         r.stats.optimizer_s + boundary;
      if (boundary < 0 || std::fabs(sum - r.dur_s) > 0.01 * r.dur_s) {
        c.ok = false;
        c.detail = "step at " + Num(r.start_s) + " s: stages " +
                   Num(1e3 * sum) + " ms vs step " + Num(1e3 * r.dur_s) +
                   " ms";
        return c;
      }
    }
  }
  c.detail = std::to_string(steps) + " steps";
  return c;
}

// ------------------------------------------------------------ output

void WriteMetrics(JsonWriter* w, const Metrics& metrics) {
  w->BeginObject();
  for (const Metric& m : metrics) {
    w->Key(m.name);
    w->BeginObject();
    w->KeyValue("value", m.value);
    w->KeyValue("unit", m.unit);
    if (m.samples > 0) w->KeyValue("samples", m.samples);
    w->EndObject();
  }
  w->EndObject();
}

/// The effective configuration: host, every workload knob, step counts.
void WriteConfig(JsonWriter* w, const WorkloadSpec& spec, const Rig& rig,
                 int nproc, const std::string& store_root,
                 const LoopPlan& plan, const Loop& loop) {
  const TrainerOptions& t = spec.trainer;
  w->BeginObject();
  w->KeyValue("nproc", static_cast<int64_t>(nproc));
  w->KeyValue("compute_threads", static_cast<int64_t>(ComputeThreads()));
  w->KeyValue("simd", std::string(simd::ModeName(simd::ActiveMode())));
  w->KeyValue("store_root", store_root);
  w->KeyValue("seconds", plan.seconds);
  w->KeyValue("warmup_seconds", plan.warmup_seconds);
  w->KeyValue("min_steps", plan.min_steps);
  w->KeyValue("min_primary_steps", plan.min_primary);
  auto per_job = [&](const char* key, auto&& count) {
    w->Key(key);
    w->BeginObject();
    for (size_t j = 0; j < spec.jobs.size(); ++j) {
      w->KeyValue(spec.jobs[j].name, static_cast<int64_t>(count(loop.runs[j])));
    }
    w->EndObject();
  };
  per_job("warmup_steps", [](const JobRun& r) { return r.warmup_steps; });
  per_job("measured_steps", [](const JobRun& r) { return r.steps.size(); });
  w->Key("jobs");
  w->BeginArray();
  for (const Job& job : rig.jobs) {
    w->BeginObject();
    w->KeyValue("name", job.plan.name);
    w->KeyValue("vocab", job.plan.model.vocab_size);
    w->KeyValue("seq_len", job.plan.model.seq_len);
    w->KeyValue("hidden", job.plan.model.hidden_dim);
    w->KeyValue("heads", job.plan.model.num_heads);
    w->KeyValue("layers", job.plan.model.num_layers);
    w->KeyValue("params", job.model->NumParameters());
    w->KeyValue("batch", job.plan.batch);
    w->KeyValue("weight", static_cast<int64_t>(job.plan.weight));
    w->EndObject();
  }
  w->EndArray();
  w->Key("trainer");
  w->BeginObject();
  w->KeyValue("grad_mode", std::string(GradientOffloadModeName(t.grad_mode)));
  w->KeyValue("pipeline_threads", static_cast<int64_t>(t.pipeline_threads));
  w->Key("spill_activations");
  w->Bool(t.spill_activations);
  w->Key("async_optimizer");
  w->Bool(t.async_optimizer);
  w->KeyValue("async_hot_fraction", t.async_hot_fraction);
  w->KeyValue("async_partition_chunk", t.async_partition_chunk);
  w->KeyValue("async_background_threads",
              static_cast<int64_t>(t.async_background_threads));
  w->Key("capture_flow_trace");
  w->Bool(t.capture_flow_trace);
  w->EndObject();
  w->Key("engine");
  w->BeginObject();
  w->Key("shared");
  w->Bool(spec.shared);
  if (spec.shared) {
    const TransferOptions& e = spec.engine;
    w->KeyValue("num_stripes", static_cast<int64_t>(e.num_stripes));
    w->KeyValue("chunk_bytes", e.chunk_bytes);
    w->KeyValue("io_workers", static_cast<int64_t>(e.io_workers));
    w->KeyValue("host_cache_bytes", e.host_cache_bytes);
    w->KeyValue("read_bandwidth", e.read_bandwidth);
    w->KeyValue("write_bandwidth", e.write_bandwidth);
    w->Key("fair_share");
    w->Bool(e.fair_share);
    w->KeyValue("fair_quantum_bytes", e.fair_quantum_bytes);
  } else {
    w->KeyValue("num_stripes", static_cast<int64_t>(t.num_stripes));
    w->KeyValue("chunk_bytes", t.stripe_chunk_bytes);
    w->KeyValue("io_workers", static_cast<int64_t>(t.io_workers));
    w->KeyValue("host_cache_bytes", t.host_cache_bytes);
    w->KeyValue("read_bandwidth", t.ssd_read_bandwidth);
    w->KeyValue("write_bandwidth", t.ssd_write_bandwidth);
  }
  const CodecConfig& codec = spec.shared ? spec.engine.codec : t.codec;
  w->Key("codec");
  w->BeginObject();
  for (int f = 0; f < kNumFlowClasses; ++f) {
    const FlowClass flow = static_cast<FlowClass>(f);
    w->KeyValue(FlowClassName(flow), codec.spec(flow));
  }
  w->EndObject();
  w->EndObject();
  w->EndObject();
}

/// Chrome trace-event JSON: per step a `step` span with id <job>/<n>
/// and its fetch / compute / optimizer / boundary children laid out from
/// StepStats, the probe's checkpoint / restore spans, and one counter
/// event per layer per step carrying that step's per-layer metrics.
Status WriteTrace(const std::string& path, const WorkloadSpec& spec,
                  const Loop& loop, const Probe& probe) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  auto span = [&w](const std::string& name, size_t tid, double start_s,
                   double dur_s, const std::string& id) {
    w.BeginObject();
    w.KeyValue("name", name);
    w.KeyValue("ph", std::string("X"));
    w.KeyValue("pid", int64_t{1});
    w.KeyValue("tid", static_cast<int64_t>(tid));
    w.KeyValue("ts", 1e6 * start_s);
    w.KeyValue("dur", 1e6 * dur_s);
    w.Key("args");
    w.BeginObject();
    w.KeyValue("id", id);
    w.EndObject();
    w.EndObject();
  };
  for (size_t j = 0; j < spec.jobs.size(); ++j) {
    w.BeginObject();
    w.KeyValue("name", std::string("thread_name"));
    w.KeyValue("ph", std::string("M"));
    w.KeyValue("pid", int64_t{1});
    w.KeyValue("tid", static_cast<int64_t>(j));
    w.Key("args");
    w.BeginObject();
    w.KeyValue("name", spec.jobs[j].name);
    w.EndObject();
    w.EndObject();

    const JobRun& run = loop.runs[j];
    for (size_t k = 0; k < run.steps.size(); ++k) {
      const StepRecord& r = run.steps[k];
      const std::string id = spec.jobs[j].name + "/" + std::to_string(k);
      span("step", j, r.start_s, r.dur_s, id);
      double t = r.start_s;
      const double boundary = r.dur_s - r.stats.total_s;
      for (const auto& [name, dur] :
           {std::pair<const char*, double>{"fetch", r.stats.fetch_s},
            {"compute", r.stats.compute_s},
            {"optimizer", r.stats.optimizer_s},
            {"boundary", boundary}}) {
        span(name, j, t, dur, id);
        t += dur;
      }
      if (k + 1 >= run.samples.size()) continue;
      Metrics sample;
      AddLayerMetrics(spec, run.samples[k], run.samples[k + 1], {&r},
                      PoolBytes(run.samples[k + 1]), &sample);
      // One counter event per layer ("xfer.param_fetch", "runtime", ...).
      auto layer_of = [](const std::string& name) {
        return name.substr(0, name.rfind('.'));
      };
      for (size_t m = 0; m < sample.size();) {
        const std::string layer = layer_of(sample[m].name);
        w.BeginObject();
        w.KeyValue("name", layer);
        w.KeyValue("ph", std::string("C"));
        w.KeyValue("pid", int64_t{1});
        w.KeyValue("tid", static_cast<int64_t>(j));
        w.KeyValue("ts", 1e6 * (r.start_s + r.dur_s));
        w.Key("args");
        w.BeginObject();
        for (; m < sample.size() && layer_of(sample[m].name) == layer; ++m) {
          w.KeyValue(sample[m].name.substr(layer.size() + 1), sample[m].value);
        }
        w.EndObject();
        w.EndObject();
      }
    }
  }
  for (const Span& s : probe.spans) {
    span(s.name, spec.primary, s.start_s, s.dur_s,
         spec.jobs[spec.primary].name);
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open trace '" + path + "'");
  out << w.TakeString() << "\n";
  out.close();
  if (!out) return Status::Internal("cannot write trace '" + path + "'");
  return Status::Ok();
}

// ------------------------------------------------------------ main

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  std::string out;
  std::string store_root;
  bool smoke = false;
};

std::optional<Flags> ParseFlags(int argc, char** argv, std::string* error) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "expected --key=value, got '" + arg + "'";
      return std::nullopt;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      flags.workload = value;
    } else if (key == "seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        *error = "bad --seed '" + value + "'";
        return std::nullopt;
      }
    } else if (key == "seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags.seconds >= 0.0) ||
          flags.seconds > 3600.0) {
        *error = "bad --seconds '" + value + "'";
        return std::nullopt;
      }
    } else if (key == "trace") {
      flags.trace = value;
    } else if (key == "out") {
      flags.out = value;
    } else if (key == "store_root") {
      flags.store_root = value;
    } else {
      *error = "unknown flag --" + key;
      return std::nullopt;
    }
  }
  if (flags.workload.empty()) {
    *error = "--workload is required";
    return std::nullopt;
  }
  return flags;
}

// ------------------------------------------------------------ report

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;
  std::vector<Check> checks;
  Metrics end_to_end;
  Metrics per_layer;
};

/// The checks that define a correct run (see README.md).
std::vector<Check> RunChecks(const WorkloadSpec& spec, const Loop& loop,
                             const Probe& probe, TransferEngine& engine,
                             const Status& drained, bool smoke) {
  std::vector<Check> checks;
  int64_t attempted = 0, failed = 0;
  std::string first_error;
  for (const JobRun& run : loop.runs) {
    attempted += run.attempted;
    failed += run.failed;
    if (first_error.empty() && !run.error.ok()) {
      first_error = run.error.ToString();
    }
  }
  if (!drained.ok() && first_error.empty()) first_error = drained.ToString();
  checks.push_back({"ops", failed == 0 && first_error.empty(),
                    std::to_string(attempted) + " attempted, " +
                        std::to_string(failed) + " failed" +
                        (first_error.empty() ? "" : ": " + first_error)});

  bool finite = true;
  for (const JobRun& run : loop.runs) {
    for (float l : run.losses) finite = finite && std::isfinite(l);
  }
  checks.push_back({"losses_finite", finite, ""});
  if (!smoke) {
    for (size_t j = 0; j < spec.jobs.size(); ++j) {
      const std::vector<float>& l = loop.runs[j].losses;
      const bool enough = l.size() >= 2 * kLossWindow;
      const double first = Mean(l, 0, std::min<size_t>(kLossWindow, l.size()));
      const double last =
          enough ? Mean(l, l.size() - kLossWindow, l.size()) : first;
      checks.push_back({"loss_decreases." + spec.jobs[j].name,
                        enough && last < first,
                        "first " + Num(first) + ", last " + Num(last)});
    }
    const size_t n = PrimaryStepTimes(spec, loop).size();
    const int64_t beyond = SamplesBeyond(n, kTailQuantile);
    checks.push_back({"tail_samples", beyond >= kTailBeyond,
                      std::to_string(n) + " samples, " +
                          std::to_string(beyond) + " beyond p90"});
  }
  checks.push_back(FlowReconciliation(engine.stats()));
  if (spec.shared) checks.push_back(TenantReconciliation(engine));
  checks.push_back(
      {"resume_bitwise",
       probe.compared && std::memcmp(&probe.uninterrupted_loss,
                                     &probe.resumed_loss, sizeof(float)) == 0,
       "uninterrupted " + Num(probe.uninterrupted_loss) + ", resumed " +
           Num(probe.resumed_loss)});
  checks.push_back(StepTiling(loop));
  return checks;
}

/// Whole-loop per-layer metrics plus the tenant and checkpoint ones.
Metrics PerLayer(const WorkloadSpec& spec, const Loop& loop,
                 const Probe& probe) {
  std::vector<const StepRecord*> steps;
  double pool_peak = std::max(PoolBytes(loop.start), PoolBytes(loop.end));
  for (const JobRun& run : loop.runs) {
    for (const StepRecord& r : run.steps) steps.push_back(&r);
    for (const Snapshot& s : run.samples) {
      pool_peak = std::max(pool_peak, PoolBytes(s));
    }
  }
  Metrics out;
  AddLayerMetrics(spec, loop.start, loop.end, steps, pool_peak, &out);
  AddTenantMetrics(spec, loop, &out);
  out.push_back({"ckpt.save_ms", 1e3 * Quantile(probe.save_s, 0.5), "ms",
                 static_cast<int64_t>(probe.save_s.size())});
  out.push_back({"ckpt.restore_ms", 1e3 * Quantile(probe.restore_s, 0.5),
                 "ms", static_cast<int64_t>(probe.restore_s.size())});
  return out;
}

void PrintReport(const WorkloadSpec& spec, const Flags& flags,
                 const Report& report) {
  std::printf("ratel_ledger %s seed=%llu%s%s\n", spec.name.c_str(),
              static_cast<unsigned long long>(flags.seed),
              flags.trace.empty() ? "" : " traced",
              flags.smoke ? " smoke" : "");
  for (const Metrics* group : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *group) {
      std::printf("  %-36s %14.4f %-10s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) {
        std::printf(" n=%lld", static_cast<long long>(m.samples));
      }
      std::printf("\n");
    }
  }
  std::printf("loss_digest %s\n", report.digest.c_str());
  for (const Check& c : report.checks) {
    std::printf("check %-28s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("%s\n", report.correct ? "PASS" : "FAIL");
}

Status WriteReport(const WorkloadSpec& spec, const Flags& flags,
                   const Rig& rig, int nproc, const std::string& store_root,
                   const LoopPlan& plan, const Loop& loop,
                   const Report& report) {
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("workload", spec.name);
  w.KeyValue("seed", static_cast<int64_t>(flags.seed));
  w.Key("smoke");
  w.Bool(flags.smoke);
  w.Key("traced");
  w.Bool(!flags.trace.empty());
  w.Key("correct");
  w.Bool(report.correct);
  w.KeyValue("attempted", report.attempted);
  w.KeyValue("failed", report.failed);
  w.KeyValue("loss_digest", report.digest);
  w.Key("config");
  WriteConfig(&w, spec, rig, nproc, store_root, plan, loop);
  w.Key("end_to_end");
  WriteMetrics(&w, report.end_to_end);
  w.Key("per_layer");
  WriteMetrics(&w, report.per_layer);
  w.Key("checks");
  w.BeginArray();
  for (const Check& c : report.checks) {
    w.BeginObject();
    w.KeyValue("name", c.name);
    w.Key("ok");
    w.Bool(c.ok);
    w.KeyValue("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(flags.out);
  out << w.TakeString() << "\n";
  out.close();
  if (!out) return Status::Internal("cannot write '" + flags.out + "'");
  return Status::Ok();
}

/// RatelTrainer::Create overlays RATEL_* variables onto its options, so
/// a stray one would silently change a workload.
std::vector<std::string> RatelEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("RATEL_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  return names;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Removes the run's store directory on every exit path.
class StoreDir {
 public:
  explicit StoreDir(std::filesystem::path path) : path_(std::move(path)) {}
  ~StoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  StoreDir(const StoreDir&) = delete;
  StoreDir& operator=(const StoreDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

constexpr const char* kUsage =
    "usage: ratel_ledger --workload=<offload_e2e|state_writeback|"
    "compute_resident|shared_3job> [--seed=<n>] [--seconds=<s>] "
    "[--trace=<path>] [--smoke] [--out=<json>] [--store_root=<dir>]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Flags> flags = ParseFlags(argc, argv, &error);
  if (!flags.has_value()) {
    std::cerr << "ratel_ledger: " << error << "\n" << kUsage;
    return 2;
  }
  const std::vector<std::string> env = RatelEnvironment();
  if (!env.empty()) {
    std::cerr << "ratel_ledger: refusing to run with RATEL_* variables set "
                 "(they overlay the workload's options):";
    for (const std::string& name : env) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  std::optional<WorkloadSpec> spec_or = MakeWorkload(flags->workload);
  if (!spec_or.has_value()) {
    std::cerr << "ratel_ledger: unknown workload '" << flags->workload
              << "'\n" << kUsage;
    return 2;
  }
  const bool traced = !flags->trace.empty();
  spec_or->trainer.capture_flow_trace = traced;
  const WorkloadSpec& spec = *spec_or;
  const int nproc = Nproc();
  if (spec.jobs.size() > static_cast<size_t>(nproc)) {
    std::cerr << "ratel_ledger: " << spec.name << " drives "
              << spec.jobs.size() << " threads but nproc is " << nproc << "\n";
    return 2;
  }
  SetComputeThreads(std::min(4, nproc));

  std::string store_root = flags->store_root;
  if (store_root.empty()) {
    store_root = access("/dev/shm", W_OK) == 0 ? "/dev/shm" : "/tmp";
  }
  const StoreDir store_dir(std::filesystem::path(store_root) /
                           ("ratel_ledger_" + spec.name + "_" +
                            std::to_string(::getpid())));
  std::error_code ec;
  std::filesystem::remove_all(store_dir.path(), ec);
  std::filesystem::create_directories(store_dir.path(), ec);
  if (ec) {
    std::cerr << "ratel_ledger: cannot create " << store_dir.path() << ": "
              << ec.message() << "\n";
    return 2;
  }

  LoopPlan plan;
  plan.traced = traced;
  if (flags->smoke) {
    plan.warmup_seconds = 0.0;
    plan.min_steps = plan.min_primary = kSmokeSteps;
  } else {
    plan.seconds = flags->seconds;
    plan.min_steps = std::max(2 * kLossWindow, kDigestLosses);
    // Enough primary samples that kTailBeyond lie beyond the tail rank.
    plan.min_primary = std::max<int64_t>(
        plan.min_steps, static_cast<int64_t>(std::ceil(
                            kTailBeyond / (1.0 - kTailQuantile) - 1e-9)));
  }

  std::vector<double> setup_s;
  std::optional<Rig> rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();  // tear down outside the timed region
    const std::string dir =
        (store_dir.path() / ("setup" + std::to_string(k))).string();
    const Clock::time_point t0 = Clock::now();
    Result<Rig> made = SetUp(spec, flags->seed, dir);
    const Clock::time_point t1 = Clock::now();
    if (!made.ok()) {
      std::cerr << "ratel_ledger: set-up failed: " << made.status().ToString()
                << "\n";
      return 1;
    }
    setup_s.push_back(SecondsBetween(t0, t1));
    rig.emplace(std::move(made).value());
  }
  const std::string run_dir =
      (store_dir.path() / ("setup" + std::to_string(kSetups - 1))).string();

  std::vector<TokenStream> tokens;
  for (size_t j = 0; j < spec.jobs.size(); ++j) {
    tokens.emplace_back(MixSeed(flags->seed, j, 1), spec.jobs[j]);
  }
  Loop loop = RunLoop(spec, *rig, tokens, plan);

  Probe probe;
  bool loop_ok = true;
  for (const JobRun& run : loop.runs) loop_ok = loop_ok && run.failed == 0;
  if (loop_ok) {
    const Status s =
        RunProbe(spec, *rig, tokens[spec.primary], flags->seed, run_dir,
                 loop.origin, &loop.runs[spec.primary], &probe);
    if (!s.ok()) loop.runs[spec.primary].error = s;
  }

  // Quiesce before reading totals: deferred epochs, then the engine.
  Status drained;
  for (Job& job : rig->jobs) {
    const Status s = job.trainer->optimizer().DrainAll();
    if (drained.ok()) drained = s;
  }
  TransferEngine& engine = EngineOf(*rig);
  if (drained.ok()) drained = engine.Drain();

  Report report;
  report.digest = LossDigest(spec, loop);
  report.checks = RunChecks(spec, loop, probe, engine, drained, flags->smoke);
  for (const JobRun& run : loop.runs) {
    report.attempted += run.attempted;
    report.failed += run.failed;
  }
  report.end_to_end = EndToEnd(spec, loop, setup_s);
  report.per_layer = PerLayer(spec, loop, probe);
  if (traced) {
    const Status s = WriteTrace(flags->trace, spec, loop, probe);
    report.checks.push_back(
        {"trace_written", s.ok(), s.ok() ? flags->trace : s.ToString()});
  }
  for (const Check& c : report.checks) report.correct = report.correct && c.ok;

  PrintReport(spec, *flags, report);
  if (!flags->out.empty()) {
    const Status s = WriteReport(spec, *flags, *rig, nproc, store_root, plan,
                                 loop, report);
    if (!s.ok()) {
      std::cerr << "ratel_ledger: " << s.ToString() << "\n";
      return 1;
    }
  }
  return report.correct ? 0 : 1;
}
