#ifndef RATEL_RUNTIME_JOB_MANAGER_H_
#define RATEL_RUNTIME_JOB_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "autograd/transformer.h"
#include "common/status.h"
#include "model/transformer_config.h"
#include "runtime/ratel_trainer.h"
#include "xfer/tenant.h"
#include "xfer/transfer_engine.h"

namespace ratel {

/// Resource demand of one fine-tuning job, in the units the capacity
/// planner's feasibility math speaks (src/core/feasibility): SSD bytes
/// for the 16P model states plus activation spill, and the job's
/// *marginal* pinned-host footprint (the optimizer staging slots; the
/// fixed OS/framework overhead is shared across jobs and charged once
/// by whoever sets the budget).
struct JobDemand {
  int64_t ssd_bytes = 0;
  int64_t pinned_host_bytes = 0;
};

/// Demand of a job training `config` at `batch` — the same
/// feasibility::RatelSsdBytes / RatelPinnedHostBytes model the capacity
/// planner applies to Table IV models.
JobDemand PlanJobDemand(const TransformerConfig& config, int batch);

/// TinyGpt overload: maps the runtime model onto a TransformerConfig of
/// identical dimensions, then applies the planner math above.
JobDemand PlanJobDemand(const ag::TinyGptConfig& config, int batch);

/// Admission outcome of one job against the manager's budgets.
enum class AdmissionVerdict {
  kAdmitted = 0,  // fits the remaining budget; started immediately
  kQueued,        // fits the total budget but not the remaining one;
                  // parked FIFO until running jobs release capacity
  kRejected,      // exceeds the *total* budget — could never run
};

/// Stable lowercase name, e.g. "admitted".
const char* AdmissionVerdictName(AdmissionVerdict verdict);

/// Core admission rule, shared by the JobManager and the planning-only
/// capacity_planner --jobs path. Budgets <= 0 are unlimited.
AdmissionVerdict EvaluateAdmission(const JobDemand& demand,
                                   int64_t ssd_budget_bytes,
                                   int64_t dram_budget_bytes,
                                   int64_t ssd_used_bytes,
                                   int64_t dram_used_bytes);

/// Planning-only admission of a job sequence: evaluates each demand in
/// order against the budgets, charging admitted (and queued — they run
/// eventually) jobs. No engine, no jobs started; the capacity_planner
/// --jobs mode prints exactly these verdicts.
std::vector<AdmissionVerdict> PlanAdmissions(
    const std::vector<JobDemand>& demands, int64_t ssd_budget_bytes,
    int64_t dram_budget_bytes);

/// One fine-tuning job the manager runs end to end.
struct JobSpec {
  /// Unique job name; doubles as the key namespace ("<name>/...") all
  /// of the job's engine keys live under.
  std::string name;
  ag::TinyGptConfig model;
  /// Model-init and synthetic-data seed.
  uint64_t seed = 1;
  int64_t batch = 2;
  /// Optimizer steps to run (total, across preempt/resume cycles).
  int64_t steps = 4;
  /// Job-level trainer knobs (grad_mode, adam config, async pipeline,
  /// activation spill, accumulation). Engine-level fields (store_dir,
  /// bandwidths, cache, fault, io_workers, ...) are ignored — the
  /// manager's shared engine governs those.
  TrainerOptions trainer;
  /// Fair-share weight of the job's tenant lane in the I/O scheduler.
  int weight = 1;
  /// Per-tenant engine quotas (0 = unlimited).
  TenantQuota quota;
  /// Checkpoint directory for graceful preemption/resume (v2 versioned
  /// checkpoints); empty disables preemption for this job.
  std::string checkpoint_dir;
  /// Per-step batch generator filling ids/targets with batch * seq_len
  /// tokens. Keyed by the global step so a preempted job replays its
  /// stream identically on resume. Null uses a deterministic synthetic
  /// stream derived from `seed`.
  std::function<void(int64_t step, std::vector<int64_t>* ids,
                     std::vector<int64_t>* targets)>
      batch_fn;
};

/// Lifecycle of a job inside the manager.
enum class JobState {
  kQueued = 0,   // admitted-eventually; waiting for capacity
  kRunning,      // training on its dedicated thread
  kPreempting,   // preemption requested; checkpointing at the next step
  kPreempted,    // parked with a checkpoint; Resume() continues it
  kFinished,     // ran to completion (or failed — see status)
  kRejected,     // refused at admission; never ran
};

/// Stable lowercase name, e.g. "running".
const char* JobStateName(JobState state);

/// Point-in-time public view of one job.
struct JobStats {
  std::string name;
  TenantId tenant = 0;
  AdmissionVerdict verdict = AdmissionVerdict::kAdmitted;
  JobState state = JobState::kQueued;
  /// First error of the job's run (Ok while healthy).
  Status status;
  JobDemand demand;
  int64_t steps_done = 0;
  float last_loss = 0.0f;
  double train_seconds = 0.0;
  double tokens_per_s = 0.0;
  double mean_step_seconds = 0.0;
  /// 99th-percentile step latency (the fairness metric: a bully tenant
  /// must not blow up a victim's tail).
  double p99_step_seconds = 0.0;
  /// This tenant's engine traffic only (per-flow counters; cache/store
  /// totals stay engine-global and are zero here).
  TransferStats xfer;
};

/// Aggregate manager snapshot.
struct JobManagerStats {
  std::vector<JobStats> jobs;  // submission order
  int admitted = 0;
  int queued = 0;
  int rejected = 0;
  double aggregate_tokens_per_s = 0.0;
  /// Engine-global accounting; per-tenant xfer snapshots above sum to
  /// its flow counters exactly.
  TransferStats engine_stats;
};

/// Overlays the RATEL_TENANT_* environment knobs onto `spec`, by job
/// name (format "name=value,name2=value2"; see common/knobs.h):
///   RATEL_TENANT_WEIGHT          fair-share weight
///   RATEL_TENANT_DRAM_QUOTA      DRAM-tier residency quota, bytes
///   RATEL_TENANT_INFLIGHT_QUOTA  in-flight store-byte quota, bytes
/// A malformed value is kInvalidArgument naming the knob.
Status ApplyEnvKnobs(const knobs::Env& env, JobSpec* spec);

/// Multi-tenant front end of the runtime: N concurrent fine-tuning jobs
/// sharing ONE TransferEngine (one DRAM tier, one SSD array, one I/O
/// scheduler), each on a dedicated thread under its own TenantId.
///
///  - Admission control: Submit() plans the job's demand with the
///    capacity planner's feasibility math and admits, queues (FIFO), or
///    rejects it against the remaining SSD-stripe and DRAM budgets — an
///    over-budget job is parked or refused, never OOM-killed mid-run.
///  - Isolation: every job's traffic is tagged with its tenant (see
///    ScopedTenant / TransferEngine tenancy) — per-tenant accounting
///    reconciling exactly against the engine totals, per-tenant DRAM
///    and in-flight-byte quotas, and per-tenant key namespaces so jobs
///    never collide in the store.
///  - Weighted fair share: each tenant's scheduler lane carries the
///    job's weight; deficit-weighted round robin inside each priority
///    class divides SSD bandwidth proportionally (engine fair_share).
///  - Lifecycle: Preempt() checkpoints a job at the next step boundary
///    and parks it (releasing its DRAM charge); Resume() re-admits it
///    and continues bitwise from the checkpoint; WaitAll() joins
///    everything and surfaces the first job error.
///
/// Submit applies the RATEL_TENANT_* knobs (ApplyEnvKnobs below). The
/// jobs' trainers attach to the shared engine, so RATEL_FAULT_* and
/// RATEL_CODEC_* do not reach them.
///
/// Thread-safe. A manager running exactly one job with default weight
/// and no quotas drives the engine identically to a bare RatelTrainer
/// on its own engine (tenant lanes and namespaces degenerate).
class JobManager {
 public:
  struct Options {
    /// Configuration of the shared engine (one store + DRAM tier + I/O
    /// scheduler for all jobs). fair_share=false degrades scheduling to
    /// one FIFO per priority class — the bench's A/B baseline.
    TransferOptions engine;
    /// SSD-stripe byte budget admission charges JobDemand::ssd_bytes
    /// against; <= 0 = unlimited.
    int64_t ssd_budget_bytes = 0;
    /// DRAM byte budget for JobDemand::pinned_host_bytes; < 0 (default)
    /// uses the engine's DRAM-tier capacity, 0 = unlimited.
    int64_t dram_budget_bytes = -1;
  };

  static Result<std::unique_ptr<JobManager>> Create(const Options& options);

  /// Waits every running job out (queued jobs still get their turn).
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits, queues, or rejects `spec` (see class docs). kAdmitted
  /// starts the job immediately on its own thread. Job names must be
  /// unique. Returns the verdict, or an error for malformed specs.
  Result<AdmissionVerdict> Submit(const JobSpec& spec);

  /// Admission verdict a demand would get *right now*, without
  /// submitting anything.
  AdmissionVerdict Evaluate(const JobDemand& demand) const;

  /// Requests graceful preemption: the job checkpoints at its next step
  /// boundary, parks (kPreempted), and releases its DRAM charge (the
  /// SSD charge persists — its state stays in the store). Requires a
  /// checkpoint_dir. kFailedPrecondition unless the job is running.
  Status Preempt(const std::string& name);

  /// Re-admits a preempted job through the same admission path; it
  /// continues from its checkpoint (kQueued first if capacity is short).
  Status Resume(const std::string& name);

  /// Blocks until every submitted job is terminal (finished, preempted,
  /// or rejected) and returns the first job error, if any.
  Status WaitAll();

  JobManagerStats Stats() const;

  TransferEngine& engine() { return *engine_; }

 private:
  struct Job {
    JobSpec spec;
    TenantId tenant = 0;
    JobDemand demand;
    AdmissionVerdict verdict = AdmissionVerdict::kAdmitted;
    JobState state = JobState::kQueued;
    Status status;
    int64_t steps_done = 0;
    float last_loss = 0.0f;
    double train_seconds = 0.0;
    std::vector<double> step_seconds;
    std::atomic<bool> preempt_requested{false};
    bool charged_ssd = false;
    bool charged_dram = false;
    std::thread thread;
  };

  JobManager(const Options& options,
             std::unique_ptr<TransferEngine> engine);

  AdmissionVerdict EvaluateLocked(const JobDemand& demand) const;

  /// Charges `job`'s demand and launches its thread. Caller holds mu_.
  void StartLocked(Job* job);

  /// Starts every queued job the remaining budget now covers, in
  /// submission order. Caller holds mu_.
  void AdmitQueuedLocked();

  /// Job thread body: trainer lifecycle + terminal bookkeeping.
  void RunJob(Job* job);
  Status RunJobBody(Job* job);

  const Options options_;
  int64_t dram_budget_bytes_ = 0;  // resolved (engine tier capacity)
  std::unique_ptr<TransferEngine> engine_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::string> order_;  // submission order
  std::unordered_map<std::string, std::unique_ptr<Job>> jobs_;
  TenantId next_tenant_ = 1;  // 0 stays the unscoped default tenant
  int64_t ssd_used_bytes_ = 0;
  int64_t dram_used_bytes_ = 0;
};

}  // namespace ratel

#endif  // RATEL_RUNTIME_JOB_MANAGER_H_
