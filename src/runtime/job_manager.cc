#include "runtime/job_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/feasibility.h"
#include "runtime/workload_map.h"

namespace ratel {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic synthetic token stream, keyed by (seed, step) so a
/// resumed job replays the exact batches its preempted run saw.
void SyntheticBatch(const JobSpec& spec, int64_t step,
                    std::vector<int64_t>* ids, std::vector<int64_t>* targets) {
  Rng rng(spec.seed * 1000003ULL + static_cast<uint64_t>(step) + 1);
  const uint64_t vocab = static_cast<uint64_t>(spec.model.vocab_size);
  for (size_t i = 0; i < ids->size(); ++i) {
    (*ids)[i] = static_cast<int64_t>(rng.NextBelow(vocab));
    (*targets)[i] = ((*ids)[i] * 3 + 1) % spec.model.vocab_size;
  }
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

}  // namespace

JobDemand PlanJobDemand(const TransformerConfig& config, int batch) {
  JobDemand demand;
  demand.ssd_bytes = feasibility::RatelSsdBytes(config, std::max(1, batch));
  // Marginal pinned-host footprint: the staging slots scale with the
  // block parameter count, so differencing against a zero-width config
  // isolates them from the fixed (shared) overhead without duplicating
  // the feasibility constants here.
  TransformerConfig zero = config;
  zero.hidden_dim = 0;
  demand.pinned_host_bytes = feasibility::RatelPinnedHostBytes(config) -
                             feasibility::RatelPinnedHostBytes(zero);
  return demand;
}

JobDemand PlanJobDemand(const ag::TinyGptConfig& config, int batch) {
  return PlanJobDemand(ToTransformerConfig(config), batch);
}

const char* AdmissionVerdictName(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmitted:
      return "admitted";
    case AdmissionVerdict::kQueued:
      return "queued";
    case AdmissionVerdict::kRejected:
      return "rejected";
  }
  return "unknown";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempting:
      return "preempting";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kFinished:
      return "finished";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

AdmissionVerdict EvaluateAdmission(const JobDemand& demand,
                                   int64_t ssd_budget_bytes,
                                   int64_t dram_budget_bytes,
                                   int64_t ssd_used_bytes,
                                   int64_t dram_used_bytes) {
  const bool ssd_limited = ssd_budget_bytes > 0;
  const bool dram_limited = dram_budget_bytes > 0;
  if ((ssd_limited && demand.ssd_bytes > ssd_budget_bytes) ||
      (dram_limited && demand.pinned_host_bytes > dram_budget_bytes)) {
    return AdmissionVerdict::kRejected;
  }
  if ((ssd_limited &&
       ssd_used_bytes + demand.ssd_bytes > ssd_budget_bytes) ||
      (dram_limited &&
       dram_used_bytes + demand.pinned_host_bytes > dram_budget_bytes)) {
    return AdmissionVerdict::kQueued;
  }
  return AdmissionVerdict::kAdmitted;
}

std::vector<AdmissionVerdict> PlanAdmissions(
    const std::vector<JobDemand>& demands, int64_t ssd_budget_bytes,
    int64_t dram_budget_bytes) {
  std::vector<AdmissionVerdict> verdicts;
  verdicts.reserve(demands.size());
  int64_t ssd_used = 0;
  int64_t dram_used = 0;
  for (const JobDemand& demand : demands) {
    const AdmissionVerdict v = EvaluateAdmission(
        demand, ssd_budget_bytes, dram_budget_bytes, ssd_used, dram_used);
    // Queued jobs run once capacity frees, so a planning pass charges
    // them too: it answers "which jobs run *concurrently*" as admitted
    // vs "eventually" as queued.
    if (v != AdmissionVerdict::kRejected) {
      ssd_used += demand.ssd_bytes;
      dram_used += demand.pinned_host_bytes;
    }
    verdicts.push_back(v);
  }
  return verdicts;
}

JobManager::JobManager(const Options& options,
                       std::unique_ptr<TransferEngine> engine)
    : options_(options), engine_(std::move(engine)) {
  dram_budget_bytes_ = options_.dram_budget_bytes >= 0
                           ? options_.dram_budget_bytes
                           : engine_->host_cache_capacity();
}

Result<std::unique_ptr<JobManager>> JobManager::Create(
    const Options& options) {
  RATEL_ASSIGN_OR_RETURN(std::unique_ptr<TransferEngine> engine,
                         TransferEngine::Open(options.engine));
  return std::unique_ptr<JobManager>(
      new JobManager(options, std::move(engine)));
}

JobManager::~JobManager() { (void)WaitAll(); }

Status ApplyEnvKnobs(const knobs::Env& env, JobSpec* spec) {
  int64_t weight = spec->weight;
  TenantQuota& quota = spec->quota;
  for (const auto& [name, field] :
       {std::pair{"RATEL_TENANT_WEIGHT", &weight},
        std::pair{"RATEL_TENANT_DRAM_QUOTA", &quota.dram_bytes},
        std::pair{"RATEL_TENANT_INFLIGHT_QUOTA", &quota.inflight_bytes}}) {
    RATEL_ASSIGN_OR_RETURN(
        const auto by_job,
        (knobs::Get<std::map<std::string, int64_t>>(env, name)));
    if (by_job.has_value() && by_job->count(spec->name) > 0) {
      *field = by_job->at(spec->name);
    }
  }
  spec->weight = static_cast<int>(weight);
  return Status::Ok();
}

Result<AdmissionVerdict> JobManager::Submit(const JobSpec& spec_in) {
  JobSpec spec = spec_in;
  RATEL_RETURN_IF_ERROR(ApplyEnvKnobs(knobs::ProcessEnv(), &spec));
  if (spec.name.empty()) {
    return Status::InvalidArgument("job name must not be empty");
  }
  if (spec.batch <= 0 || spec.steps < 0) {
    return Status::InvalidArgument("job '" + spec.name +
                                   "': batch must be > 0, steps >= 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (jobs_.count(spec.name) > 0) {
    return Status::AlreadyExists("job '" + spec.name + "' already submitted");
  }
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  job->tenant = next_tenant_++;
  job->demand =
      PlanJobDemand(job->spec.model, static_cast<int>(job->spec.batch));
  // Install the lane weight and quotas before the job's first submit.
  TenantConfig tenant_config;
  tenant_config.weight = std::max(1, job->spec.weight);
  tenant_config.quota = job->spec.quota;
  engine_->ConfigureTenant(job->tenant, tenant_config);

  Job* j = job.get();
  order_.push_back(j->spec.name);
  jobs_.emplace(j->spec.name, std::move(job));
  j->verdict = EvaluateLocked(j->demand);
  switch (j->verdict) {
    case AdmissionVerdict::kRejected:
      j->state = JobState::kRejected;
      j->status = Status::OutOfRange(
          "job '" + j->spec.name + "' demand exceeds the total budget");
      break;
    case AdmissionVerdict::kQueued:
      j->state = JobState::kQueued;
      break;
    case AdmissionVerdict::kAdmitted:
      StartLocked(j);
      break;
  }
  cv_.notify_all();
  return j->verdict;
}

AdmissionVerdict JobManager::Evaluate(const JobDemand& demand) const {
  std::lock_guard<std::mutex> lock(mu_);
  return EvaluateLocked(demand);
}

AdmissionVerdict JobManager::EvaluateLocked(const JobDemand& demand) const {
  return EvaluateAdmission(demand, options_.ssd_budget_bytes,
                           dram_budget_bytes_, ssd_used_bytes_,
                           dram_used_bytes_);
}

void JobManager::StartLocked(Job* job) {
  if (!job->charged_ssd) {
    ssd_used_bytes_ += job->demand.ssd_bytes;
    job->charged_ssd = true;
  }
  if (!job->charged_dram) {
    dram_used_bytes_ += job->demand.pinned_host_bytes;
    job->charged_dram = true;
  }
  job->preempt_requested.store(false);
  job->state = JobState::kRunning;
  job->thread = std::thread([this, job] { RunJob(job); });
}

void JobManager::AdmitQueuedLocked() {
  for (const std::string& name : order_) {
    Job* job = jobs_.at(name).get();
    if (job->state != JobState::kQueued) continue;
    // Charge only what the job does not already hold (a preempted job
    // kept its SSD charge — its state never left the store).
    JobDemand marginal;
    marginal.ssd_bytes = job->charged_ssd ? 0 : job->demand.ssd_bytes;
    marginal.pinned_host_bytes =
        job->charged_dram ? 0 : job->demand.pinned_host_bytes;
    if (EvaluateLocked(marginal) != AdmissionVerdict::kAdmitted) continue;
    StartLocked(job);
  }
}

void JobManager::RunJob(Job* job) {
  const Status status = RunJobBody(job);
  std::lock_guard<std::mutex> lock(mu_);
  // A preempt that raced completion (or an error) still finishes: only
  // a mid-run park with a fresh checkpoint counts as preempted.
  if (job->state == JobState::kPreempting && status.ok() &&
      job->steps_done < job->spec.steps) {
    job->state = JobState::kPreempted;
    // The DRAM-tier staging charge frees while the job is parked; the
    // SSD charge persists — its model states stay in the store.
    if (job->charged_dram) {
      dram_used_bytes_ -= job->demand.pinned_host_bytes;
      job->charged_dram = false;
    }
  } else {
    job->state = JobState::kFinished;
    if (!status.ok() && job->status.ok()) job->status = status;
    if (job->charged_ssd) {
      ssd_used_bytes_ -= job->demand.ssd_bytes;
      job->charged_ssd = false;
    }
    if (job->charged_dram) {
      dram_used_bytes_ -= job->demand.pinned_host_bytes;
      job->charged_dram = false;
    }
  }
  AdmitQueuedLocked();
  cv_.notify_all();
}

Status JobManager::RunJobBody(Job* job) {
  const JobSpec& spec = job->spec;
  ag::TinyGpt model(spec.model, spec.seed);
  TrainerOptions trainer_options = spec.trainer;
  trainer_options.shared_engine = engine_.get();
  trainer_options.tenant = job->tenant;
  trainer_options.key_namespace = spec.name + "/";
  RATEL_ASSIGN_OR_RETURN(std::unique_ptr<RatelTrainer> trainer,
                         RatelTrainer::Create(&model, trainer_options));

  int64_t start_step = 0;
  if (!spec.checkpoint_dir.empty()) {
    Result<int64_t> resumed =
        trainer->RestoreLatestCheckpoint(spec.checkpoint_dir);
    if (resumed.ok()) {
      start_step = *resumed;
    } else if (resumed.status().code() != StatusCode::kNotFound) {
      return resumed.status();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->steps_done = start_step;
  }

  const int64_t tokens = spec.batch * spec.model.seq_len;
  std::vector<int64_t> ids(tokens);
  std::vector<int64_t> targets(tokens);
  for (int64_t step = start_step; step < spec.steps; ++step) {
    if (spec.batch_fn) {
      spec.batch_fn(step, &ids, &targets);
    } else {
      SyntheticBatch(spec, step, &ids, &targets);
    }
    const auto t0 = std::chrono::steady_clock::now();
    Result<float> loss = trainer->TrainStep(ids, targets, spec.batch);
    if (!loss.ok()) return loss.status();
    const double dt = SecondsSince(t0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->steps_done = step + 1;
      job->last_loss = *loss;
      job->train_seconds += dt;
      job->step_seconds.push_back(dt);
    }
    if (job->preempt_requested.load(std::memory_order_relaxed) &&
        step + 1 < spec.steps) {
      // Graceful preemption: park with a v2 checkpoint so Resume()
      // continues bitwise from here.
      return trainer->SaveCheckpoint(spec.checkpoint_dir);
    }
  }
  return Status::Ok();
}

Status JobManager::Preempt(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return Status::NotFound("job '" + name + "' not submitted");
  }
  Job* job = it->second.get();
  if (job->spec.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("job '" + name +
                                      "' has no checkpoint_dir");
  }
  if (job->state != JobState::kRunning) {
    return Status::FailedPrecondition("job '" + name + "' is " +
                                      JobStateName(job->state) +
                                      ", not running");
  }
  job->state = JobState::kPreempting;
  job->preempt_requested.store(true);
  return Status::Ok();
}

Status JobManager::Resume(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return Status::NotFound("job '" + name + "' not submitted");
  }
  Job* job = it->second.get();
  if (job->state != JobState::kPreempted) {
    return Status::FailedPrecondition("job '" + name + "' is " +
                                      JobStateName(job->state) +
                                      ", not preempted");
  }
  // The preempted thread has already published its terminal state (it
  // did so under mu_), so it is past any shared access — join outside
  // the lock and restart through the admission path.
  std::thread old = std::move(job->thread);
  lock.unlock();
  if (old.joinable()) old.join();
  lock.lock();
  job->state = JobState::kQueued;
  AdmitQueuedLocked();
  cv_.notify_all();
  return Status::Ok();
}

Status JobManager::WaitAll() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    for (const auto& [name, job] : jobs_) {
      if (job->state == JobState::kQueued ||
          job->state == JobState::kRunning ||
          job->state == JobState::kPreempting) {
        return false;
      }
    }
    return true;
  });
  std::vector<std::thread> threads;
  Status first_error;
  for (const std::string& name : order_) {
    Job* job = jobs_.at(name).get();
    if (job->thread.joinable()) threads.push_back(std::move(job->thread));
    if (!job->status.ok() && first_error.ok() &&
        job->state == JobState::kFinished) {
      first_error = job->status;
    }
  }
  lock.unlock();
  for (std::thread& t : threads) t.join();
  return first_error;
}

JobManagerStats JobManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobManagerStats stats;
  stats.engine_stats = engine_->stats();
  stats.jobs.reserve(order_.size());
  for (const std::string& name : order_) {
    const Job* job = jobs_.at(name).get();
    JobStats s;
    s.name = job->spec.name;
    s.tenant = job->tenant;
    s.verdict = job->verdict;
    s.state = job->state;
    s.status = job->status;
    s.demand = job->demand;
    s.steps_done = job->steps_done;
    s.last_loss = job->last_loss;
    s.train_seconds = job->train_seconds;
    if (job->train_seconds > 0.0) {
      s.tokens_per_s = static_cast<double>(job->steps_done * job->spec.batch *
                                           job->spec.model.seq_len) /
                       job->train_seconds;
    }
    if (!job->step_seconds.empty()) {
      double sum = 0.0;
      for (double v : job->step_seconds) sum += v;
      s.mean_step_seconds =
          sum / static_cast<double>(job->step_seconds.size());
      s.p99_step_seconds = Percentile(job->step_seconds, 0.99);
    }
    s.xfer = engine_->tenant_stats(job->tenant);
    switch (job->verdict) {
      case AdmissionVerdict::kAdmitted:
        ++stats.admitted;
        break;
      case AdmissionVerdict::kQueued:
        ++stats.queued;
        break;
      case AdmissionVerdict::kRejected:
        ++stats.rejected;
        break;
    }
    stats.aggregate_tokens_per_s += s.tokens_per_s;
    stats.jobs.push_back(std::move(s));
  }
  return stats;
}

}  // namespace ratel
