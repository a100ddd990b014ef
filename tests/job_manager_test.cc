// Multi-tenant JobManager: admission control against the feasibility
// budgets, the single-job == bare-trainer equivalence, queue/reject
// verdicts, graceful preemption/resume, env overlays, and per-tenant
// accounting reconciliation across concurrent jobs.

#include "runtime/job_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/ratel_trainer.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

ag::TinyGptConfig SmallConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 8;
  cfg.hidden_dim = 24;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

JobManager::Options ManagerOptions(const std::string& dir) {
  JobManager::Options options;
  options.engine.dir = dir;
  options.engine.num_stripes = 2;
  options.engine.chunk_bytes = 1 << 16;
  options.engine.io_workers = 2;
  return options;
}

// Deterministic batch stream both the manager jobs and the bare
// trainer replay, keyed only by the step.
void FillBatch(int64_t step, const ag::TinyGptConfig& cfg, int64_t batch,
               std::vector<int64_t>* ids, std::vector<int64_t>* targets) {
  Rng rng(7700 + static_cast<uint64_t>(step));
  ids->resize(batch * cfg.seq_len);
  targets->resize(batch * cfg.seq_len);
  for (size_t i = 0; i < ids->size(); ++i) {
    (*ids)[i] = static_cast<int64_t>(rng.NextBelow(cfg.vocab_size));
    (*targets)[i] = ((*ids)[i] * 5 + 3) % cfg.vocab_size;
  }
}

TEST(JobDemandTest, PlanJobDemandIsPositiveAndBatchMonotone) {
  const ag::TinyGptConfig cfg = SmallConfig();
  const JobDemand d1 = PlanJobDemand(cfg, 1);
  const JobDemand d4 = PlanJobDemand(cfg, 4);
  EXPECT_GT(d1.ssd_bytes, 0);
  EXPECT_GT(d1.pinned_host_bytes, 0);
  // Activation spill grows with the batch; the marginal pinned-host
  // demand (staging slots) does not.
  EXPECT_GT(d4.ssd_bytes, d1.ssd_bytes);
  EXPECT_EQ(d4.pinned_host_bytes, d1.pinned_host_bytes);
}

TEST(JobDemandTest, EvaluateAdmissionVerdicts) {
  const JobDemand d{1000, 100};
  // Unlimited budgets admit everything.
  EXPECT_EQ(EvaluateAdmission(d, 0, 0, 0, 0), AdmissionVerdict::kAdmitted);
  // Fits remaining -> admitted; fits total but not remaining -> queued;
  // exceeds total -> rejected.
  EXPECT_EQ(EvaluateAdmission(d, 2500, 0, 1000, 0),
            AdmissionVerdict::kAdmitted);
  EXPECT_EQ(EvaluateAdmission(d, 2500, 0, 2000, 0),
            AdmissionVerdict::kQueued);
  EXPECT_EQ(EvaluateAdmission(d, 500, 0, 0, 0), AdmissionVerdict::kRejected);
  // The DRAM axis gates independently.
  EXPECT_EQ(EvaluateAdmission(d, 0, 150, 0, 100), AdmissionVerdict::kQueued);
  EXPECT_EQ(EvaluateAdmission(d, 0, 50, 0, 0), AdmissionVerdict::kRejected);
}

TEST(JobDemandTest, PlanAdmissionsChargesAdmittedAndQueued) {
  const JobDemand d{1000, 0};
  const std::vector<AdmissionVerdict> verdicts =
      PlanAdmissions({d, d, d, {4000, 0}}, 2500, 0);
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0], AdmissionVerdict::kAdmitted);
  EXPECT_EQ(verdicts[1], AdmissionVerdict::kAdmitted);
  EXPECT_EQ(verdicts[2], AdmissionVerdict::kQueued);
  EXPECT_EQ(verdicts[3], AdmissionVerdict::kRejected);
}

TEST(JobDemandTest, NamesAreStable) {
  EXPECT_STREQ(AdmissionVerdictName(AdmissionVerdict::kAdmitted), "admitted");
  EXPECT_STREQ(AdmissionVerdictName(AdmissionVerdict::kQueued), "queued");
  EXPECT_STREQ(AdmissionVerdictName(AdmissionVerdict::kRejected), "rejected");
  EXPECT_STREQ(JobStateName(JobState::kQueued), "queued");
  EXPECT_STREQ(JobStateName(JobState::kRunning), "running");
  EXPECT_STREQ(JobStateName(JobState::kPreempted), "preempted");
  EXPECT_STREQ(JobStateName(JobState::kFinished), "finished");
  EXPECT_STREQ(JobStateName(JobState::kRejected), "rejected");
}

using JobManagerTest = TempDirTest;
TEST_F(JobManagerTest, RejectsMalformedSpecs) {
  auto manager_or = JobManager::Create(ManagerOptions(tmp.Sub("malformed")));
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;
  JobSpec spec;
  spec.model = SmallConfig();
  EXPECT_FALSE(manager.Submit(spec).ok());  // empty name
  spec.name = "job";
  spec.batch = 0;
  EXPECT_FALSE(manager.Submit(spec).ok());
  spec.batch = 1;
  spec.steps = 1;
  ASSERT_TRUE(manager.Submit(spec).ok());
  // Duplicate names collide in the key namespace.
  EXPECT_EQ(manager.Submit(spec).status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(manager.WaitAll().ok());
}

TEST_F(JobManagerTest, SingleJobMatchesBareTrainer) {
  // The acceptance criterion of the tenancy layer: one job through the
  // JobManager (tenant lane, key namespace, shared engine) follows the
  // exact loss trajectory of a bare RatelTrainer on its own engine.
  const ag::TinyGptConfig cfg = SmallConfig();
  const int64_t kBatch = 2;
  const int64_t kSteps = 4;

  std::vector<float> bare_losses;
  {
    ag::TinyGpt model(cfg, /*seed=*/21);
    TrainerOptions opts;
    opts.store_dir = tmp.Sub("bare");
    auto trainer_or = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer_or.ok());
    std::vector<int64_t> ids;
    std::vector<int64_t> targets;
    for (int64_t step = 0; step < kSteps; ++step) {
      FillBatch(step, cfg, kBatch, &ids, &targets);
      auto loss = (*trainer_or)->TrainStep(ids, targets, kBatch);
      ASSERT_TRUE(loss.ok());
      bare_losses.push_back(*loss);
    }
  }

  auto manager_or = JobManager::Create(ManagerOptions(tmp.Sub("single")));
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;
  JobSpec spec;
  spec.name = "solo";
  spec.model = cfg;
  spec.seed = 21;
  spec.batch = kBatch;
  spec.steps = kSteps;
  spec.batch_fn = [cfg, kBatch](int64_t step, std::vector<int64_t>* ids,
                                std::vector<int64_t>* targets) {
    FillBatch(step, cfg, kBatch, ids, targets);
  };
  auto verdict = manager.Submit(spec);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, AdmissionVerdict::kAdmitted);
  ASSERT_TRUE(manager.WaitAll().ok());

  const JobManagerStats stats = manager.Stats();
  ASSERT_EQ(stats.jobs.size(), 1u);
  const JobStats& job = stats.jobs[0];
  EXPECT_EQ(job.state, JobState::kFinished);
  EXPECT_EQ(job.steps_done, kSteps);
  EXPECT_EQ(job.last_loss, bare_losses.back());  // bitwise
  EXPECT_GT(job.tokens_per_s, 0.0);
  EXPECT_GE(job.p99_step_seconds, 0.0);
  EXPECT_GT(job.xfer.Flow(FlowClass::kParamFetch).bytes_read, 0);
}

TEST_F(JobManagerTest, AdmitsQueuesAndRunsInCapacityOrder) {
  const ag::TinyGptConfig cfg = SmallConfig();
  const JobDemand demand = PlanJobDemand(cfg, 2);

  JobManager::Options options = ManagerOptions(tmp.Sub("queue"));
  options.ssd_budget_bytes = 2 * demand.ssd_bytes + demand.ssd_bytes / 2;
  auto manager_or = JobManager::Create(options);
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  // Jobs A and B hold their capacity while parked inside batch_fn so
  // the third submit deterministically sees a full house.
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  auto gate = [&](int64_t step, std::vector<int64_t>* ids,
                  std::vector<int64_t>* targets) {
    if (step == 0) {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    FillBatch(step, cfg, 2, ids, targets);
  };

  JobSpec spec;
  spec.model = cfg;
  spec.batch = 2;
  spec.steps = 2;
  spec.batch_fn = gate;
  spec.name = "jobA";
  ASSERT_TRUE(manager.Submit(spec).ok());
  spec.name = "jobB";
  ASSERT_TRUE(manager.Submit(spec).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 2; });
  }

  spec.name = "jobC";
  spec.batch_fn = [cfg](int64_t step, std::vector<int64_t>* ids,
                        std::vector<int64_t>* targets) {
    FillBatch(step, cfg, 2, ids, targets);
  };
  auto verdict = manager.Submit(spec);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, AdmissionVerdict::kQueued);
  EXPECT_EQ(manager.Evaluate(demand), AdmissionVerdict::kQueued);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(manager.WaitAll().ok());

  const JobManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected, 0);
  for (const JobStats& job : stats.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    EXPECT_EQ(job.steps_done, 2) << job.name;
  }
}

TEST_F(JobManagerTest, OverTotalBudgetJobIsRejectedNeverRun) {
  const ag::TinyGptConfig cfg = SmallConfig();
  const JobDemand demand = PlanJobDemand(cfg, 2);
  JobManager::Options options = ManagerOptions(tmp.Sub("reject"));
  options.ssd_budget_bytes = demand.ssd_bytes / 2;
  auto manager_or = JobManager::Create(options);
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  JobSpec spec;
  spec.name = "toolarge";
  spec.model = cfg;
  spec.batch = 2;
  spec.steps = 2;
  auto verdict = manager.Submit(spec);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, AdmissionVerdict::kRejected);
  EXPECT_TRUE(manager.WaitAll().ok());  // rejection is not a job error

  const JobManagerStats stats = manager.Stats();
  ASSERT_EQ(stats.jobs.size(), 1u);
  EXPECT_EQ(stats.jobs[0].state, JobState::kRejected);
  EXPECT_EQ(stats.jobs[0].steps_done, 0);
  EXPECT_EQ(stats.jobs[0].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stats.rejected, 1);
}

TEST_F(JobManagerTest, PreemptAndResumeContinueTheTrajectory) {
  const ag::TinyGptConfig cfg = SmallConfig();
  const int64_t kSteps = 5;

  auto plain_batches = [cfg](int64_t step, std::vector<int64_t>* ids,
                             std::vector<int64_t>* targets) {
    FillBatch(step, cfg, 2, ids, targets);
  };

  // Reference: the same job, never preempted.
  float uninterrupted_loss = 0.0f;
  {
    auto manager_or = JobManager::Create(ManagerOptions(tmp.Sub("noresume")));
    ASSERT_TRUE(manager_or.ok());
    JobSpec spec;
    spec.name = "ref";
    spec.model = cfg;
    spec.seed = 5;
    spec.batch = 2;
    spec.steps = kSteps;
    spec.batch_fn = plain_batches;
    ASSERT_TRUE((*manager_or)->Submit(spec).ok());
    ASSERT_TRUE((*manager_or)->WaitAll().ok());
    const JobManagerStats stats = (*manager_or)->Stats();
    uninterrupted_loss = stats.jobs[0].last_loss;
  }

  auto manager_or = JobManager::Create(ManagerOptions(tmp.Sub("resume")));
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  // The job parks inside batch_fn(0) until Preempt() has been issued,
  // so the preemption deterministically lands after step 0.
  std::mutex mu;
  std::condition_variable cv;
  bool step0_reached = false;
  bool preempt_issued = false;
  JobSpec spec;
  spec.name = "job";
  spec.model = cfg;
  spec.seed = 5;
  spec.batch = 2;
  spec.steps = kSteps;
  spec.checkpoint_dir = tmp.Sub("resume_ckpt");
  spec.batch_fn = [&](int64_t step, std::vector<int64_t>* ids,
                      std::vector<int64_t>* targets) {
    if (step == 0) {
      std::unique_lock<std::mutex> lock(mu);
      step0_reached = true;
      cv.notify_all();
      cv.wait(lock, [&] { return preempt_issued; });
    }
    FillBatch(step, cfg, 2, ids, targets);
  };
  ASSERT_TRUE(manager.Submit(spec).ok());
  {
    // A job that never reaches step 0 (e.g. it resumed a stale
    // checkpoint) fails the test instead of hanging it.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return step0_reached; }))
        << "job never reached step 0";
  }
  ASSERT_TRUE(manager.Preempt("job").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    preempt_issued = true;
  }
  cv.notify_all();
  ASSERT_TRUE(manager.WaitAll().ok());
  {
    const JobManagerStats stats = manager.Stats();
    ASSERT_EQ(stats.jobs.size(), 1u);
    EXPECT_EQ(stats.jobs[0].state, JobState::kPreempted);
    EXPECT_EQ(stats.jobs[0].steps_done, 1);
  }

  // Preempting a parked job is a precondition error.
  EXPECT_EQ(manager.Preempt("job").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.Resume("missing").code(), StatusCode::kNotFound);

  ASSERT_TRUE(manager.Resume("job").ok());
  ASSERT_TRUE(manager.WaitAll().ok());
  const JobManagerStats stats = manager.Stats();
  ASSERT_EQ(stats.jobs.size(), 1u);
  EXPECT_EQ(stats.jobs[0].state, JobState::kFinished);
  EXPECT_EQ(stats.jobs[0].steps_done, kSteps);
  // The resumed run ends on the exact loss of the uninterrupted one.
  EXPECT_EQ(stats.jobs[0].last_loss, uninterrupted_loss);
}

// A preempted job drains the shared engine for its checkpoint. That
// drain must leave every other job's tickets with their owners: here a
// spilling job parks between two steps, its last swap-out writes still
// unwaited (write-behind), while its neighbor is preempted — and then
// trains on to the end.
TEST_F(JobManagerTest, PreemptingOneJobLeavesAnotherJobsTicketsWaitable) {
  const ag::TinyGptConfig cfg = SmallConfig();
  const int64_t kSteps = 4;
  auto manager_or =
      JobManager::Create(ManagerOptions(tmp.Sub("preempt_neighbor")));
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  std::mutex mu;
  std::condition_variable cv;
  bool spiller_parked = false;
  bool neighbor_at_step0 = false;
  bool preempt_issued = false;
  bool neighbor_preempted = false;

  JobSpec spiller;
  spiller.name = "spiller";
  spiller.model = cfg;
  spiller.seed = 9;
  spiller.batch = 2;
  spiller.steps = kSteps;
  spiller.trainer.spill_activations = true;
  spiller.trainer.async_optimizer = true;
  spiller.batch_fn = [&](int64_t step, std::vector<int64_t>* ids,
                         std::vector<int64_t>* targets) {
    if (step == 2) {
      std::unique_lock<std::mutex> lock(mu);
      spiller_parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return neighbor_preempted; });
    }
    FillBatch(step, cfg, 2, ids, targets);
  };

  JobSpec neighbor;
  neighbor.name = "neighbor";
  neighbor.model = cfg;
  neighbor.seed = 10;
  neighbor.batch = 2;
  neighbor.steps = kSteps;
  neighbor.checkpoint_dir = tmp.Sub("preempt_neighbor_ckpt");
  neighbor.batch_fn = [&](int64_t step, std::vector<int64_t>* ids,
                          std::vector<int64_t>* targets) {
    if (step == 0) {
      std::unique_lock<std::mutex> lock(mu);
      neighbor_at_step0 = true;
      cv.notify_all();
      cv.wait(lock, [&] { return preempt_issued; });
    }
    FillBatch(step, cfg, 2, ids, targets);
  };

  ASSERT_TRUE(manager.Submit(spiller).ok());
  ASSERT_TRUE(manager.Submit(neighbor).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return spiller_parked && neighbor_at_step0; });
  }
  ASSERT_TRUE(manager.Preempt("neighbor").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    preempt_issued = true;
  }
  cv.notify_all();
  // The neighbor trains its step 0, saves its checkpoint (draining the
  // engine under the spiller's in-flight swap-outs) and parks.
  for (;;) {
    const JobManagerStats stats = manager.Stats();
    ASSERT_EQ(stats.jobs.size(), 2u);
    if (stats.jobs[1].state == JobState::kPreempted) break;
    ASSERT_NE(stats.jobs[1].state, JobState::kFinished)
        << stats.jobs[1].status.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    neighbor_preempted = true;
  }
  cv.notify_all();
  ASSERT_TRUE(manager.WaitAll().ok());

  const JobManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.jobs[0].state, JobState::kFinished);
  EXPECT_TRUE(stats.jobs[0].status.ok()) << stats.jobs[0].status.ToString();
  EXPECT_EQ(stats.jobs[0].steps_done, kSteps);
  EXPECT_GT(stats.jobs[0].xfer.Flow(FlowClass::kActivationSpill).writes, 0);
  EXPECT_EQ(stats.jobs[1].state, JobState::kPreempted);
  EXPECT_EQ(stats.jobs[1].steps_done, 1);
}

TEST_F(JobManagerTest, EnvOverlaysApplyByJobName) {
  // A tight in-flight quota overlay exercises the backpressure path
  // end to end; training must still complete correctly under it.
  auto manager_or = JobManager::Create(ManagerOptions(tmp.Sub("envoverlay")));
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;
  JobSpec spec;
  spec.name = "quotajob";
  spec.model = SmallConfig();
  spec.batch = 2;
  spec.steps = 2;
  ASSERT_TRUE(
      ApplyEnvKnobs({{"RATEL_TENANT_WEIGHT", "quotajob=5,other=2"},
                     {"RATEL_TENANT_INFLIGHT_QUOTA", "quotajob=65536"}},
                    &spec)
          .ok());
  EXPECT_EQ(spec.weight, 5);
  EXPECT_EQ(spec.quota.inflight_bytes, 65536);
  EXPECT_EQ(spec.quota.dram_bytes, 0);
  ASSERT_TRUE(manager.Submit(spec).ok());
  ASSERT_TRUE(manager.WaitAll().ok());
  const JobManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.jobs[0].state, JobState::kFinished);
  EXPECT_EQ(stats.jobs[0].steps_done, 2);
  EXPECT_EQ(manager.engine().tenant_inflight_bytes(stats.jobs[0].tenant), 0);
}

TEST_F(JobManagerTest, ConcurrentJobsReconcileAgainstEngineTotals) {
  const ag::TinyGptConfig cfg = SmallConfig();
  JobManager::Options options = ManagerOptions(tmp.Sub("recon"));
  options.engine.host_cache_bytes = 1 << 20;
  options.dram_budget_bytes = 0;  // unlimited; the small cache is not a gate
  auto manager_or = JobManager::Create(options);
  ASSERT_TRUE(manager_or.ok());
  JobManager& manager = **manager_or;

  for (int j = 0; j < 3; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.model = cfg;
    spec.seed = 100 + j;
    spec.batch = 2;
    spec.steps = 3;
    auto verdict = manager.Submit(spec);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(*verdict, AdmissionVerdict::kAdmitted);
  }
  ASSERT_TRUE(manager.WaitAll().ok());

  const JobManagerStats stats = manager.Stats();
  ASSERT_EQ(stats.jobs.size(), 3u);
  for (const JobStats& job : stats.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    EXPECT_EQ(job.steps_done, 3) << job.name;
    EXPECT_GT(job.xfer.Flow(FlowClass::kParamFetch).bytes_read, 0)
        << job.name;
    EXPECT_GT(job.tokens_per_s, 0.0) << job.name;
  }
  EXPECT_GT(stats.aggregate_tokens_per_s, 0.0);

  // Summing every tenant's per-flow counters reproduces the engine
  // totals exactly — no byte is unattributed or double counted.
  TransferEngine& engine = manager.engine();
  const TransferStats total = engine.stats();
  for (int f = 0; f < kNumFlowClasses; ++f) {
    int64_t reads = 0, writes = 0, bytes_read = 0, bytes_written = 0;
    int64_t hits = 0, misses = 0, errors = 0;
    for (TenantId t : engine.tenants()) {
      const TransferStats part = engine.tenant_stats(t);
      const FlowCounters& c = part.flow[f];
      reads += c.reads;
      writes += c.writes;
      bytes_read += c.bytes_read;
      bytes_written += c.bytes_written;
      hits += c.cache_hits;
      misses += c.cache_misses;
      errors += c.errors;
    }
    EXPECT_EQ(reads, total.flow[f].reads) << "flow " << f;
    EXPECT_EQ(writes, total.flow[f].writes) << "flow " << f;
    EXPECT_EQ(bytes_read, total.flow[f].bytes_read) << "flow " << f;
    EXPECT_EQ(bytes_written, total.flow[f].bytes_written) << "flow " << f;
    EXPECT_EQ(hits, total.flow[f].cache_hits) << "flow " << f;
    EXPECT_EQ(misses, total.flow[f].cache_misses) << "flow " << f;
    EXPECT_EQ(errors, total.flow[f].errors) << "flow " << f;
  }
}

}  // namespace
}  // namespace ratel
