#ifndef RATEL_RUNTIME_RATEL_TRAINER_H_
#define RATEL_RUNTIME_RATEL_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/transformer.h"
#include "common/knobs.h"
#include "common/status.h"
#include "core/iteration_sim.h"
#include "core/replanner.h"
#include "core/schedule_trace.h"
#include "model/workload.h"
#include "runtime/async_update_engine.h"
#include "runtime/thread_pool.h"
#include "xfer/transfer_engine.h"

namespace ratel {

/// Configuration of the real-execution trainer.
struct TrainerOptions {
  GradientOffloadMode grad_mode = GradientOffloadMode::kOptimizedActive;
  AdamConfig adam;
  /// Backing directory and stripe count of the emulated SSD array.
  std::string store_dir = "/tmp/ratel_store";
  int num_stripes = 4;
  int64_t stripe_chunk_bytes = 1 << 20;
  /// Optional bandwidth throttles (bytes/s) emulating slow devices; 0
  /// disables throttling.
  double ssd_read_bandwidth = 0.0;
  double ssd_write_bandwidth = 0.0;
  /// Worker threads of the optimized offload pipeline.
  int pipeline_threads = 3;
  /// Worker threads of the transfer engine's I/O scheduler.
  int io_workers = 2;
  /// Starvation bound of the engine's background class: a queued state
  /// writeback is promoted after this many latency-critical requests
  /// completed while it waited (<= 0 restores strict priority).
  int background_aging_limit = 64;
  /// DRAM tier-cache capacity in front of the SSD tier (the main
  /// memory level of the hierarchy); 0 disables caching. Hot P32 blobs
  /// (read by both the forward fetch and the optimizer) and the moments
  /// are then served from DRAM.
  int64_t host_cache_bytes = 0;
  /// True swaps the tape's saved activations (A16) out through the
  /// engine after forward and back in before backward — the activation
  /// leg of the paper's holistic movement, executed with real bytes.
  /// The swap-out writes drain behind the rest of the step (the
  /// swap-ins are forwarded from them); the next step's spill and the
  /// checkpoint calls wait for them.
  bool spill_activations = false;
  /// Micro-batches accumulated per optimizer step (global batch =
  /// micro batch x accumulation). Gradients are averaged.
  int grad_accumulation_steps = 1;
  /// Static loss scale for the G16 conversion (mixed-precision loss
  /// scaling): gradients are scaled by this before the fp16 cast and
  /// unscaled inside the optimizer handler, protecting small gradients
  /// from fp16 underflow. 1.0 disables scaling.
  float loss_scale = 1.0f;
  /// True samples the cumulative per-flow byte counters into a
  /// ScheduleTrace counter track after every step (flow_trace());
  /// exported Chrome traces then show the three traffic legs stacking
  /// over the run.
  bool capture_flow_trace = false;
  /// True runs the optimizer as an asynchronous update pipeline: hot
  /// (top-k gradient-magnitude) chunks apply on the step's critical
  /// path, the tail defers to background epochs whose kDeferredState
  /// writebacks overlap the next step's forward/prefetch. False (the
  /// default) keeps the classic blocking optimizer — bitwise identical
  /// to pre-pipeline behavior. Both are overlaid with RATEL_ASYNC_OPTIM
  /// / RATEL_ASYNC_HOT_FRACTION at Create.
  bool async_optimizer = false;
  /// Fraction of each tensor's chunks applied synchronously in async
  /// mode (the top-k knob; at least one chunk is always hot).
  double async_hot_fraction = 0.25;
  /// Grid granularity of the hot/tail partition in elements; 0 keeps
  /// the kernel's default (CpuAdamKernel::kChunk). Tests shrink it to
  /// exercise multi-chunk partitions on tiny tensors.
  int64_t async_partition_chunk = 0;
  /// Worker threads of the deferred-epoch pool. More threads let
  /// independent tensors' store write-waits overlap (each epoch blocks
  /// on its own writeback); results are bitwise identical at any width.
  int async_background_threads = 2;
  /// Failure model of the emulated SSD array (chaos/testing). The
  /// RATEL_FAULT_* environment knobs are overlaid on top of this at
  /// Create, so a binary can be fault-injected without code changes.
  FaultConfig fault;
  /// Per-flow store-path codecs (see xfer/codec.h), overlaid with the
  /// RATEL_CODEC_<FLOW> environment knobs at Create. The trainer
  /// enforces the lossy-flow rule: lossy codecs (fp16, topk:<k>) are
  /// only accepted on the activation-spill flow — activations are
  /// transient and precision-tolerant by construction, while parameter,
  /// optimizer-state, and checkpoint bytes must survive the round trip
  /// exactly (Create returns kInvalidArgument otherwise). Ignored when
  /// attaching to a shared_engine (its configuration governs).
  CodecConfig codec;
  /// Retry discipline the I/O scheduler applies to transient store
  /// failures.
  RetryPolicy io_retry;
  /// Consecutive write failures before the store declares a stripe dead
  /// and re-stripes around it.
  int stripe_death_threshold = 3;
  /// Multi-tenant operation (see JobManager). When set, the trainer
  /// attaches to this engine instead of opening its own — the engine
  /// knobs above (store_dir, num_stripes, bandwidths, io_workers,
  /// host_cache_bytes, fault, retry, ...) are then ignored; the shared
  /// engine's configuration governs. Must outlive the trainer.
  TransferEngine* shared_engine = nullptr;
  /// Tenant every engine submit of this trainer is attributed to
  /// (accounting, fair share, quotas). 0 — the default — is the
  /// unscoped single-job tenant: behavior is bit-for-bit the classic
  /// trainer.
  int tenant = 0;
  /// Prefix applied to every engine key of this job ("job3/"), so N
  /// jobs share one store without key collisions. Checkpoints store raw
  /// tensor names, so they stay portable across namespaces. Empty (the
  /// default) keeps the classic key schema.
  std::string key_namespace;
  /// Online re-planning (DESIGN.md §3i): watch windowed per-flow
  /// bandwidth from TransferStats, re-solve Algorithm 1 when observed
  /// bandwidth drifts past the threshold, and
  /// hot-swap the schedule at the next step boundary. Overlaid with the
  /// RATEL_REPLAN_* environment knobs at Create. Disabled (the default)
  /// runs the exact pre-replanner code path — bitwise identical.
  ReplanConfig replan;
  /// External fault injector (not owned) handed to the owned engine —
  /// the wear-out (KillStripe) and stall seams for benches/tests.
  /// Ignored when attaching to a shared_engine.
  FaultInjector* fault_injector = nullptr;
};

/// Wall-clock / traffic breakdown of one training step.
struct StepStats {
  double total_s = 0.0;
  double fetch_s = 0.0;       // P32 fetch + host narrow before forward
  double compute_s = 0.0;     // forward + backward autograd
  double optimizer_s = 0.0;   // time until the last handler drained
  /// Deferred-update breakdown (async optimizer mode; all zero in sync
  /// mode). Overlap is background-epoch wall time that did *not* stall
  /// the foreground — optimizer work moved off the critical path.
  double optimizer_overlap_s = 0.0;
  double drain_stall_s = 0.0;  // foreground blocked on pending epochs
  int64_t hot_chunks = 0;      // chunks applied on the critical path
  int64_t tail_chunks = 0;     // chunks deferred to background epochs
  int64_t deferred_epochs = 0;
  /// Parameter + model-state traffic of this step (P32 fetch and the
  /// optimizer stream; activation traffic is reported separately).
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t activation_bytes_spilled = 0;  // A16 swapped out and back
  /// ---- Online re-planning (all zero with the replanner disabled) ----
  /// Re-solved plans installed so far this run (cumulative).
  int64_t replans = 0;
  /// How far observed bandwidth has drifted from what the current plan
  /// assumed, in percent (the replanner's deviation signal; resets to 0
  /// at every install).
  double plan_staleness_pct = 0.0;
  /// Time this step spent observing + installing a swapped plan at the
  /// boundary (0 when no swap happened).
  double plan_swap_s = 0.0;
  float loss = 0.0f;
};

/// Overlays the environment knobs that configure a trainer onto
/// `options`: RATEL_FAULT_* onto `fault`, RATEL_CODEC_<FLOW> onto
/// `codec`, RATEL_ASYNC_OPTIM and RATEL_ASYNC_HOT_FRACTION onto the
/// async optimizer fields, and RATEL_REPLAN_* onto `replan` (see
/// common/knobs.h and README's "Environment knobs"). Every RATEL_* knob
/// in `env` is checked first, so a malformed one anywhere is
/// kInvalidArgument naming it. RatelTrainer::Create applies this to the
/// process environment.
Status ApplyEnvKnobs(const knobs::Env& env, TrainerOptions* options);

/// The runnable counterpart of the paper's framework integration
/// (Fig. 4): wraps a real TinyGpt model so that
///   - the fp16 weights (P16) are derived before each forward pass:
///     no P16 blob is stored, the fetch reads each tensor's P32 master
///     copy through the transfer engine (4 bytes/param on
///     FlowClass::kParamFetch) and narrows it on the host, bitwise what
///     a stored FloatToHalf(P32) copy would hold. Storing no fp16
///     copy saves the optimizer a 2 bytes/param writeback every step;
///     the price is a 4- rather than 2-byte/param read whenever the
///     fetch misses the DRAM tier,
///   - gradients are consumed per parameter group as they "arrive" in
///     backward order, driving the out-of-core Adam handler
///     (active gradient offloading, Section IV-C), and
///   - the handler pipeline runs serialized / naive / optimized per
///     TrainerOptions::grad_mode, with measurably different step times
///     under throttled storage.
///
/// All data movement goes through one TransferEngine, so every byte of
/// the step is attributed to a FlowClass (transfer_stats(); Delta two
/// snapshots for one step's breakdown).
class RatelTrainer {
 public:
  /// Opens the transfer engine and registers every model parameter
  /// with the out-of-core optimizer (its initial P32 and zeroed
  /// moments).
  /// `model` must outlive the trainer.
  static Result<std::unique_ptr<RatelTrainer>> Create(
      ag::TinyGpt* model, const TrainerOptions& options);

  ~RatelTrainer();

  RatelTrainer(const RatelTrainer&) = delete;
  RatelTrainer& operator=(const RatelTrainer&) = delete;

  /// One fine-tuning step over a token batch; returns the loss.
  Result<float> TrainStep(const std::vector<int64_t>& ids,
                          const std::vector<int64_t>& targets, int64_t batch);

  /// Writes a crash-consistent checkpoint `dir/step_<N>.ckpt` holding
  /// the full optimizer state (P32 + moments + per-tensor steps) and the
  /// global step: engine drained first, shard-checksummed, written to a
  /// shadow file and atomically published (see
  /// checkpoint::SaveStateViews).
  Status SaveCheckpoint(const std::string& dir);

  /// Resumes from the newest *valid* checkpoint in `dir` — a torn
  /// latest file (detected by its checksums) falls back to the previous
  /// epoch. Restores optimizer state and the global step; returns the
  /// step resumed at. Training from there is bitwise-identical to a run
  /// that never crashed. kNotFound when no valid checkpoint exists.
  Result<int64_t> RestoreLatestCheckpoint(const std::string& dir);

  /// Optimizer steps completed since Create (or since the restored
  /// checkpoint).
  int64_t global_step() const { return global_step_; }

  const StepStats& last_step_stats() const { return last_stats_; }
  AsyncUpdateEngine& optimizer() { return *adam_; }

  /// The schedule the trainer executes, swapped atomically between
  /// steps. Defaults reproduce the classic path exactly (spill
  /// everything, prefetch depth 4), so the replanner-disabled trainer —
  /// which never touches this — is bitwise identical to pre-replan
  /// builds.
  struct ActiveSchedule {
    /// Fraction of each micro-batch's activation bytes to spill through
    /// the engine (largest tensors first); >= 1.0 spills everything —
    /// the exact legacy path.
    double spill_fraction = 1.0;
    /// Read-ahead depth of the parameter prefetch pipeline.
    int prefetch_depth = 4;
    /// 0 = initial plan; re-solves bump this to their solve index.
    int64_t version = 0;
  };
  const ActiveSchedule& active_schedule() const { return schedule_; }

  /// The online re-planning loop; null when TrainerOptions::replan (or
  /// its env overlay) leaves re-planning disabled, or before the first
  /// TrainStep (the workload profile needs the batch size).
  const Replanner* replanner() const { return replanner_.get(); }
  /// The unified data-movement layer under this trainer.
  TransferEngine& engine() { return *engine_; }
  /// Cumulative per-flow / cache / store accounting since Create.
  TransferStats transfer_stats() const { return engine_->stats(); }
  /// Per-step flow counter samples (empty unless capture_flow_trace).
  const ScheduleTrace& flow_trace() const { return flow_trace_; }

 private:
  RatelTrainer(ag::TinyGpt* model, const TrainerOptions& options);

  Status Initialize();

  /// Lazily builds the replanner on the first step (the workload
  /// profile needs the micro-batch size) and installs its initial plan.
  void MaybeInitReplanner(int64_t micro_batch);

  /// Maps a solved plan onto the runtime schedule. Only called between
  /// steps — all of this step's I/O has been waited, and the plan never
  /// touches optimizer keys, so in-flight deferred epochs and their
  /// drain gates stay valid.
  void InstallPlan(const ActivationPlan& plan, const HardwareProfile& profile,
                   int64_t version);

  /// Waits for the activation swap-outs still in flight (the previous
  /// spill's) and returns the first error among them.
  Status WaitSpillWrites();

  ag::TinyGpt* model_;  // not owned
  TrainerOptions options_;
  /// Engine opened by this trainer; null when attached to a shared one.
  std::unique_ptr<TransferEngine> owned_engine_;
  /// The engine in use — owned_engine_.get() or options_.shared_engine.
  TransferEngine* engine_ = nullptr;
  std::unique_ptr<AsyncUpdateEngine> adam_;
  /// Parameters in backward gradient-arrival order (final layernorm,
  /// blocks L-1..0, then embeddings — Section IV-C), resolved once at
  /// Initialize.
  std::vector<std::pair<std::string, ag::Variable>> arrival_;
  /// Online re-planning state (all null/default when disabled).
  std::unique_ptr<WorkloadProfile> workload_;  // planner's model view
  std::unique_ptr<Replanner> replanner_;
  ActiveSchedule schedule_;
  double nameplate_bw_s2m_ = 0.0;  // depth scaling reference
  int64_t replans_installed_ = 0;
  /// Tickets of the last spill's swap-out writes, not yet waited.
  std::vector<TransferEngine::Ticket> spill_writes_;
  std::unique_ptr<ThreadPool> pipeline_;  // declared last: joins first
  int64_t global_step_ = 0;
  StepStats last_stats_;
  ScheduleTrace flow_trace_;
  double trained_seconds_ = 0.0;  // flow-trace time axis
};

}  // namespace ratel

#endif  // RATEL_RUNTIME_RATEL_TRAINER_H_
