#ifndef RATEL_RUNTIME_ASYNC_UPDATE_ENGINE_H_
#define RATEL_RUNTIME_ASYNC_UPDATE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fp16.h"
#include "common/status.h"
#include "optim/cpu_adam.h"
#include "runtime/thread_pool.h"
#include "xfer/transfer_engine.h"

namespace ratel {

/// Configuration of the asynchronous update pipeline. Defaults keep the
/// optimizer in `sync` mode — bitwise identical to the classic blocking
/// StepTensor — so the determinism suite and byte-accounting contracts
/// hold unchanged unless a caller (or the environment) opts in.
struct AsyncUpdateOptions {
  /// True enables the deferred-tail pipeline: StepTensor applies the
  /// hot (top-k gradient-magnitude) chunks synchronously and hands the
  /// tail to a background epoch whose writebacks travel as
  /// FlowClass::kDeferredState and overlap the next step's
  /// forward/prefetch.
  bool async = false;
  /// Fraction of a tensor's chunks applied synchronously (at least one
  /// chunk is always hot). >= 1 disables deferral per tensor.
  double hot_fraction = 0.25;
  /// Grid granularity of the hot/tail partition, in elements. Must not
  /// exceed CpuAdamKernel::kChunk. The split is a pure function of
  /// (n, grads, hot_fraction, chunk) — fixed boundaries, so async runs
  /// are bitwise reproducible at any thread count.
  int64_t chunk = CpuAdamKernel::kChunk;
  /// Worker threads of the background epoch pool.
  int background_threads = 1;
  /// Tenant the optimizer's engine traffic is attributed to. The
  /// deferred-epoch workers run on their own pool, outside any caller
  /// ScopedTenant — they bracket their submits with this id themselves.
  int tenant = 0;
  /// Prefix applied to every engine key (e.g. "job3/"), so N jobs share
  /// one store/engine without key collisions. Empty (the default)
  /// leaves the classic single-job key schema untouched.
  std::string key_namespace;
};

/// The out-of-core CPU optimizer of Section IV-C, refactored from a
/// blocking per-tensor call into an overlapped update pipeline. The
/// model states stay truly out of core: P32 and OS32 live behind the
/// TransferEngine ("SSDs" fronted by the DRAM tier) and are streamed
/// through main memory per tensor — SSD->Main, CPU compute, Main->SSD,
/// the three handler steps of Fig. 3. Three blobs per tensor, 12
/// bytes/param each way: no fp16 copy is stored, because P16 is exactly
/// FloatToHalf(P32) — the forward-stage fetch reads P32 and narrows on
/// the host.
///
/// Sync mode (default): StepTensor performs all three phases inline
/// (the reads and writebacks each waited as one batch), leaving exactly
/// the classic blocking behavior — bitwise identical results and
/// identical per-flow traffic.
///
/// Async mode: StepTensor batch-reads the state, splits the chunk grid
/// by gradient magnitude (PartitionChunksByImportance), applies the hot
/// chunks inline, and enqueues a *deferred epoch* on the background
/// pool. The epoch applies the tail chunks into the same private
/// out-buffers, then publishes all three blobs (P32 and both moments) as
/// FlowClass::kDeferredState traffic, so the whole writeback — hot and
/// tail — leaves the step's critical path and overlaps the next step's
/// forward. Because the Adam update is elementwise and the epoch reuses
/// the exact (step, grads, state) inputs, the final state is bitwise
/// identical to sync mode.
///
/// Staleness bound (<= 1 step): every consumer of a tensor — the next
/// StepTensor, parameter fetches, state export — first drains that
/// tensor's pending epoch, so no fetch ever observes a half-applied
/// update and no tensor falls more than one step behind. With a DRAM
/// tier in front of the store the drain barrier is "published" (the
/// epoch has admitted its buffers tier-wide; same-key reads are
/// coherent immediately) — and the epoch *pins* its three written keys
/// in the tier until the reaper resolves their store writes, so LRU
/// pressure cannot evict a published-but-not-yet-durable blob out from
/// under a post-drain read. When any pin cannot be taken (the entry was
/// evicted before pinning, or the blob is larger than the tier and was
/// never admitted), that epoch's barrier hardens to "durable" (store
/// writes resolved); without a DRAM tier every barrier is durable. Both
/// preserve the engine's read-after-resolved-write ordering contract.
/// Same-key store writes of consecutive epochs are serialized
/// epoch-to-epoch, never reordered.
///
/// Traffic tagging: foreground state reads stay FlowClass::kGradState,
/// the trainer's forward-stage P32 fetches FlowClass::kParamFetch,
/// checkpoint reads
/// FlowClass::kCheckpoint; deferred-epoch writebacks are
/// FlowClass::kDeferredState (background priority) so they can never
/// stall a latency-critical param fetch.
///
/// Thread-compatible per tensor: different tensors may be stepped from
/// different pipeline threads concurrently (the optimized schedule);
/// stepping the same tensor concurrently is a caller error.
class AsyncUpdateEngine {
 public:
  /// Cumulative pipeline counters (monotonic; diff two snapshots for a
  /// per-step breakdown).
  struct Stats {
    int64_t hot_chunks = 0;       // chunks applied on the critical path
    int64_t tail_chunks = 0;      // chunks deferred to background epochs
    int64_t deferred_epochs = 0;  // background epochs enqueued
    /// Epochs whose written keys could not all be pinned in the DRAM
    /// tier (evicted or oversized) and therefore drain durably.
    int64_t durable_fallback_epochs = 0;
    int64_t drain_waits = 0;      // foreground drains that found a pending epoch
    double drain_stall_seconds = 0.0;  // foreground time blocked draining
    double background_seconds = 0.0;   // wall time inside epoch tasks
  };

  /// `engine` is not owned and must outlive the optimizer.
  AsyncUpdateEngine(const AdamConfig& config, TransferEngine* engine,
                    const AsyncUpdateOptions& options = AsyncUpdateOptions());

  /// Drains every pending epoch, then joins the background pool.
  ~AsyncUpdateEngine();

  AsyncUpdateEngine(const AsyncUpdateEngine&) = delete;
  AsyncUpdateEngine& operator=(const AsyncUpdateEngine&) = delete;

  /// Registers a tensor: writes initial P32 (from fp32 values) and
  /// zeroed moments through the engine.
  Status Register(const std::string& name,
                  const std::vector<float>& initial_params);

  /// One active-gradient-offloading handler invocation: consumes fp16
  /// gradients for `name` and updates its out-of-core states (P32 and
  /// OS32, 12 bytes/param written back). `grad_unscale` undoes the
  /// trainer's mixed-precision loss scaling. In async mode, returns
  /// once the hot chunks are applied and the tail epoch is enqueued; a
  /// deferred-write failure of the previous epoch surfaces here (or at
  /// the next drain).
  Status StepTensor(const std::string& name, const std::vector<Fp16>& grads16,
                    float grad_unscale = 1.0f);

  /// Engine key of the P32 blob of `name` (key namespace applied, e.g.
  /// "job1/p32/<name>") — lets the trainer drive the forward-stage
  /// fetch directly through the engine's prefetch path, behind
  /// DrainTensor.
  std::string P32Key(const std::string& name) const;

  /// Reads the fp32 master copy (checkpointing/tests). Drains first.
  Status FetchMasterParams(const std::string& name,
                           std::vector<float>* out) const;

  /// Reads the complete optimizer state of `name` — P32, both moment
  /// buffers, and the per-tensor Adam step — as FlowClass::kCheckpoint
  /// traffic. Drains first: the crash-consistent checkpoint read path
  /// never snapshots a tensor mid-epoch. Yields published (read-only)
  /// buffer refs — DRAM-hot state costs no host copy, cold state lands
  /// in pooled staging. The checkpoint writer streams shard payloads
  /// straight out of these.
  Status ExportStateBuffers(const std::string& name, int64_t* step,
                            Buffer* p32, Buffer* m, Buffer* v) const;

  /// Restores the complete optimizer state of `name`, registering the
  /// tensor if missing: rewrites P32/moments and sets the per-tensor
  /// step. The checkpoint resume path. Any pending epoch
  /// is drained (and its sticky error superseded) first.
  Status ImportState(const std::string& name, int64_t step,
                     const std::vector<float>& p32,
                     const std::vector<float>& m,
                     const std::vector<float>& v);

  /// Blocks until `name`'s pending deferred epoch (if any) is safe to
  /// read behind — the per-tensor dependency gate the trainer's P32
  /// prefetch uses so no fetch overlaps an in-flight tail update.
  /// Returns the tensor's sticky deferred-write error, if any.
  Status DrainTensor(const std::string& name) const;

  /// Blocks until every tensor's deferred epoch fully resolved (store
  /// writes included) — the checkpoint / shutdown barrier.
  Status DrainAll() const;

  TransferEngine& engine() const { return *engine_; }
  const AsyncUpdateOptions& options() const { return options_; }
  bool async() const { return options_.async; }

  Stats stats() const;

 private:
  struct TensorMeta {
    int64_t size = 0;
    int64_t step = 0;
    /// A deferred epoch is enqueued and has not yet published its
    /// writebacks tier-wide.
    bool epoch_pending = false;
    /// The epoch's writebacks are published but their store writes have
    /// not resolved yet.
    bool writes_inflight = false;
    /// The pending epoch could not pin all three written keys in the
    /// DRAM tier, so its drain barrier is durable regardless of the
    /// tier: a post-drain read might miss and hit the store, where only
    /// resolved writes are ordered.
    bool epoch_durable_only = false;
    /// First deferred-write failure, surfaced at the next drain/step.
    Status epoch_status;
  };

  /// Waits until `meta`'s epoch reached the given barrier. `durable`
  /// additionally waits out the store writes; the published barrier is
  /// enough whenever the DRAM tier serves same-key reads coherently.
  Status DrainMetaLocked(std::unique_lock<std::mutex>& lock,
                         const TensorMeta& meta) const;

  /// True when reads must wait for resolved store writes (no DRAM tier
  /// to make published-but-unresolved writes coherent).
  bool drain_needs_durable() const {
    return engine_->host_cache_capacity() <= 0;
  }

  // Engine keys of a tensor's moment blobs. Like P32Key, the configured
  // key namespace goes at the *front* ("job1/m/<name>") — a per-tenant
  // FaultConfig::key_prefix of "job1/" then scopes blob faults to
  // exactly this optimizer's traffic.
  std::string MomKey(const std::string& name) const;
  std::string VarKey(const std::string& name) const;

  /// The classic blocking step (sync mode), reads and writes each
  /// waited as one batch.
  Status StepTensorSync(const std::string& name, int64_t step, int64_t n,
                        const std::vector<Fp16>& grads16, float grad_unscale);

  /// The body of one deferred epoch (runs on the background pool).
  void RunEpoch(TensorMeta* meta, const std::string& name, int64_t step,
                int64_t n, std::vector<Fp16> grads16, ChunkPartition part,
                Buffer p32_in, Buffer m_in, Buffer v_in, Buffer p32_out,
                Buffer m_out, Buffer v_out, float grad_unscale);

  /// One epoch's submitted store writebacks, awaiting resolution on the
  /// reaper thread.
  struct PendingWrites {
    TensorMeta* meta = nullptr;
    std::vector<TransferEngine::Ticket> tickets;
    /// DRAM-tier keys the epoch pinned at publish; unpinned once the
    /// tickets resolve (the store is durable, reads may miss safely).
    std::vector<std::string> pinned_keys;
  };

  /// Resolves queued write-sets in submission (FIFO) order, releasing
  /// the epoch's DRAM-tier pins, flipping each tensor's
  /// `writes_inflight`, and recording sticky errors.
  void ReaperLoop();

  CpuAdamKernel kernel_;
  TransferEngine* engine_;  // not owned
  AsyncUpdateOptions options_;
  mutable std::mutex mu_;  // guards meta_ and stats_
  mutable std::condition_variable epoch_cv_;
  std::unordered_map<std::string, TensorMeta> meta_;
  mutable Stats stats_;
  /// FIFO of write-sets the reaper resolves. An epoch hands its tickets
  /// off here and frees its worker immediately — the throttled store
  /// drain never holds a background thread, so queued epochs publish at
  /// compute speed even when the write channel is backlogged.
  std::deque<PendingWrites> reap_queue_;
  mutable std::condition_variable reaper_cv_;
  bool reaper_shutdown_ = false;
  std::thread reaper_;
  /// Deferred-epoch workers; own pool (not the trainer's pipeline) so a
  /// foreground drain can never deadlock behind its own epoch. Epochs
  /// are submitted through `epochs_`, whose destructor waits them out.
  /// Declared last: the group (then the pool) tears down first, while
  /// meta_/engine_ are still alive.
  std::unique_ptr<ThreadPool> background_;
  std::unique_ptr<TaskGroup> epochs_;
};

}  // namespace ratel

#endif  // RATEL_RUNTIME_ASYNC_UPDATE_ENGINE_H_
