#ifndef RATEL_RUNTIME_COMPUTE_POOL_H_
#define RATEL_RUNTIME_COMPUTE_POOL_H_

#include <cstdint>
#include <functional>

namespace ratel {

/// Process-wide compute parallelism for the CPU kernels (tiled autograd
/// ops, chunk-parallel Adam). Distinct from I/O parallelism: the
/// TransferEngine's io_workers and the trainer's pipeline threads keep
/// their own pools, so a kernel fanning out here never steals an I/O
/// thread (and vice versa — no oversubscription between the stages of
/// the Fig. 3b pipeline).
///
/// The pool is sized once, lazily, from the RATEL_THREADS environment
/// knob (total compute threads including the caller, clamped to 16;
/// default: hardware concurrency; a malformed value or 0 fails a
/// RATEL_CHECK). RATEL_THREADS=1 disables worker threads entirely —
/// every kernel then runs inline.
///
/// Determinism contract: ComputeParallelFor partitions work into chunks
/// whose boundaries depend only on (begin, end, grain). Kernels keep a
/// fixed accumulation order inside each chunk and write disjoint
/// outputs, so results are bitwise identical for every thread count —
/// and identical whether the chunks run inline (below a serial cutoff)
/// or on the pool.

/// Resolved compute thread count (>= 1, includes the calling thread).
int ComputeThreads();

/// Overrides the compute thread count, recreating the shared pool
/// (tests and thread-sweep benchmarks). Must not be called while
/// kernels are in flight. `n` < 1 is clamped to 1.
void SetComputeThreads(int n);

/// The parallelism a dispatch will actually use: ComputeThreads()
/// clamped to the cores this process can run on (sched affinity via
/// hardware_concurrency). Requesting 4 threads on a 1-core cgroup
/// otherwise *slows kernels down* — the pool threads time-slice one
/// core and the dispatch handshake is pure overhead (the observed
/// adam1m/tinygpt4 4-thread regression). Oversubscribe mode (below)
/// removes the clamp.
int ParallelWidth();

/// Forces ParallelWidth() == ComputeThreads() even beyond the core
/// count. Used by the determinism/TSan tests, which *want* genuine
/// thread interleaving regardless of host size. Also enabled by the
/// RATEL_OVERSUBSCRIBE=1 environment variable.
void SetParallelOversubscribe(bool on);
bool ParallelOversubscribe();

/// Kernel cost classes for the adaptive dispatch table. Each class
/// carries a serial cutoff in *estimated scalar ops* (not elements):
/// a cost-aware ComputeParallelFor whose estimate falls at or below
/// the cutoff runs its chunks serially inline — same boundaries, same
/// ascending order — instead of paying the pool handshake (~ tens of
/// microseconds of dispatch + wakeup for small problems).
enum class KernelCost {
  kGemm = 0,        // O(m*n*k) FMA-bound tiles
  kElementwise = 1, // add / scale / mul / GeLU / dropout backward
  kRowReduce = 2,   // layernorm / softmax / cross-entropy rows
  kColReduce = 3,   // bias-grad / embedding-grad column tiles
  kAdam = 4,        // fused optimizer step (sqrt+div per element)
  kAttention = 5,   // per-(batch, head) attention blocks
};
inline constexpr int kNumKernelCosts = 6;

/// The serial cutoff for `cost`, in estimated scalar ops.
int64_t SerialCutoff(KernelCost cost);

/// Overrides one cutoff (tests, tuning). `ops` <= 0 means "never run
/// serial on account of size" (dispatch still runs inline when
/// ParallelWidth() is 1 or the range fits one chunk).
void SetSerialCutoff(KernelCost cost, int64_t ops);

/// Dispatch counters per cost class, for tests and diagnostics.
struct DispatchCounts {
  int64_t serial = 0;  // ran inline below the cutoff / width 1
  int64_t pooled = 0;  // fanned out to the shared pool
};
DispatchCounts DispatchStatsFor(KernelCost cost);
void ResetDispatchStats();

/// ThreadPool::ParallelFor on the shared compute pool: runs
/// `fn(chunk_begin, chunk_end)` over [begin, end) in fixed chunks of
/// `grain`, using up to ParallelWidth() threads (caller included), and
/// blocks until done. Runs inline when the effective width is 1 or the
/// range fits one chunk. Safe to call concurrently from multiple
/// threads; `fn` must not throw.
void ComputeParallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn);

/// Cost-aware variant: `est_ops` is the caller's estimate of total
/// scalar work in the loop (items x ops/item). Estimates at or below
/// SerialCutoff(cost) run serial inline; larger ones dispatch like the
/// plain overload. Either path visits identical chunks, so the choice
/// is invisible to the numerics.
void ComputeParallelFor(KernelCost cost, int64_t est_ops, int64_t begin,
                        int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn);

}  // namespace ratel

#endif  // RATEL_RUNTIME_COMPUTE_POOL_H_
