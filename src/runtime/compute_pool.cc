#include "runtime/compute_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/knobs.h"
#include "runtime/thread_pool.h"

namespace ratel {

namespace {

constexpr int kMaxComputeThreads = 16;

int ResolveThreads() {
  if (const auto n = knobs::GetOrDie<int64_t>("RATEL_THREADS")) {
    return static_cast<int>(std::min<int64_t>(*n, kMaxComputeThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxComputeThreads);
}

std::mutex g_mu;
int g_threads = 0;  // 0 = not yet resolved
// The pool holds g_threads - 1 workers (the ParallelFor caller is the
// remaining executor); null when single-threaded.
std::shared_ptr<ThreadPool> g_pool;

// Resolves lazily and returns the pool share for this call. Holding a
// shared_ptr keeps the workers alive across a concurrent
// SetComputeThreads; the old pool joins when its last user drops it.
std::shared_ptr<ThreadPool> PoolShare() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_threads == 0) {
    g_threads = ResolveThreads();
    if (g_threads > 1) g_pool = std::make_shared<ThreadPool>(g_threads - 1);
  }
  return g_pool;
}

// Cores this process may actually run on. hardware_concurrency() is
// affinity-aware on Linux (sched_getaffinity), so a 4-thread request
// inside a 1-core cgroup reports 1 here.
int AvailableCores() {
  static const int cores = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, kMaxComputeThreads);
  }();
  return cores;
}

std::atomic<int> g_oversubscribe{-1};  // -1 = resolve from env on first use

bool ResolveOversubscribe() {
  int v = g_oversubscribe.load(std::memory_order_relaxed);
  if (v < 0) {
    v = knobs::GetOrDie<bool>("RATEL_OVERSUBSCRIBE").value_or(false) ? 1 : 0;
    g_oversubscribe.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

// Serial cutoffs in estimated scalar ops, indexed by KernelCost. The
// defaults put the crossover where the pool handshake (~10-30 us on a
// contended host) stops dominating: bandwidth-bound elementwise loops
// amortize it only past tens of thousands of elements, FMA-dense GEMM
// slightly later per-op because each op is cheaper than a dispatch
// fence, and the Adam step (sqrt + div per element, ~16 ops) between.
constexpr int64_t kDefaultCutoffs[kNumKernelCosts] = {
    int64_t{1} << 19,  // kGemm
    int64_t{1} << 15,  // kElementwise
    int64_t{1} << 15,  // kRowReduce
    int64_t{1} << 15,  // kColReduce
    int64_t{1} << 18,  // kAdam
    int64_t{1} << 19,  // kAttention
};

std::atomic<int64_t> g_cutoffs[kNumKernelCosts] = {
    kDefaultCutoffs[0], kDefaultCutoffs[1], kDefaultCutoffs[2],
    kDefaultCutoffs[3], kDefaultCutoffs[4], kDefaultCutoffs[5],
};

struct AtomicDispatchCounts {
  std::atomic<int64_t> serial{0};
  std::atomic<int64_t> pooled{0};
};
AtomicDispatchCounts g_stats[kNumKernelCosts];

void RunChunksInline(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn) {
  // Same chunk boundaries as the pooled path, ascending order.
  for (int64_t b = begin; b < end; b += grain) {
    fn(b, std::min(end, b + grain));
  }
}

}  // namespace

int ComputeThreads() {
  PoolShare();
  std::lock_guard<std::mutex> lock(g_mu);
  return g_threads;
}

void SetComputeThreads(int n) {
  n = std::clamp(n, 1, kMaxComputeThreads);
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (n == g_threads) return;
    old = std::move(g_pool);
    g_threads = n;
    g_pool = n > 1 ? std::make_shared<ThreadPool>(n - 1) : nullptr;
  }
  // Joins the previous workers outside the lock (unless still in use).
}

int ParallelWidth() {
  const int threads = ComputeThreads();
  if (ResolveOversubscribe()) return threads;
  return std::min(threads, AvailableCores());
}

void SetParallelOversubscribe(bool on) {
  g_oversubscribe.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool ParallelOversubscribe() { return ResolveOversubscribe(); }

int64_t SerialCutoff(KernelCost cost) {
  return g_cutoffs[static_cast<int>(cost)].load(std::memory_order_relaxed);
}

void SetSerialCutoff(KernelCost cost, int64_t ops) {
  g_cutoffs[static_cast<int>(cost)].store(ops, std::memory_order_relaxed);
}

DispatchCounts DispatchStatsFor(KernelCost cost) {
  const auto& s = g_stats[static_cast<int>(cost)];
  DispatchCounts out;
  out.serial = s.serial.load(std::memory_order_relaxed);
  out.pooled = s.pooled.load(std::memory_order_relaxed);
  return out;
}

void ResetDispatchStats() {
  for (auto& s : g_stats) {
    s.serial.store(0, std::memory_order_relaxed);
    s.pooled.store(0, std::memory_order_relaxed);
  }
}

void ComputeParallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  std::shared_ptr<ThreadPool> pool = PoolShare();
  if (pool == nullptr || ParallelWidth() <= 1) {
    RunChunksInline(begin, end, grain, fn);
    return;
  }
  pool->ParallelFor(begin, end, grain, fn);
}

void ComputeParallelFor(KernelCost cost, int64_t est_ops, int64_t begin,
                        int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  auto& stats = g_stats[static_cast<int>(cost)];
  const int64_t cutoff = SerialCutoff(cost);
  std::shared_ptr<ThreadPool> pool = PoolShare();
  const bool small = cutoff > 0 && est_ops <= cutoff;
  if (pool == nullptr || ParallelWidth() <= 1 || small ||
      end - begin <= grain) {
    stats.serial.fetch_add(1, std::memory_order_relaxed);
    RunChunksInline(begin, end, grain, fn);
    return;
  }
  stats.pooled.fetch_add(1, std::memory_order_relaxed);
  pool->ParallelFor(begin, end, grain, fn);
}

}  // namespace ratel
