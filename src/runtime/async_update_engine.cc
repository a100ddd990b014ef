#include "runtime/async_update_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "xfer/tenant.h"

namespace ratel {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::string AsyncUpdateEngine::P32Key(const std::string& name) const {
  return options_.key_namespace + "p32/" + name;
}

std::string AsyncUpdateEngine::MomKey(const std::string& name) const {
  return options_.key_namespace + "m/" + name;
}

std::string AsyncUpdateEngine::VarKey(const std::string& name) const {
  return options_.key_namespace + "v/" + name;
}

AsyncUpdateEngine::AsyncUpdateEngine(const AdamConfig& config,
                                     TransferEngine* engine,
                                     const AsyncUpdateOptions& options)
    : kernel_(config), engine_(engine), options_(options) {
  RATEL_CHECK(engine != nullptr);
  options_.chunk = std::max<int64_t>(
      1, std::min(options_.chunk, CpuAdamKernel::kChunk));
  if (options_.async) {
    background_ =
        std::make_unique<ThreadPool>(std::max(1, options_.background_threads));
    epochs_ = std::make_unique<TaskGroup>(background_.get());
    reaper_ = std::thread([this] { ReaperLoop(); });
  }
}

AsyncUpdateEngine::~AsyncUpdateEngine() {
  if (background_ != nullptr) {
    // Wait every deferred epoch out (tail applied, writes resolved)
    // before any member it references goes away.
    (void)DrainAll();
    // All epochs are done enqueueing; the reaper drains what's left of
    // its queue (normally empty after DrainAll) and exits.
    {
      std::lock_guard<std::mutex> lock(mu_);
      reaper_shutdown_ = true;
    }
    reaper_cv_.notify_all();
    reaper_.join();
  }
}

void AsyncUpdateEngine::ReaperLoop() {
  for (;;) {
    PendingWrites pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      reaper_cv_.wait(
          lock, [this] { return reaper_shutdown_ || !reap_queue_.empty(); });
      if (reap_queue_.empty()) return;  // shutdown and fully drained
      pending = std::move(reap_queue_.front());
      reap_queue_.pop_front();
    }
    // FIFO matches store submission order, so each wait sleeps roughly
    // until its own writes clear the (possibly throttled) channel. Only
    // the actual blocking time counts toward background_seconds — queue
    // wait would double-count the single channel's drain across epochs.
    const auto start = std::chrono::steady_clock::now();
    const Status status = engine_->WaitAll(pending.tickets);
    // The store is durable for this epoch now: release its DRAM-tier
    // pins — a post-drain read that misses the tier from here on finds
    // the resolved write behind it.
    for (const std::string& key : pending.pinned_keys) {
      engine_->UnpinCached(key);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending.meta->writes_inflight = false;
      if (!status.ok() && pending.meta->epoch_status.ok()) {
        pending.meta->epoch_status = status;
      }
      stats_.background_seconds += SecondsSince(start);
    }
    epoch_cv_.notify_all();
  }
}

Status AsyncUpdateEngine::Register(const std::string& name,
                                   const std::vector<float>& initial_params) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (meta_.count(name) > 0) {
      return Status::AlreadyExists("tensor '" + name + "' registered twice");
    }
    TensorMeta meta;
    meta.size = static_cast<int64_t>(initial_params.size());
    meta_.emplace(name, std::move(meta));
  }
  const int64_t n = static_cast<int64_t>(initial_params.size());
  // Stage the initial state in pooled buffers and publish them
  // zero-copy: one allocation each, shared by the DRAM tier and the
  // store write.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32 = pool.Lease(4 * n);
  Buffer m0 = pool.Lease(4 * n);
  Buffer v0 = pool.Lease(4 * n);
  if (n > 0) {
    std::memcpy(p32.mutable_data(), initial_params.data(), 4 * n);
    std::memset(m0.mutable_data(), 0, 4 * n);
    std::memset(v0.mutable_data(), 0, 4 * n);
  }
  const std::vector<TransferEngine::Ticket> tickets = {
      engine_->SubmitWrite(FlowClass::kGradState, P32Key(name),
                           std::move(p32)),
      engine_->SubmitWrite(FlowClass::kGradState, MomKey(name), std::move(m0)),
      engine_->SubmitWrite(FlowClass::kGradState, VarKey(name), std::move(v0)),
  };
  Status status = engine_->WaitAll(tickets);
  if (!status.ok()) {
    // Leave no half-registered tensor behind: the store state is
    // garbage/absent, so the registration must be retryable.
    std::lock_guard<std::mutex> lock(mu_);
    meta_.erase(name);
  }
  return status;
}

Status AsyncUpdateEngine::DrainMetaLocked(std::unique_lock<std::mutex>& lock,
                                          const TensorMeta& meta) const {
  // With a DRAM tier the "published" barrier suffices: the epoch has
  // admitted its buffers tier-wide AND pinned them against eviction, so
  // same-key reads stay coherent from the moment epoch_pending clears
  // until the reaper unpins (store durable). When the epoch could not
  // pin all its keys (epoch_durable_only) — or there is no tier at all
  // — reads can reach the store, which only orders them behind
  // *resolved* writes: harden to the durable barrier.
  const bool durable = drain_needs_durable();
  auto ready = [&meta, durable] {
    return !meta.epoch_pending &&
           !((durable || meta.epoch_durable_only) && meta.writes_inflight);
  };
  if (!ready()) {
    ++stats_.drain_waits;
    const auto start = std::chrono::steady_clock::now();
    epoch_cv_.wait(lock, ready);
    stats_.drain_stall_seconds += SecondsSince(start);
  }
  return meta.epoch_status;
}

Status AsyncUpdateEngine::StepTensor(const std::string& name,
                                     const std::vector<Fp16>& grads16,
                                     float grad_unscale) {
  TensorMeta* meta = nullptr;
  int64_t step = 0;
  int64_t n = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) {
      return Status::NotFound("tensor '" + name + "' not registered");
    }
    if (static_cast<int64_t>(grads16.size()) != it->second.size) {
      return Status::InvalidArgument("gradient size mismatch for '" + name +
                                     "'");
    }
    meta = &it->second;
    // Staleness bound (<= 1 step): the previous deferred epoch of this
    // tensor must be behind us before its state is read again.
    RATEL_RETURN_IF_ERROR(DrainMetaLocked(lock, *meta));
    meta->step += 1;
    step = meta->step;
    n = meta->size;
  }
  if (!options_.async || n == 0) {
    return StepTensorSync(name, step, n, grads16, grad_unscale);
  }

  // SSD -> Main: stream P32 + OS32 (12 bytes/param) concurrently and
  // wait the set as one batch — the three reads hit independent stripes
  // and their latencies overlap. DRAM-hot tensors arrive as cache refs.
  Buffer p32_in, m_in, v_in;
  const std::vector<TransferEngine::Ticket> reads = {
      engine_->SubmitRead(FlowClass::kGradState, P32Key(name), &p32_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, MomKey(name), &m_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, VarKey(name), &v_in, 4 * n),
  };
  RATEL_RETURN_IF_ERROR(engine_->WaitAll(reads));

  // Fixed-boundary hot/tail split: a pure function of the gradients, so
  // async runs are bitwise reproducible at any thread count.
  ChunkPartition part = PartitionChunksByImportance(
      n, grads16.data(), options_.hot_fraction, options_.chunk, grad_unscale);

  // Hot chunks run on the critical path, out-of-place into freshly
  // leased buffers that stay private (unpublished) until the epoch has
  // filled in the tail — no reader can ever observe a half-applied
  // update.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32_out = pool.Lease(4 * n);
  Buffer m_out = pool.Lease(4 * n);
  Buffer v_out = pool.Lease(4 * n);
  kernel_.StepFp16GradsChunksOut(
      step, n, grads16.data(), part.hot, part.chunk,
      reinterpret_cast<const float*>(p32_in.data()),
      reinterpret_cast<const float*>(m_in.data()),
      reinterpret_cast<const float*>(v_in.data()),
      reinterpret_cast<float*>(p32_out.mutable_data()),
      reinterpret_cast<float*>(m_out.mutable_data()),
      reinterpret_cast<float*>(v_out.mutable_data()),
      /*params16_out=*/nullptr, grad_unscale);

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.hot_chunks += static_cast<int64_t>(part.hot.size());
    stats_.tail_chunks += static_cast<int64_t>(part.tail.size());
  }

  // A degenerate split (single-chunk tensor or hot_fraction >= 1)
  // leaves the tail empty; the epoch still runs — it skips the kernel
  // and only publishes + writes back. Routing even these tensors
  // through the deferred path keeps the foreground free of *any*
  // waited store write: a model's many tiny tensors would otherwise
  // queue critical writes behind the deferred backlog every step.
  {
    std::lock_guard<std::mutex> lock(mu_);
    meta->epoch_pending = true;
    ++stats_.deferred_epochs;
  }
  // The grads are copied for the epoch (2 bytes/param — the price of
  // returning before the tail is applied); the buffers are shared refs.
  epochs_->Submit([this, meta, name, step, n, grads = grads16,
                   part = std::move(part), p32_in = std::move(p32_in),
                   m_in = std::move(m_in), v_in = std::move(v_in),
                   p32_out = std::move(p32_out), m_out = std::move(m_out),
                   v_out = std::move(v_out), grad_unscale]() mutable {
    RunEpoch(meta, name, step, n, std::move(grads), std::move(part),
             std::move(p32_in), std::move(m_in), std::move(v_in),
             std::move(p32_out), std::move(m_out), std::move(v_out),
             grad_unscale);
  });
  return Status::Ok();
}

void AsyncUpdateEngine::RunEpoch(TensorMeta* meta, const std::string& name,
                                 int64_t step, int64_t n,
                                 std::vector<Fp16> grads16, ChunkPartition part,
                                 Buffer p32_in, Buffer m_in, Buffer v_in,
                                 Buffer p32_out, Buffer m_out, Buffer v_out,
                                 float grad_unscale) {
  // Epoch workers run outside any caller tenant scope; attribute their
  // deferred writebacks to the optimizer's own tenant.
  ScopedTenant tenant_scope(options_.tenant);
  {
    // Same-key store ordering: the previous epoch's writes must have
    // resolved before this epoch's are submitted, or the store could
    // land them out of order. (The foreground only enqueues an epoch
    // after draining the previous one, so this blocks only while the
    // write channel still drains the tensor's previous step.)
    std::unique_lock<std::mutex> lock(mu_);
    epoch_cv_.wait(lock, [meta] { return !meta->writes_inflight; });
  }
  // Clock the epoch's useful work only — the ordering wait above idles
  // on the channel and would double-count its drain across workers.
  const auto start = std::chrono::steady_clock::now();
  // Apply the deferred tail with the exact (step, grads, state) inputs
  // of the foreground's hot pass — elementwise Adam makes the combined
  // result bitwise identical to a single full-tensor step.
  kernel_.StepFp16GradsChunksOut(
      step, n, grads16.data(), part.tail, part.chunk,
      reinterpret_cast<const float*>(p32_in.data()),
      reinterpret_cast<const float*>(m_in.data()),
      reinterpret_cast<const float*>(v_in.data()),
      reinterpret_cast<float*>(p32_out.mutable_data()),
      reinterpret_cast<float*>(m_out.mutable_data()),
      reinterpret_cast<float*>(v_out.mutable_data()),
      /*params16_out=*/nullptr, grad_unscale);
  p32_in.reset();  // return read staging to the pool before writeback
  m_in.reset();
  v_in.reset();

  // Main -> SSD off the critical path: publish P32 + OS32 (12
  // bytes/param) as background kDeferredState traffic — a
  // latency-critical param fetch can always overtake these in the
  // scheduler.
  const std::vector<TransferEngine::Ticket> writes = {
      engine_->SubmitWrite(FlowClass::kDeferredState, P32Key(name),
                           std::move(p32_out)),
      engine_->SubmitWrite(FlowClass::kDeferredState, MomKey(name),
                           std::move(m_out)),
      engine_->SubmitWrite(FlowClass::kDeferredState, VarKey(name),
                           std::move(v_out)),
  };
  // The published barrier is only sound while all three blobs stay
  // resident in the DRAM tier: pin them until the store writes resolve
  // (the reaper unpins). A failed pin means the entry was evicted
  // between admission and here, or the blob is larger than the tier and
  // was never admitted — a post-drain read could then miss and reach
  // the store ahead of the unresolved write, so this epoch must drain
  // durably instead. No same-key read can intervene before the pins:
  // every consumer drains first, and the drain only releases once
  // epoch_pending clears below.
  const bool have_tier = !drain_needs_durable();
  std::vector<std::string> pinned;
  pinned.reserve(3);
  bool resident = have_tier;
  if (have_tier) {
    for (const std::string& key :
         {P32Key(name), MomKey(name), VarKey(name)}) {
      if (engine_->PinCached(key)) {
        pinned.push_back(key);
      } else {
        resident = false;
        break;
      }
    }
    if (!resident) {
      for (const std::string& key : pinned) engine_->UnpinCached(key);
      pinned.clear();
    }
  }
  {
    // Published: the DRAM tier serves the new state coherently from
    // here on; foreground consumers behind the published barrier may
    // proceed while the store writes resolve. Resolution itself is the
    // reaper's job — this worker is free for the next epoch the moment
    // the tickets are handed off, so a backlogged write channel can
    // never dam up the epoch queue behind one in-flight writeback.
    std::lock_guard<std::mutex> lock(mu_);
    meta->epoch_pending = false;
    meta->writes_inflight = true;
    meta->epoch_durable_only = !resident;
    // Only tier-backed epochs count as *fallbacks*; with no DRAM tier
    // at all, every drain is durable by construction.
    if (have_tier && !resident) ++stats_.durable_fallback_epochs;
    reap_queue_.push_back(PendingWrites{meta, writes, std::move(pinned)});
    // The epoch's own wall time (ordering wait + tail kernel + write
    // submission); the reaper adds the store-drain wait separately.
    stats_.background_seconds += SecondsSince(start);
  }
  epoch_cv_.notify_all();
  reaper_cv_.notify_all();
}

Status AsyncUpdateEngine::StepTensorSync(const std::string& name, int64_t step,
                                         int64_t n,
                                         const std::vector<Fp16>& grads16,
                                         float grad_unscale) {
  // SSD -> Main: stream P32 + OS32 (12 bytes/param) concurrently, the
  // set waited as one batch so the three miss latencies overlap. The
  // reads hit independent stripes; DRAM-hot tensors arrive as cache
  // refs (no copy at all), cold ones land in pooled staging.
  Buffer p32_in, m_in, v_in;
  const std::vector<TransferEngine::Ticket> reads = {
      engine_->SubmitRead(FlowClass::kGradState, P32Key(name), &p32_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, MomKey(name), &m_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, VarKey(name), &v_in, 4 * n),
  };
  RATEL_RETURN_IF_ERROR(engine_->WaitAll(reads));

  // CPU compute: the Adam handler. The inputs are published (possibly
  // shared with the DRAM tier), so the kernel runs out-of-place into
  // freshly leased buffers — same chunk grid, bitwise-identical
  // arithmetic. The kernel fans out on the
  // shared ComputePool; the SSD read/writeback stages above and below
  // stay on the TransferEngine's own I/O workers, so compute and I/O
  // threads never compete.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32_out = pool.Lease(4 * n);
  Buffer m_out = pool.Lease(4 * n);
  Buffer v_out = pool.Lease(4 * n);
  kernel_.StepFp16GradsOut(
      step, n, grads16.data(), reinterpret_cast<const float*>(p32_in.data()),
      reinterpret_cast<const float*>(m_in.data()),
      reinterpret_cast<const float*>(v_in.data()),
      reinterpret_cast<float*>(p32_out.mutable_data()),
      reinterpret_cast<float*>(m_out.mutable_data()),
      reinterpret_cast<float*>(v_out.mutable_data()),
      /*params16_out=*/nullptr, grad_unscale);
  p32_in.reset();  // return read staging to the pool before writeback
  m_in.reset();
  v_in.reset();

  // Main -> SSD: write back P32 + OS32 (12 bytes/param), zero-copy —
  // each leased buffer is published once and shared by the DRAM tier
  // and the store write. Waited here so the tensor's next fetch/step
  // cannot overtake the writeback (the forward-stage P32 reads travel
  // in the latency-critical class, which would pass these writes in the
  // scheduler).
  const std::vector<TransferEngine::Ticket> writes = {
      engine_->SubmitWrite(FlowClass::kGradState, P32Key(name),
                           std::move(p32_out)),
      engine_->SubmitWrite(FlowClass::kGradState, MomKey(name),
                           std::move(m_out)),
      engine_->SubmitWrite(FlowClass::kGradState, VarKey(name),
                           std::move(v_out)),
  };
  return engine_->WaitAll(writes);
}

Status AsyncUpdateEngine::FetchMasterParams(const std::string& name,
                                            std::vector<float>* out) const {
  int64_t n = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) {
      return Status::NotFound("tensor '" + name + "' not registered");
    }
    n = it->second.size;
    RATEL_RETURN_IF_ERROR(DrainMetaLocked(lock, it->second));
  }
  out->resize(n);
  return engine_->Read(FlowClass::kCheckpoint, P32Key(name), out->data(),
                       4 * n);
}

Status AsyncUpdateEngine::ExportStateBuffers(const std::string& name,
                                             int64_t* step, Buffer* p32,
                                             Buffer* m, Buffer* v) const {
  int64_t n = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) {
      return Status::NotFound("tensor '" + name + "' not registered");
    }
    n = it->second.size;
    RATEL_RETURN_IF_ERROR(DrainMetaLocked(lock, it->second));
    *step = it->second.step;
  }
  const std::vector<TransferEngine::Ticket> reads = {
      engine_->SubmitRead(FlowClass::kCheckpoint, P32Key(name), p32, 4 * n),
      engine_->SubmitRead(FlowClass::kCheckpoint, MomKey(name), m, 4 * n),
      engine_->SubmitRead(FlowClass::kCheckpoint, VarKey(name), v, 4 * n),
  };
  return engine_->WaitAll(reads);
}

Status AsyncUpdateEngine::ImportState(const std::string& name, int64_t step,
                                      const std::vector<float>& p32,
                                      const std::vector<float>& m,
                                      const std::vector<float>& v) {
  const int64_t n = static_cast<int64_t>(p32.size());
  if (static_cast<int64_t>(m.size()) != n ||
      static_cast<int64_t>(v.size()) != n) {
    return Status::InvalidArgument("optimizer state size mismatch for '" +
                                   name + "'");
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it != meta_.end()) {
      if (it->second.size != n) {
        return Status::InvalidArgument("tensor '" + name +
                                       "' registered with a different size");
      }
      // Wait the tensor's deferred epoch fully out (durable) — a late
      // kDeferredState write landing after the import would clobber the
      // restored state at the store level.
      TensorMeta& meta = it->second;
      epoch_cv_.wait(lock, [&meta] {
        return !meta.epoch_pending && !meta.writes_inflight;
      });
      meta.step = step;
      meta.epoch_status = Status::Ok();  // superseded by the import
    } else {
      TensorMeta meta;
      meta.size = n;
      meta.step = step;
      meta_.emplace(name, std::move(meta));
    }
  }
  // Stage in pooled buffers and publish zero-copy, mirroring Register.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32_buf = pool.Lease(4 * n);
  Buffer m_buf = pool.Lease(4 * n);
  Buffer v_buf = pool.Lease(4 * n);
  if (n > 0) {
    std::memcpy(p32_buf.mutable_data(), p32.data(), 4 * n);
    std::memcpy(m_buf.mutable_data(), m.data(), 4 * n);
    std::memcpy(v_buf.mutable_data(), v.data(), 4 * n);
  }
  const std::vector<TransferEngine::Ticket> tickets = {
      engine_->SubmitWrite(FlowClass::kCheckpoint, P32Key(name),
                           std::move(p32_buf)),
      engine_->SubmitWrite(FlowClass::kCheckpoint, MomKey(name),
                           std::move(m_buf)),
      engine_->SubmitWrite(FlowClass::kCheckpoint, VarKey(name),
                           std::move(v_buf)),
  };
  return engine_->WaitAll(tickets);
}

Status AsyncUpdateEngine::DrainTensor(const std::string& name) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("tensor '" + name + "' not registered");
  }
  return DrainMetaLocked(lock, it->second);
}

Status AsyncUpdateEngine::DrainAll() const {
  // Collect names first: the cv wait releases mu_, and a concurrent
  // Register could rehash the map under an iterator.
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(meta_.size());
    for (const auto& [name, meta] : meta_) names.push_back(name);
  }
  Status first_error;
  for (const std::string& name : names) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) continue;
    const TensorMeta& meta = it->second;
    // Full durable barrier regardless of the DRAM tier: this is the
    // checkpoint / shutdown fence.
    epoch_cv_.wait(lock, [&meta] {
      return !meta.epoch_pending && !meta.writes_inflight;
    });
    if (!meta.epoch_status.ok() && first_error.ok()) {
      first_error = meta.epoch_status;
    }
  }
  return first_error;
}

AsyncUpdateEngine::Stats AsyncUpdateEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ratel
