#include "xfer/transfer_engine.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace ratel {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* FlowClassName(FlowClass flow) {
  switch (flow) {
    case FlowClass::kParamFetch:
      return "param_fetch";
    case FlowClass::kGradState:
      return "grad_state";
    case FlowClass::kActivationSpill:
      return "activation_spill";
    case FlowClass::kCheckpoint:
      return "checkpoint";
    case FlowClass::kDeferredState:
      return "deferred_state";
  }
  return "unknown";
}

IoScheduler::Priority FlowPriority(FlowClass flow) {
  switch (flow) {
    case FlowClass::kParamFetch:
    case FlowClass::kActivationSpill:
      return IoScheduler::Priority::kLatencyCritical;
    case FlowClass::kGradState:
      // Foreground-waited state streaming: the optimizer blocks on these
      // every step, so they must not sit FIFO behind the accumulated
      // kDeferredState write backlog — but they still yield to the
      // latency-critical fetch/spill traffic the GPU stalls on.
      return IoScheduler::Priority::kNormal;
    case FlowClass::kCheckpoint:
    case FlowClass::kDeferredState:
      return IoScheduler::Priority::kBackground;
  }
  return IoScheduler::Priority::kBackground;
}

IoScheduler::Priority FlowWritePriority(FlowClass flow) {
  return flow == FlowClass::kActivationSpill
             ? IoScheduler::Priority::kBackground
             : FlowPriority(flow);
}

int64_t TransferStats::TotalBytesRead() const {
  int64_t total = 0;
  for (const FlowCounters& c : flow) total += c.bytes_read;
  return total;
}

int64_t TransferStats::TotalBytesWritten() const {
  int64_t total = 0;
  for (const FlowCounters& c : flow) total += c.bytes_written;
  return total;
}

TransferStats Delta(const TransferStats& later, const TransferStats& earlier) {
  TransferStats d;
  for (int i = 0; i < kNumFlowClasses; ++i) {
    const FlowCounters& a = later.flow[i];
    const FlowCounters& b = earlier.flow[i];
    FlowCounters& out = d.flow[i];
    out.reads = a.reads - b.reads;
    out.writes = a.writes - b.writes;
    out.bytes_read = a.bytes_read - b.bytes_read;
    out.bytes_written = a.bytes_written - b.bytes_written;
    out.bytes_from_cache = a.bytes_from_cache - b.bytes_from_cache;
    out.bytes_forwarded = a.bytes_forwarded - b.bytes_forwarded;
    out.cache_hits = a.cache_hits - b.cache_hits;
    out.cache_misses = a.cache_misses - b.cache_misses;
    out.read_seconds = a.read_seconds - b.read_seconds;
    out.write_seconds = a.write_seconds - b.write_seconds;
    out.errors = a.errors - b.errors;
    out.retries = a.retries - b.retries;
    out.giveups = a.giveups - b.giveups;
    out.backoff_seconds = a.backoff_seconds - b.backoff_seconds;
    out.bytes_copied = a.bytes_copied - b.bytes_copied;
    out.allocs_avoided = a.allocs_avoided - b.allocs_avoided;
    out.encoded_bytes_written = a.encoded_bytes_written - b.encoded_bytes_written;
    out.encoded_bytes_read = a.encoded_bytes_read - b.encoded_bytes_read;
    out.encodes = a.encodes - b.encodes;
    out.decodes = a.decodes - b.decodes;
    out.decode_failures = a.decode_failures - b.decode_failures;
    out.encode_seconds = a.encode_seconds - b.encode_seconds;
    out.decode_seconds = a.decode_seconds - b.decode_seconds;
  }
  d.cache.hits = later.cache.hits - earlier.cache.hits;
  d.cache.misses = later.cache.misses - earlier.cache.misses;
  d.cache.evictions = later.cache.evictions - earlier.cache.evictions;
  d.cache.bytes_cached = later.cache.bytes_cached;  // a level, not a rate
  d.cache.hit_bytes = later.cache.hit_bytes - earlier.cache.hit_bytes;
  d.cache.miss_bytes = later.cache.miss_bytes - earlier.cache.miss_bytes;
  d.store_bytes_read = later.store_bytes_read - earlier.store_bytes_read;
  d.store_bytes_written =
      later.store_bytes_written - earlier.store_bytes_written;
  d.store_read_busy_seconds =
      later.store_read_busy_seconds - earlier.store_read_busy_seconds;
  d.store_write_busy_seconds =
      later.store_write_busy_seconds - earlier.store_write_busy_seconds;
  return d;
}

TransferEngine::TransferEngine(const TransferOptions& options)
    : options_(options) {}

Result<std::unique_ptr<TransferEngine>> TransferEngine::Open(
    const TransferOptions& options) {
  if (options.io_workers <= 0) {
    return Status::InvalidArgument("TransferOptions.io_workers must be > 0");
  }
  std::unique_ptr<TransferEngine> engine(new TransferEngine(options));
  // The injector seam: an external one (test-owned) wins; otherwise the
  // engine owns one whenever the failure model is enabled.
  if (options.fault_injector != nullptr) {
    engine->injector_ = options.fault_injector;
  } else if (options.fault.enabled()) {
    engine->owned_injector_ = std::make_unique<FaultInjector>(options.fault);
    engine->injector_ = engine->owned_injector_.get();
  }
  BlockStore::Tuning store_tuning;
  store_tuning.injector = engine->injector_;
  store_tuning.stripe_death_threshold = options.stripe_death_threshold;
  RATEL_ASSIGN_OR_RETURN(
      engine->store_,
      BlockStore::Open(options.dir, options.num_stripes, options.chunk_bytes,
                       store_tuning));
  if (options.read_bandwidth > 0) {
    engine->read_channel_ = std::make_unique<ThrottledChannel>(
        "ssd-read", options.read_bandwidth, engine->injector_);
  }
  if (options.write_bandwidth > 0) {
    engine->write_channel_ = std::make_unique<ThrottledChannel>(
        "ssd-write", options.write_bandwidth, engine->injector_);
  }
  if (options.host_cache_bytes > 0) {
    engine->cache_ = std::make_unique<TierCache>(options.host_cache_bytes);
  }
  RATEL_ASSIGN_OR_RETURN(engine->codecs_,
                         CodecRegistry::Create(options.codec));
  IoScheduler::Tuning tuning;
  tuning.background_aging_limit = options.background_aging_limit;
  tuning.read_channel = engine->read_channel_.get();
  tuning.write_channel = engine->write_channel_.get();
  tuning.retry = options.retry;
  tuning.fair_share = options.fair_share;
  tuning.fair_quantum_bytes = options.fair_quantum_bytes;
  engine->sched_ = std::make_unique<IoScheduler>(engine->store_.get(),
                                                 options.io_workers, tuning);
  return engine;
}

TransferEngine::~TransferEngine() {
  // The scheduler's destructor drains in-flight work whose completion
  // callbacks touch counters_ and cache_; destroy it before them.
  sched_.reset();
}

TransferEngine::Ticket TransferEngine::SubmitWriteImpl(
    FlowClass flow, const std::string& key, const uint8_t* logical,
    int64_t size, Buffer payload, int64_t staging_copies) {
  const TenantId tenant = CurrentTenant();
  const Codec* codec = codecs_.ForFlow(flow);
  RATEL_CHECK(!payload.empty() || size == 0 || !KeepsLogicalPayload(codec));
  int64_t avoided = 0;
  // Write-through: the DRAM tier takes a *reference* to the published
  // logical payload — visible to same-key reads immediately, and one
  // whole allocation+copy cheaper than the old copy-per-tier design.
  // Lossy codecs skip the admit: a reader must observe the store round
  // trip decode(encode(x)) whether or not the key is still resident,
  // or the delivered value would depend on eviction timing.
  if (cache_ != nullptr) {
    if (codec == nullptr || codec->lossless()) {
      cache_->AdmitBuffer(key, payload, tenant);
      ++avoided;
    } else {
      // Overwriting a key whose previous *decode* was promoted must
      // drop that entry, or later reads would serve the prior value's
      // bytes from DRAM instead of this write's round trip.
      cache_->Invalidate(key);
    }
  }
  // Buffer-native callers staged nothing: the scheduler's old internal
  // payload copy is avoided too.
  if (staging_copies == 0) ++avoided;
  // Codec'd flows ship a framed encoding to the store instead of the
  // logical bytes: encode into one pooled buffer, publish once.
  Buffer store_payload;
  int64_t store_bytes = size;
  double encode_seconds = 0.0;
  if (codec == nullptr) {
    store_payload = std::move(payload);
  } else {
    store_bytes = FrameSizeFor(*codec, size);
    const auto enc0 = std::chrono::steady_clock::now();
    store_payload = pool_.Lease(store_bytes);
    EncodeFrame(*codec, logical, size, store_payload.mutable_data());
    encode_seconds = SecondsSince(enc0);
    payload.reset();
  }
  {
    // Same-key write ordering: the store must apply this write after the
    // key's unresolved one, so wait that one out. From then until this
    // write resolves, same-key reads that miss the DRAM tier are
    // forwarded from its payload.
    std::unique_lock<std::mutex> lock(mu_);
    pending_cv_.wait(lock, [&] { return pending_writes_.count(key) == 0; });
    pending_writes_.emplace(key, store_payload);
  }
  AcquireInflight(tenant, store_bytes);
  const auto start = std::chrono::steady_clock::now();
  IoScheduler::Ticket io_ticket = sched_->SubmitWrite(
      key, std::move(store_payload), FlowWritePriority(flow),
      [this, flow, tenant, key, size, store_bytes,
       start](const IoResult& result) {
        // Hoisted out of the accounting lambda: AccountLocked applies it
        // twice and both copies must receive the identical delta.
        const double elapsed = SecondsSince(start);
        {
          std::lock_guard<std::mutex> lock(mu_);
          // The store holds this write's outcome now: later reads go
          // there, and a queued same-key write may proceed.
          pending_writes_.erase(key);
          AccountLocked(tenant, flow, [&](FlowCounters& c) {
            ++c.writes;
            c.write_seconds += elapsed;
            c.retries += result.attempts - 1;
            c.backoff_seconds += result.backoff_seconds;
            if (result.gave_up) ++c.giveups;
            if (result.status.ok()) {
              c.bytes_written += size;
              c.encoded_bytes_written += store_bytes;
            } else {
              ++c.errors;
            }
          });
        }
        pending_cv_.notify_all();
        ReleaseInflight(tenant, store_bytes);
        // Stripes only die on writes; poll here so a wear-out event
        // re-rates the throttled channels within one completion.
        MaybeRescaleChannels();
      },
      static_cast<int>(flow), tenant);
  std::lock_guard<std::mutex> lock(mu_);
  AccountLocked(tenant, flow, [&](FlowCounters& c) {
    c.bytes_copied += staging_copies * size;
    c.allocs_avoided += avoided;
    if (codec != nullptr) {
      ++c.encodes;
      c.encode_seconds += encode_seconds;
    }
  });
  Ticket ticket = next_ticket_++;
  inflight_.emplace(ticket, io_ticket);
  return ticket;
}

TransferEngine::Ticket TransferEngine::SubmitWrite(FlowClass flow,
                                                   const std::string& key,
                                                   const void* data,
                                                   int64_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  // A codec'd flow whose logical bytes no tier keeps encodes straight
  // from the caller's memory: nothing to stage.
  if (!KeepsLogicalPayload(codecs_.ForFlow(flow))) {
    return SubmitWriteImpl(flow, key, bytes, size, Buffer(),
                           /*staging_copies=*/0);
  }
  // Legacy pointer API: stage the caller's bytes into one pooled buffer
  // (the single host copy of this write), then share it tier-wide.
  Buffer staged = pool_.Lease(size);
  if (size > 0) std::memcpy(staged.mutable_data(), data, size);
  const uint8_t* logical = staged.data();
  return SubmitWriteImpl(flow, key, logical, size, std::move(staged),
                         /*staging_copies=*/1);
}

TransferEngine::Ticket TransferEngine::SubmitWrite(FlowClass flow,
                                                   const std::string& key,
                                                   Buffer payload) {
  const uint8_t* logical = payload.data();
  const int64_t size = payload.size();
  return SubmitWriteImpl(flow, key, logical, size, std::move(payload),
                         /*staging_copies=*/0);
}

bool TransferEngine::PendingPayload(const std::string& key,
                                    Buffer* payload) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_writes_.find(key);
  if (it == pending_writes_.end()) return false;
  *payload = it->second;
  return true;
}

TransferEngine::Ticket TransferEngine::ForwardRead(FlowClass flow,
                                                   const Buffer& pending,
                                                   int64_t size, Buffer* out) {
  const TenantId tenant = CurrentTenant();
  const Codec* codec = codecs_.ForFlow(flow);
  Status status;
  Buffer logical;
  double decode_seconds = 0.0;
  if (codec != nullptr) {
    // The same frame check and decode a store read's finalize hook runs.
    const auto dec0 = std::chrono::steady_clock::now();
    logical = pool_.Lease(size);
    status = DecodeFrame(pending.data(), pending.size(),
                         logical.mutable_data(), size);
    decode_seconds = SecondsSince(dec0);
  } else if (pending.size() != size) {
    status = Status::InvalidArgument(
        "pending write has size " + std::to_string(pending.size()) +
        ", caller expected " + std::to_string(size));
  } else {
    logical = pending;  // raw flow: share the published payload
  }
  if (status.ok()) *out = std::move(logical);  // zero-copy delivery
  // Like a DRAM hit, a forwarded read adds no read_seconds: those time
  // store-leg requests, which the replanner turns into bandwidth.
  std::lock_guard<std::mutex> lock(mu_);
  AccountLocked(tenant, flow, [&](FlowCounters& c) {
    ++c.reads;
    if (cache_ != nullptr) ++c.cache_misses;
    if (codec != nullptr) {
      ++c.decodes;
      c.decode_seconds += decode_seconds;
      if (!status.ok()) ++c.decode_failures;
    } else {
      ++c.allocs_avoided;  // served by reference: no alloc, no memcpy
    }
    if (status.ok()) {
      c.bytes_read += size;
      c.bytes_forwarded += size;
    } else {
      ++c.errors;
    }
  });
  Ticket ticket = next_ticket_++;
  resolved_.emplace(ticket, status);
  return ticket;
}

TransferEngine::Ticket TransferEngine::SubmitCodecReadMiss(
    FlowClass flow, const std::string& key, const Codec& codec, int64_t size,
    Buffer* out) {
  const TenantId tenant = CurrentTenant();
  // The frame size is a pure function of the logical size (the codec
  // contract), so no metadata round trip is needed to size the fetch.
  const int64_t frame_bytes = FrameSizeFor(codec, size);
  AcquireInflight(tenant, frame_bytes);
  Buffer frame = pool_.Lease(frame_bytes);
  Buffer dst = pool_.Lease(size);
  // Per-request decode tallies, filled by the worker's finalize attempts
  // and folded into the flow counters at completion. Finalize and
  // completion run sequentially on the same worker, so plain fields are
  // safe.
  struct DecodeState {
    int64_t decodes = 0;
    int64_t failures = 0;
    double seconds = 0.0;
  };
  auto decode_state = std::make_shared<DecodeState>();
  const auto start = std::chrono::steady_clock::now();
  const bool count_miss = cache_ != nullptr;
  IoScheduler::Ticket io_ticket = sched_->SubmitRead(
      key, frame, FlowPriority(flow),
      [this, flow, tenant, key, dst, out, frame_bytes, size, start,
       count_miss, decode_state](const IoResult& result) {
        bool promoted = false;
        if (result.status.ok()) {
          *out = dst;  // zero-copy delivery
          if (cache_ != nullptr) {
            // Promote the *decoded* bytes by reference. A later DRAM
            // hit then returns exactly what this store round trip
            // decoded — consistent for lossy codecs too, because the
            // persisted frame would decode to the same bytes again.
            cache_->AdmitBuffer(key, dst, tenant);
            promoted = true;
          }
        }
        const double elapsed = SecondsSince(start);
        {
          std::lock_guard<std::mutex> lock(mu_);
          AccountLocked(tenant, flow, [&](FlowCounters& c) {
            ++c.reads;
            if (count_miss) ++c.cache_misses;
            if (promoted) ++c.allocs_avoided;
            c.read_seconds += elapsed;
            c.retries += result.attempts - 1;
            c.backoff_seconds += result.backoff_seconds;
            if (result.gave_up) ++c.giveups;
            c.decodes += decode_state->decodes;
            c.decode_failures += decode_state->failures;
            c.decode_seconds += decode_state->seconds;
            if (result.status.ok()) {
              c.bytes_read += size;
              c.encoded_bytes_read += frame_bytes;
            } else {
              ++c.errors;
            }
          });
        }
        ReleaseInflight(tenant, frame_bytes);
      },
      static_cast<int>(flow), tenant,
      /*finalize=*/[frame, dst, size, decode_state]() mutable -> Status {
        const auto dec0 = std::chrono::steady_clock::now();
        ++decode_state->decodes;
        Status status =
            DecodeFrame(frame.data(), frame.size(), dst.mutable_data(), size);
        decode_state->seconds += SecondsSince(dec0);
        if (!status.ok()) ++decode_state->failures;
        return status;
      });
  std::lock_guard<std::mutex> lock(mu_);
  Ticket ticket = next_ticket_++;
  inflight_.emplace(ticket, io_ticket);
  return ticket;
}

TransferEngine::Ticket TransferEngine::SubmitRead(FlowClass flow,
                                                  const std::string& key,
                                                  Buffer* out, int64_t size) {
  RATEL_CHECK(out != nullptr);
  const TenantId tenant = CurrentTenant();
  if (cache_ != nullptr) {
    Buffer ref;
    if (cache_->TryGetRef(key, size, &ref)) {
      *out = std::move(ref);
      std::lock_guard<std::mutex> lock(mu_);
      AccountLocked(tenant, flow, [&](FlowCounters& c) {
        ++c.reads;
        ++c.cache_hits;
        c.bytes_read += size;
        c.bytes_from_cache += size;
        ++c.allocs_avoided;  // served by reference: no alloc, no memcpy
      });
      Ticket ticket = next_ticket_++;
      resolved_.emplace(ticket, Status::Ok());
      return ticket;
    }
  }
  if (Buffer pending; PendingPayload(key, &pending)) {
    return ForwardRead(flow, pending, size, out);
  }
  if (const Codec* codec = codecs_.ForFlow(flow)) {
    return SubmitCodecReadMiss(flow, key, *codec, size, out);
  }
  AcquireInflight(tenant, size);
  Buffer dst = pool_.Lease(size);
  const auto start = std::chrono::steady_clock::now();
  const bool count_miss = cache_ != nullptr;
  IoScheduler::Ticket io_ticket = sched_->SubmitRead(
      key, dst, FlowPriority(flow),
      [this, flow, tenant, key, dst, out, size, start,
       count_miss](const IoResult& result) {
        bool promoted = false;
        if (result.status.ok()) {
          // Deliver before the ticket resolves; promote the very same
          // buffer into the DRAM tier by reference (no copy).
          *out = dst;
          if (cache_ != nullptr) {
            cache_->AdmitBuffer(key, dst, tenant);
            promoted = true;
          }
        }
        const double elapsed = SecondsSince(start);
        {
          std::lock_guard<std::mutex> lock(mu_);
          AccountLocked(tenant, flow, [&](FlowCounters& c) {
            ++c.reads;
            if (count_miss) ++c.cache_misses;
            if (promoted) ++c.allocs_avoided;  // promotion without a copy
            c.read_seconds += elapsed;
            c.retries += result.attempts - 1;
            c.backoff_seconds += result.backoff_seconds;
            if (result.gave_up) ++c.giveups;
            if (result.status.ok()) {
              c.bytes_read += size;
              c.encoded_bytes_read += size;  // raw path: encoded == logical
            } else {
              ++c.errors;
            }
          });
        }
        ReleaseInflight(tenant, size);
      },
      static_cast<int>(flow), tenant);
  std::lock_guard<std::mutex> lock(mu_);
  Ticket ticket = next_ticket_++;
  inflight_.emplace(ticket, io_ticket);
  return ticket;
}

Status TransferEngine::Wait(Ticket ticket) {
  IoScheduler::Ticket io_ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto res = resolved_.find(ticket);
    if (res != resolved_.end()) {
      Status status = res->second;
      resolved_.erase(res);
      return status;
    }
    auto it = inflight_.find(ticket);
    if (it == inflight_.end()) {
      return Status::InvalidArgument(
          "Wait on transfer ticket " + std::to_string(ticket) +
          " which was never issued or was already waited on");
    }
    io_ticket = it->second;
    inflight_.erase(it);
  }
  return sched_->Wait(io_ticket);
}

Status TransferEngine::WaitAll(const std::vector<Ticket>& tickets) {
  // Translate the whole set under one lock: every ticket is consumed up
  // front, and the scheduler-side waits below merely collect transfers
  // that have been running concurrently since submit.
  std::vector<Status> immediate(tickets.size(), Status::Ok());
  Status first_bookkeeping;  // never-issued / double-waited tickets
  std::vector<std::pair<size_t, IoScheduler::Ticket>> io_tickets;
  io_tickets.reserve(tickets.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < tickets.size(); ++i) {
      auto res = resolved_.find(tickets[i]);
      if (res != resolved_.end()) {
        immediate[i] = res->second;
        resolved_.erase(res);
        continue;
      }
      auto it = inflight_.find(tickets[i]);
      if (it == inflight_.end()) {
        if (first_bookkeeping.ok()) {
          first_bookkeeping = Status::InvalidArgument(
              "Wait on transfer ticket " + std::to_string(tickets[i]) +
              " which was never issued or was already waited on");
        }
        continue;
      }
      io_tickets.emplace_back(i, it->second);
      inflight_.erase(it);
    }
  }
  for (const auto& [i, io_ticket] : io_tickets) {
    immediate[i] = sched_->Wait(io_ticket);
  }
  // First *transfer* error in issue order (stable regardless of
  // completion order); a ticket-bookkeeping InvalidArgument surfaces
  // only when every real transfer in the set succeeded, so it can
  // never mask the actionable store failure.
  for (const Status& s : immediate) {
    if (!s.ok()) return s;
  }
  return first_bookkeeping;
}

Status TransferEngine::Drain() {
  // Every ticket stays with its caller: a drained one resolves at once
  // in Wait, with its own status.
  return sched_->Drain();
}

Status TransferEngine::Write(FlowClass flow, const std::string& key,
                             const void* data, int64_t size) {
  return Wait(SubmitWrite(flow, key, data, size));
}

Status TransferEngine::Read(FlowClass flow, const std::string& key, void* out,
                            int64_t size) {
  // Ride the buffer path; the only copy is the one into `out`.
  Buffer staged;
  Status status = Wait(SubmitRead(flow, key, &staged, size));
  if (status.ok() && size > 0) {
    std::memcpy(out, staged.data(), size);
    std::lock_guard<std::mutex> lock(mu_);
    AccountLocked(CurrentTenant(), flow,
                  [&](FlowCounters& c) { c.bytes_copied += size; });
  }
  return status;
}

Status TransferEngine::WriteBuffer(FlowClass flow, const std::string& key,
                                   Buffer payload) {
  return Wait(SubmitWrite(flow, key, std::move(payload)));
}

Result<Buffer> TransferEngine::ReadBuffer(FlowClass flow,
                                          const std::string& key,
                                          int64_t size) {
  Buffer out;
  RATEL_RETURN_IF_ERROR(Wait(SubmitRead(flow, key, &out, size)));
  return out;
}

Status TransferEngine::Delete(const std::string& key) {
  if (cache_ != nullptr) cache_->Invalidate(key);
  return store_->Delete(key);
}

Result<int64_t> TransferEngine::BlobSize(const std::string& key) const {
  return store_->BlobSize(key);
}

bool TransferEngine::Contains(const std::string& key) const {
  return store_->Contains(key);
}

TransferStats TransferEngine::stats() const {
  TransferStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.flow = counters_;
  }
  if (cache_ != nullptr) snapshot.cache = cache_->stats();
  snapshot.store_bytes_read = store_->total_bytes_read();
  snapshot.store_bytes_written = store_->total_bytes_written();
  snapshot.store_read_busy_seconds = sched_->read_busy_seconds();
  snapshot.store_write_busy_seconds = sched_->write_busy_seconds();
  return snapshot;
}

void TransferEngine::ConfigureTenant(TenantId tenant,
                                     const TenantConfig& config) {
  sched_->SetTenantWeight(tenant, config.weight);
  if (cache_ != nullptr) {
    cache_->SetTenantQuota(tenant, config.quota.dram_bytes);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_quota_[tenant] = config.quota.inflight_bytes;
  }
  // A raised (or removed) quota may unblock submitters parked in
  // AcquireInflight.
  inflight_cv_.notify_all();
}

TransferStats TransferEngine::tenant_stats(TenantId tenant) const {
  TransferStats snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_counters_.find(tenant);
  if (it != tenant_counters_.end()) snapshot.flow = it->second;
  return snapshot;
}

std::vector<TenantId> TransferEngine::tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantId> ids;
  ids.reserve(tenant_counters_.size());
  for (const auto& [tenant, counters] : tenant_counters_) {
    ids.push_back(tenant);
  }
  return ids;
}

int64_t TransferEngine::tenant_inflight_bytes(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_bytes_.find(tenant);
  return it != inflight_bytes_.end() ? it->second : 0;
}

void TransferEngine::AcquireInflight(TenantId tenant, int64_t size) {
  std::unique_lock<std::mutex> lock(mu_);
  auto quota_it = inflight_quota_.find(tenant);
  if (quota_it != inflight_quota_.end() && quota_it->second > 0) {
    const int64_t quota = quota_it->second;
    // A request larger than the whole quota is admitted once the
    // tenant's own traffic fully drained — it could never fit
    // otherwise. Only the tenant's own bytes gate the wait: quota
    // backpressure must never couple tenants to each other.
    inflight_cv_.wait(lock, [&] {
      const int64_t current = inflight_bytes_[tenant];
      return current == 0 || current + size <= quota;
    });
  }
  inflight_bytes_[tenant] += size;
}

void TransferEngine::ReleaseInflight(TenantId tenant, int64_t size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_bytes_[tenant] -= size;
  }
  inflight_cv_.notify_all();
}

void TransferEngine::MaybeRescaleChannels() {
  if (!options_.degrade_bandwidth_on_stripe_death) return;
  if (read_channel_ == nullptr && write_channel_ == nullptr) return;
  const int dead = store_->num_dead_stripes();
  int seen = seen_dead_stripes_.load(std::memory_order_relaxed);
  if (dead == seen) return;
  // One completion wins the transition; losers see the updated count.
  if (!seen_dead_stripes_.compare_exchange_strong(seen, dead)) return;
  const int total = store_->num_stripes();
  if (dead >= total) return;  // fully dead array: writes fail anyway
  const double scale = static_cast<double>(total - dead) / total;
  if (read_channel_ != nullptr) {
    read_channel_->SetBandwidth(options_.read_bandwidth * scale);
  }
  if (write_channel_ != nullptr) {
    write_channel_->SetBandwidth(options_.write_bandwidth * scale);
  }
  RATEL_LOG(Warning) << "array degraded to " << (total - dead) << "/" << total
                     << " live stripes; channel bandwidth rescaled to "
                     << scale << "x";
}

double TransferEngine::current_read_bandwidth() const {
  return read_channel_ != nullptr ? read_channel_->bytes_per_second() : 0.0;
}

double TransferEngine::current_write_bandwidth() const {
  return write_channel_ != nullptr ? write_channel_->bytes_per_second() : 0.0;
}

}  // namespace ratel
