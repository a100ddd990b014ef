#ifndef RATEL_XFER_TRANSFER_ENGINE_H_
#define RATEL_XFER_TRANSFER_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "mem/tier_cache.h"
#include "storage/block_store.h"
#include "storage/fault_injector.h"
#include "storage/io_scheduler.h"
#include "storage/throttled_channel.h"
#include "xfer/codec.h"
#include "xfer/flow.h"
#include "xfer/tenant.h"

namespace ratel {

/// Scheduling class a flow's reads map to: fetch/spill traffic stalls
/// the "GPU", state and checkpoint traffic only has to finish
/// eventually.
IoScheduler::Priority FlowPriority(FlowClass flow);

/// Scheduling class a flow's writes map to: FlowPriority, except that
/// activation-spill writes go at background priority. Every read of an
/// unresolved write is forwarded from its payload, so no step waits on
/// a spill write's store leg.
IoScheduler::Priority FlowWritePriority(FlowClass flow);

/// Cumulative counters of one flow class.
struct FlowCounters {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  /// Portion of bytes_read served by the DRAM tier (no store I/O).
  int64_t bytes_from_cache = 0;
  /// Portion of bytes_read served from the payload of an unresolved
  /// same-key write (store-to-load forwarding, no store I/O). Like
  /// cache hits, these reads stay out of encoded_bytes_read.
  int64_t bytes_forwarded = 0;
  /// Logical bytes of writes withdrawn from the scheduler queue because
  /// a newer same-key write superseded them before service (write
  /// absorption). They never reach the store, so they stay out of
  /// writes, bytes_written and encoded_bytes_written; the flow and
  /// tenant are the absorbed write's own.
  int64_t bytes_absorbed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Summed submit-to-completion latency (queueing + service).
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  int64_t errors = 0;
  /// Store attempts beyond each request's first (transient-failure
  /// recovery work attributed to this flow).
  int64_t retries = 0;
  /// Requests that still failed after exhausting their retry budget.
  int64_t giveups = 0;
  /// Total backoff sleep spent recovering this flow's requests.
  double backoff_seconds = 0.0;
  /// Payload bytes the engine memcpy'd in host memory on behalf of this
  /// flow: the staging copy of a pointer SubmitWrite/Write and the
  /// copy-out of the synchronous Read. Buffer-native traffic keeps this
  /// at 0.
  int64_t bytes_copied = 0;
  /// Staging allocations (and their copies) the shared-buffer design
  /// avoided versus the old copy-per-tier path: one per write leg that
  /// now shares the published buffer (DRAM ref, scheduler ref) and one
  /// per read served or promoted by reference.
  int64_t allocs_avoided = 0;
  /// ---- Codec accounting (see xfer/codec.h). bytes_read/bytes_written
  /// above always count *logical* (decoded) bytes; the encoded_* pair
  /// counts what actually crossed the store leg, so for every flow —
  /// codec'd or raw — summing encoded bytes over flows reconciles
  /// exactly against the store totals (cache hits contribute 0). On a
  /// raw (no-codec) flow encoded == logical. ----
  int64_t encoded_bytes_written = 0;
  int64_t encoded_bytes_read = 0;
  /// Frame encodes performed at submit (one per codec'd write).
  int64_t encodes = 0;
  /// Frame verify+decode attempts on the read path (one per store-read
  /// attempt that reached the worker's finalize hook; retries of a
  /// corrupt frame each count).
  int64_t decodes = 0;
  /// Decode attempts rejected by the frame CRC / decoder (bit rot, torn
  /// frames). Each failed attempt counts; a blob whose corruption
  /// persists through the whole retry budget also counts one error.
  int64_t decode_failures = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;

  /// Logical-per-encoded byte ratios of the store leg (1.0 when the
  /// flow moved no store bytes). Reconciles exactly against the raw
  /// counters by construction: ratio * encoded bytes == logical bytes.
  double WriteCompressionRatio() const {
    return encoded_bytes_written > 0
               ? static_cast<double>(bytes_written) /
                     static_cast<double>(encoded_bytes_written)
               : 1.0;
  }
  double ReadCompressionRatio() const {
    return encoded_bytes_read > 0
               ? static_cast<double>(bytes_read - bytes_from_cache -
                                     bytes_forwarded) /
                     static_cast<double>(encoded_bytes_read)
               : 1.0;
  }
};

/// Point-in-time snapshot of the engine's accounting: per-flow counters
/// plus the DRAM-tier and store-level totals they reconcile against
/// (sum of flow write bytes == store writes; sum of flow read bytes ==
/// store reads + cache-served bytes, when all traffic uses the engine).
struct TransferStats {
  std::array<FlowCounters, kNumFlowClasses> flow{};
  TierCache::Stats cache;  // zero-valued when the DRAM tier is disabled
  int64_t store_bytes_read = 0;
  int64_t store_bytes_written = 0;
  /// Store time with a read (write) in service, queue wait excluded
  /// (IoScheduler::read_busy_seconds): store-leg bytes per busy second
  /// is the observed device bandwidth the replanner tracks.
  double store_read_busy_seconds = 0.0;
  double store_write_busy_seconds = 0.0;

  const FlowCounters& Flow(FlowClass f) const {
    return flow[static_cast<size_t>(f)];
  }
  int64_t TotalBytesRead() const;
  int64_t TotalBytesWritten() const;
  double DramHitRate() const { return cache.HitRate(); }
};

/// Per-flow difference `later - earlier` (per-step breakdowns).
TransferStats Delta(const TransferStats& later, const TransferStats& earlier);

struct TransferOptions {
  /// Backing directory and stripe count of the emulated SSD array.
  std::string dir = "/tmp/ratel_xfer";
  int num_stripes = 4;
  int64_t chunk_bytes = 1 << 20;
  /// DRAM tier capacity in front of the store; 0 disables caching.
  int64_t host_cache_bytes = 0;
  /// Worker threads of the I/O scheduler.
  int io_workers = 2;
  /// Background aging limit forwarded to the scheduler (starvation
  /// bound for state writebacks under sustained fetch load).
  int background_aging_limit = 64;
  /// Optional bandwidth throttles (bytes/s) emulating slow devices; 0
  /// disables throttling.
  double read_bandwidth = 0.0;
  double write_bandwidth = 0.0;
  /// Failure model of the emulated array. When enabled() the engine
  /// owns a FaultInjector wired into the store, both channels, and the
  /// scheduler's workers (flow-scoped). Disabled by default.
  FaultConfig fault;
  /// Retry discipline the scheduler applies to transient store failures.
  RetryPolicy retry;
  /// External injector (not owned) overriding `fault` — for tests that
  /// need the injector's stall / virtual-clock seams.
  FaultInjector* fault_injector = nullptr;
  /// Consecutive write failures before the store declares a stripe dead
  /// and re-stripes around it.
  int stripe_death_threshold = 3;
  /// Model array bandwidth as proportional to live stripes: when the
  /// store declares a stripe dead, both throttled channels are re-rated
  /// to base * live/total (a RAID-0 array losing a device loses that
  /// device's lanes). No effect when unthrottled (bandwidth = 0), so
  /// fault tests on unthrottled stores are unaffected.
  bool degrade_bandwidth_on_stripe_death = true;
  /// Deficit-weighted round robin among tenants inside each scheduler
  /// priority class (see IoScheduler::Tuning); false degrades tenancy
  /// to one global FIFO per class — the A/B baseline for the
  /// multitenant bench. Irrelevant with a single tenant.
  bool fair_share = true;
  int64_t fair_quantum_bytes = 64 * 1024;
  /// Per-flow transform codecs on the store path (see xfer/codec.h).
  /// A flow with no codec (the default) runs the byte-identical raw
  /// path; a codec'd flow frames/encodes on write and CRC-verifies/
  /// decodes on read, the DRAM tier always holding logical bytes. Lossy
  /// codecs skip the write-side DRAM admit, and a read forwarded from an
  /// unresolved write decodes that write's frame, so the value a reader
  /// observes is always the store round trip decode(encode(x)) and never
  /// depends on cache residency or write timing.
  CodecConfig codec;
};

/// The single tiered facade over the Host <-> SSD hierarchy: owns the
/// striped BlockStore, the DRAM TierCache, and the priority IoScheduler,
/// and is the only component the runtime layer talks to for data
/// movement. Every operation is tagged with a FlowClass that decides its
/// scheduling priority and its accounting bucket; reads are served from
/// the DRAM tier when hot and promoted into it when cold; writes go
/// write-through (DRAM ref immediately, store write asynchronously).
/// Every read delivers a published Buffer ref; there is no copying
/// read path below the synchronous Read convenience.
///
/// Thread-safe. Ordering contract: operations on *different* keys are
/// unordered. Per key, a read observes the latest write *submitted*
/// before it (SubmitWrite returned), resolved or not: the engine tracks
/// each key's unresolved write, and a read that misses the DRAM tier
/// while one is pending is served from that write's published payload
/// (store-to-load forwarding; a codec'd flow CRC-checks and decodes the
/// frame in memory, so the bytes equal a store round trip). A second
/// write to a key whose previous write is unresolved absorbs it if it
/// is still queued, and waits for it if it is in service: a queued
/// predecessor is withdrawn from the scheduler (its ticket resolves OK,
/// its bytes count as bytes_absorbed, it never reaches the store),
/// while one already in service is waited out at submit. Either way
/// the store applies the surviving same-key writes in submission order
/// and ends with the newest. A write that fails still served the reads
/// forwarded before it resolved; its error surfaces on its own ticket.
///
/// Tenancy: every submit is additionally attributed to the calling
/// thread's CurrentTenant() (see ScopedTenant). The tenant dimension
/// carries (a) a second, per-tenant copy of the flow accounting —
/// updated with the *same* deltas at the same sites, so summing
/// tenant_stats over tenants() reconciles exactly against stats(); (b)
/// the fair-share lane the request is scheduled in; (c) the quota the
/// request is charged against (DRAM-tier residency + store-bound bytes
/// in flight — the latter blocks the submitting thread until the
/// tenant's own traffic drains below the cap). A thread that never
/// enters a ScopedTenant is tenant 0 with no quotas: the single-job
/// path is bitwise identical to the pre-tenancy engine.
class TransferEngine {
 public:
  /// Waitable handle of an asynchronous transfer. Wait exactly once.
  using Ticket = int64_t;

  static Result<std::unique_ptr<TransferEngine>> Open(
      const TransferOptions& options);

  ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Asynchronous write (data staged into one pooled buffer — exactly
  /// one host copy — shared by the DRAM tier and the store path). A
  /// DRAM-tier ref is admitted immediately so same-key reads are
  /// coherent. A codec'd flow whose logical bytes no tier keeps (lossy
  /// codec, or no DRAM tier) encodes straight from `data` instead: no
  /// staging copy. `data` only has to stay valid until this returns.
  Ticket SubmitWrite(FlowClass flow, const std::string& key, const void* data,
                     int64_t size);

  /// Zero-copy asynchronous write: the engine shares `payload` — one
  /// allocation, zero host copies — between the DRAM tier and the store
  /// path. `payload` is published: no holder may mutate it afterwards.
  Ticket SubmitWrite(FlowClass flow, const std::string& key, Buffer payload);

  /// Zero-copy asynchronous read: a DRAM hit points `*out` at the
  /// cached buffer (a ref, no memcpy) and resolves immediately; a miss
  /// leases a destination from the pool, reads the store into it,
  /// promotes that same buffer into the DRAM tier by reference, and
  /// assigns it to `*out` before the ticket resolves. `out` must stay
  /// alive until Wait; its bytes are frozen (shared with the cache).
  Ticket SubmitRead(FlowClass flow, const std::string& key, Buffer* out,
                    int64_t size);

  /// Blocks until `ticket` resolved; returns its I/O status. A ticket
  /// that was never issued — or was already waited on — yields
  /// kInvalidArgument instead of undefined behavior.
  Status Wait(Ticket ticket);

  /// Blocks until *every* ticket in the set resolved and returns the
  /// first genuine transfer error (issue order). Equivalent to waiting
  /// each ticket, but the whole set is translated under one lock up
  /// front, so the underlying transfers overlap regardless of which
  /// resolves first — the batched form the optimizer's three-way state
  /// read wants. Each ticket is consumed exactly as by Wait; a
  /// never-issued/double-waited ticket yields kInvalidArgument only
  /// when no real transfer in the set failed, so bookkeeping mistakes
  /// can never mask an actionable I/O error.
  Status WaitAll(const std::vector<Ticket>& tickets);

  /// Blocks until every submitted transfer resolved; returns the first
  /// store-level error encountered (if any). Idempotent: draining an
  /// already-drained engine is a no-op returning the same status.
  /// Consumes no ticket: on a shared engine other callers' tickets stay
  /// theirs, and each still returns its own status from Wait.
  Status Drain();

  /// Synchronous conveniences (submit + wait).
  Status Write(FlowClass flow, const std::string& key, const void* data,
               int64_t size);
  Status Read(FlowClass flow, const std::string& key, void* out, int64_t size);
  Status WriteBuffer(FlowClass flow, const std::string& key, Buffer payload);
  Result<Buffer> ReadBuffer(FlowClass flow, const std::string& key,
                            int64_t size);

  /// Removes `key` from both tiers.
  Status Delete(const std::string& key);

  Result<int64_t> BlobSize(const std::string& key) const;
  bool Contains(const std::string& key) const;

  /// Consistent snapshot of the per-flow / cache / store accounting.
  TransferStats stats() const;

  /// Installs `tenant`'s scheduling weight and quotas (idempotent;
  /// reconfiguring is allowed). Quota value 0 = unlimited.
  void ConfigureTenant(TenantId tenant, const TenantConfig& config);

  /// Per-tenant snapshot: the flow counters of `tenant`'s traffic only
  /// (cache/store totals stay engine-global and are left zero). For
  /// every counter, sum over tenants() == the same counter in stats().
  TransferStats tenant_stats(TenantId tenant) const;

  /// Tenants that have submitted at least one operation (sorted).
  std::vector<TenantId> tenants() const;

  /// `tenant`'s store-bound bytes currently in flight (diagnostics /
  /// quota tests).
  int64_t tenant_inflight_bytes(TenantId tenant) const;

  /// The owned store, for capacity diagnostics (num_blobs, stripes,
  /// allocated bytes) — data movement must go through the engine.
  const BlockStore& store() const { return *store_; }

  int64_t host_cache_capacity() const {
    return cache_ != nullptr ? cache_->capacity_bytes() : 0;
  }

  /// Pins `key`'s DRAM-tier entry so it cannot be evicted until
  /// UnpinCached — the residency guarantee a caller needs when it
  /// publishes a write tier-wide and lets readers proceed before the
  /// store write resolves. Returns false (no pin taken) when there is
  /// no DRAM tier or the key is not resident (evicted, or larger than
  /// the tier); the caller must then wait the write out durably instead.
  bool PinCached(const std::string& key) {
    return cache_ != nullptr && cache_->Pin(key);
  }

  /// Releases one PinCached pin. No-op without a DRAM tier.
  void UnpinCached(const std::string& key) {
    if (cache_ != nullptr) cache_->Unpin(key);
  }

  /// Staging arena of the movement path. Consumers lease their I/O
  /// buffers here so steady-state training performs zero heap
  /// allocations between host and the store.
  BufferPool& buffer_pool() { return pool_; }

  /// The active fault injector (owned or external); null when the
  /// failure model is disabled.
  FaultInjector* fault_injector() const { return injector_; }

  /// The per-flow codec table (built from TransferOptions::codec).
  const CodecRegistry& codecs() const { return codecs_; }

  /// Current effective channel rates in bytes/s (0 when unthrottled).
  /// Differ from TransferOptions::{read,write}_bandwidth once stripe
  /// death degraded the array (degrade_bandwidth_on_stripe_death).
  double current_read_bandwidth() const;
  double current_write_bandwidth() const;

 private:
  explicit TransferEngine(const TransferOptions& options);

  FlowCounters& CountersFor(FlowClass flow) {
    return counters_[static_cast<size_t>(flow)];
  }

  /// Applies one accounting mutation to the global flow bucket AND the
  /// tenant's copy of it — the only way counters are ever touched, so
  /// per-tenant totals reconcile against per-flow totals by
  /// construction. Caller holds mu_.
  template <typename Fn>
  void AccountLocked(TenantId tenant, FlowClass flow, Fn&& fn) {
    fn(CountersFor(flow));
    fn(tenant_counters_[tenant][static_cast<size_t>(flow)]);
  }

  /// Blocks until `size` more store-bound bytes fit under `tenant`'s
  /// in-flight quota, then charges them. A request larger than the
  /// whole quota is admitted once the tenant is idle (it could never
  /// proceed otherwise). No-op for unlimited tenants.
  void AcquireInflight(TenantId tenant, int64_t size);
  /// Releases bytes charged by AcquireInflight (from completions).
  void ReleaseInflight(TenantId tenant, int64_t size);

  /// True when a write on a flow with `codec` must keep its logical
  /// bytes in a published Buffer: the raw store path ships it, and a
  /// lossless codec admits it to the DRAM tier.
  bool KeepsLogicalPayload(const Codec* codec) const {
    return codec == nullptr || (cache_ != nullptr && codec->lossless());
  }

  /// Shared write leg: publishes `payload` to the DRAM tier (by ref)
  /// and the scheduler (by ref). `staging_copies` is the number of host
  /// copies the caller already performed to stage the payload (1 when
  /// the pointer SubmitWrite staged it, 0 for a Buffer). When the flow has a
  /// codec, the logical bytes at `logical` are framed into a second
  /// pooled buffer and the *frame* goes to the store; `payload` may then
  /// be empty when !KeepsLogicalPayload. Absorbs a queued unresolved
  /// write of the same key, or waits out one in service, then records
  /// this one for forwarding.
  Ticket SubmitWriteImpl(FlowClass flow, const std::string& key,
                         const uint8_t* logical, int64_t size, Buffer payload,
                         int64_t staging_copies);

  /// The store-leg payload (raw bytes or codec frame) of `key`'s
  /// unresolved write, if there is one.
  bool PendingPayload(const std::string& key, Buffer* payload) const;

  /// Store-to-load forwarding: serves a read from `pending`, the store
  /// payload of an unresolved same-key write, exactly as a store read of
  /// it would (size check, or CRC check + decode for a codec'd flow),
  /// and on success points `*out` at the logical bytes (a ref to the
  /// payload on a raw flow). The ticket resolves at once.
  Ticket ForwardRead(FlowClass flow, const Buffer& pending, int64_t size,
                     Buffer* out);

  /// Codec-path read miss: fetches the frame, CRC-verifies + decodes it
  /// in the worker's finalize hook (retrying corrupt frames per
  /// RetryPolicy), then on success points `*out` at the decoded buffer
  /// and promotes it by reference before the ticket resolves.
  Ticket SubmitCodecReadMiss(FlowClass flow, const std::string& key,
                             const Codec& codec, int64_t size, Buffer* out);

  /// Re-rates both channels to base * live/total when the store's
  /// dead-stripe count changed since the last poll. Called from write
  /// completions (stripes only die on writes); lock-free no-op on the
  /// steady-state path.
  void MaybeRescaleChannels();

  TransferOptions options_;
  std::unique_ptr<FaultInjector> owned_injector_;  // outlives store/sched
  FaultInjector* injector_ = nullptr;  // active injector; may be external
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<ThrottledChannel> read_channel_;   // null when unthrottled
  std::unique_ptr<ThrottledChannel> write_channel_;  // null when unthrottled
  std::unique_ptr<TierCache> cache_;                 // null when disabled
  BufferPool pool_;  // staging arena; outlives the scheduler's requests
  CodecRegistry codecs_;
  std::unique_ptr<IoScheduler> sched_;               // destroyed first

  mutable std::mutex mu_;  // guards counters_, tenant state, ticket maps
  std::array<FlowCounters, kNumFlowClasses> counters_{};
  // Per-tenant mirror of counters_ (ordered so tenants() is sorted).
  std::map<TenantId, std::array<FlowCounters, kNumFlowClasses>>
      tenant_counters_;
  std::unordered_map<TenantId, int64_t> inflight_quota_;  // 0/absent = inf
  std::unordered_map<TenantId, int64_t> inflight_bytes_;
  std::condition_variable inflight_cv_;
  Ticket next_ticket_ = 1;
  // Tickets resolved at submit time (DRAM hits) await their single Wait.
  std::unordered_map<Ticket, Status> resolved_;
  // In-flight tickets map to the scheduler ticket doing the store I/O.
  std::unordered_map<Ticket, IoScheduler::Ticket> inflight_;
  // Each key's unresolved write (at most one per key: a second write
  // absorbs a queued one, or waits on pending_cv_ for one in service).
  // An entry is created together with its scheduler ticket, under mu_,
  // so a concurrent writer only ever withdraws a ticket that exists.
  struct PendingWrite {
    Buffer payload;  // store-leg payload (raw bytes or codec frame)
    IoScheduler::Ticket io_ticket = 0;
    FlowClass flow = FlowClass::kParamFetch;
    TenantId tenant = kDefaultTenant;
    int64_t logical_bytes = 0;
    int64_t store_bytes = 0;
  };
  std::unordered_map<std::string, PendingWrite> pending_writes_;
  std::condition_variable pending_cv_;
  // Dead-stripe count already folded into the channel rates.
  std::atomic<int> seen_dead_stripes_{0};
};

}  // namespace ratel

#endif  // RATEL_XFER_TRANSFER_ENGINE_H_
