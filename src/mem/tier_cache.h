#ifndef RATEL_MEM_TIER_CACHE_H_
#define RATEL_MEM_TIER_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"

namespace ratel {

/// LRU cache of published buffers in host memory — the "main memory"
/// tier of the paper's GPU / main-memory / SSD hierarchy. Hot tensors
/// (e.g. the P32 blocks of small models, or the most recently produced
/// activations) are served from DRAM. The cache never touches the store:
/// the transfer engine owns every store leg, admits what it writes or
/// reads, and falls through to the "SSDs" on a miss.
///
/// Thread-safe; concurrent probes and admits on any keys are allowed.
///
/// Entries carry the tenant that admitted them. A tenant may be given a
/// resident-byte quota (SetTenantQuota): once the tenant's bytes exceed
/// it, the tenant's *own* unpinned LRU entries are evicted until it is
/// back under — the shared global capacity is still enforced on top,
/// but one job can no longer flush a neighbor's working set by
/// over-admitting. Tenant 0 (the default) is unlimited unless
/// explicitly capped, so single-job behavior is unchanged.
class TierCache {
 public:
  /// `capacity_bytes` bounds the DRAM tier (0 disables caching entirely:
  /// every probe misses).
  explicit TierCache(int64_t capacity_bytes);

  /// Inserts/overwrites the DRAM entry — promotion after a store read,
  /// or the DRAM leg of a write the engine sends to the store
  /// asynchronously. The cache takes a reference to `data` (no memcpy);
  /// it must be published (no holder mutates it afterwards). The entry
  /// is charged to `tenant`'s resident-byte budget.
  void AdmitBuffer(const std::string& key, Buffer data, int tenant = 0);

  /// Hit-only probe: on a DRAM hit of exactly `size` bytes,
  /// points `*out` at the cached buffer (a new reference, no memcpy) and
  /// returns true; otherwise counts a miss and returns false. The
  /// returned ref stays valid — and keeps reading the same bytes — even
  /// if the entry is later evicted or the key rewritten.
  bool TryGetRef(const std::string& key, int64_t size, Buffer* out);

  /// Drops a key from the DRAM tier (the store copy is untouched).
  /// Dropping a pinned key is allowed (a Delete supersedes the pin);
  /// its pins vanish with the entry.
  void Invalidate(const std::string& key);

  /// Pins `key`'s entry: pinned entries are never evicted, so a reader
  /// is guaranteed to keep hitting DRAM until the matching Unpin — the
  /// residency contract a publish-then-resolve write pipeline needs
  /// while its store writes are still in flight. Pins nest (counted).
  /// Returns false (no pin taken) when the key is not resident — e.g.
  /// already evicted, or a blob larger than the tier that was never
  /// admitted; the caller must then fall back to a durable barrier.
  /// Overwriting a pinned key keeps the pin on the fresher value;
  /// pinned bytes may transiently hold the tier above capacity.
  bool Pin(const std::string& key);

  /// Releases one pin of `key`; the entry becomes evictable again once
  /// its count reaches zero. No-op when the key is gone (invalidated).
  void Unpin(const std::string& key);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t bytes_cached = 0;
    /// Bytes served from DRAM / bytes that fell through to the store;
    /// hit_bytes + miss_bytes equals the bytes of all issued reads.
    int64_t hit_bytes = 0;
    int64_t miss_bytes = 0;
    /// Bytes currently held un-evictable by Pin (subset of
    /// bytes_cached).
    int64_t pinned_bytes = 0;
    double HitRate() const {
      const int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  int64_t capacity_bytes() const { return capacity_; }

  /// Caps `tenant`'s resident bytes (0 = unlimited, the default). An
  /// over-quota admit evicts the tenant's own unpinned LRU entries; the
  /// just-admitted entry itself is exempt, so one oversized blob is
  /// still admitted (matching the global-capacity overshoot contract
  /// for pins).
  void SetTenantQuota(int tenant, int64_t bytes);

  /// Resident bytes currently attributed to `tenant`.
  int64_t TenantBytes(int tenant) const;

 private:
  struct CacheEntry {
    Buffer data;  // ref-counted: readers may hold it across eviction
    int pins = 0;  // > 0: exempt from eviction
    int tenant = 0;  // whose quota the bytes count against
    std::list<std::string>::iterator lru_it;
  };

  // Caller holds mu_. Inserts/overwrites `key` and evicts to capacity
  // (globally) and to `tenant`'s quota (tenant-locally).
  void InsertLocked(const std::string& key, Buffer data, int tenant);
  void EvictToFitLocked(int64_t incoming);
  // Caller holds mu_. Evicts `tenant`'s unpinned LRU entries (except
  // `exempt`) until the tenant is back under its quota.
  void EvictTenantToQuotaLocked(int tenant, const std::string& exempt);
  void RemoveEntryLocked(std::unordered_map<std::string, CacheEntry>::iterator
                             it);

  int64_t capacity_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, CacheEntry> entries_;
  std::unordered_map<int, int64_t> tenant_bytes_;
  std::unordered_map<int, int64_t> tenant_quota_;
  Stats stats_;
};

}  // namespace ratel

#endif  // RATEL_MEM_TIER_CACHE_H_
