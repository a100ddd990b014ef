#include "mem/tier_cache.h"

#include <utility>

#include "common/logging.h"

namespace ratel {

TierCache::TierCache(int64_t capacity_bytes) : capacity_(capacity_bytes) {
  RATEL_CHECK(capacity_bytes >= 0);
}

void TierCache::RemoveEntryLocked(
    std::unordered_map<std::string, CacheEntry>::iterator it) {
  const int64_t size = static_cast<int64_t>(it->second.data.size());
  stats_.bytes_cached -= size;
  if (it->second.pins > 0) stats_.pinned_bytes -= size;
  tenant_bytes_[it->second.tenant] -= size;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void TierCache::EvictToFitLocked(int64_t incoming) {
  // Walk LRU-first, skipping pinned entries — they are immovable until
  // unpinned, so the loop may legitimately end while still over
  // capacity (a transient, pin-bounded overshoot).
  auto victim = lru_.end();
  while (stats_.bytes_cached + incoming > capacity_ &&
         victim != lru_.begin()) {
    --victim;
    auto it = entries_.find(*victim);
    RATEL_CHECK(it != entries_.end());
    if (it->second.pins > 0) continue;
    ++stats_.evictions;
    // RemoveEntryLocked erases *victim from lru_; restart from the tail
    // position just past the erased node.
    auto next = victim;
    ++next;
    RemoveEntryLocked(it);
    victim = next;
  }
}

void TierCache::EvictTenantToQuotaLocked(int tenant,
                                         const std::string& exempt) {
  auto quota_it = tenant_quota_.find(tenant);
  if (quota_it == tenant_quota_.end() || quota_it->second <= 0) return;
  const int64_t quota = quota_it->second;
  auto victim = lru_.end();
  while (tenant_bytes_[tenant] > quota && victim != lru_.begin()) {
    --victim;
    auto it = entries_.find(*victim);
    RATEL_CHECK(it != entries_.end());
    if (it->second.tenant != tenant || it->second.pins > 0 ||
        it->first == exempt) {
      continue;
    }
    ++stats_.evictions;
    auto next = victim;
    ++next;
    RemoveEntryLocked(it);
    victim = next;
  }
}

void TierCache::InsertLocked(const std::string& key, Buffer data,
                             int tenant) {
  const int64_t size = data.size();
  int pins = 0;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // An overwrite carries the pin count over: the fresher value serves
    // pinned readers just as well (writers of a key are serialized by
    // the engine's per-tensor discipline).
    pins = it->second.pins;
    RemoveEntryLocked(it);
  }
  if (size > capacity_) return;  // cannot fit at all; store-only
  EvictToFitLocked(size);
  lru_.push_front(key);
  CacheEntry entry;
  entry.data = std::move(data);
  entry.pins = pins;
  entry.tenant = tenant;
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
  stats_.bytes_cached += size;
  tenant_bytes_[tenant] += size;
  if (pins > 0) stats_.pinned_bytes += size;
  EvictTenantToQuotaLocked(tenant, key);
}

void TierCache::AdmitBuffer(const std::string& key, Buffer data, int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(data), tenant);
}

bool TierCache::TryGetRef(const std::string& key, int64_t size, Buffer* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.data.size() != size) {
    ++stats_.misses;
    stats_.miss_bytes += size;
    return false;
  }
  *out = it->second.data;  // new reference, no copy
  lru_.erase(it->second.lru_it);
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
  ++stats_.hits;
  stats_.hit_bytes += size;
  return true;
}

void TierCache::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  RemoveEntryLocked(it);
}

bool TierCache::Pin(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (it->second.pins == 0) {
    stats_.pinned_bytes += static_cast<int64_t>(it->second.data.size());
  }
  ++it->second.pins;
  return true;
}

void TierCache::Unpin(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // invalidated while pinned
  RATEL_CHECK(it->second.pins > 0);
  if (--it->second.pins == 0) {
    stats_.pinned_bytes -= static_cast<int64_t>(it->second.data.size());
  }
}

void TierCache::SetTenantQuota(int tenant, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant_quota_[tenant] = bytes;
  EvictTenantToQuotaLocked(tenant, std::string());
}

int64_t TierCache::TenantBytes(int tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_bytes_.find(tenant);
  return it != tenant_bytes_.end() ? it->second : 0;
}

TierCache::Stats TierCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ratel
