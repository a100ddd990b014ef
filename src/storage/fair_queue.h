#ifndef RATEL_STORAGE_FAIR_QUEUE_H_
#define RATEL_STORAGE_FAIR_QUEUE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace ratel {

/// Deficit-weighted round robin over per-tenant FIFO lanes — the
/// tenancy layer *inside* one IoScheduler priority class. The three
/// priority classes (critical / normal / background) stay strictly
/// layered above this: fair share only decides which tenant's request
/// is served next *within* a class, so single-job scheduling is
/// untouched and one tenant's kDeferredState backlog can no longer
/// starve another tenant's param_fetch queued in the same class.
///
/// Discipline (classic DWRR, byte-denominated): each tenant lane holds
/// a deficit counter. The scan visits active (non-empty) lanes in a
/// fixed rotation; a visit either serves the lane's head request (if
/// the deficit covers its bytes, decrementing the deficit) or tops the
/// deficit up by `quantum * weight` and moves on. Served bytes per
/// tenant therefore converge to the weight ratio whenever lanes stay
/// backlogged, while an idle lane's share flows to the others
/// (work-conserving: Pop always returns a request when any lane is
/// non-empty).
///
/// Degenerate cases, by construction:
///  - one tenant (or `fair_share = false`): pure FIFO — bitwise the
///    pre-tenancy queue behavior;
///  - FIFO within each (class, tenant) lane always holds.
///
/// Not thread-safe: the caller (IoScheduler) holds its own mutex.
template <typename T>
class FairQueue {
 public:
  explicit FairQueue(int64_t quantum_bytes = 64 * 1024,
                     bool fair_share = true)
      : quantum_(quantum_bytes > 0 ? quantum_bytes : 1),
        fair_(fair_share) {}

  /// Relative DWRR weight of `tenant` (clamped to >= 1). May be set
  /// before or after the tenant's first Push.
  void SetWeight(int tenant, int weight) {
    lanes_[tenant].weight = weight > 0 ? weight : 1;
  }

  void Push(int tenant, int64_t size, T item) {
    Lane& lane = lanes_[tenant];
    if (lane.q.empty()) {
      rotation_.push_back(tenant);  // joins at the end of the rotation
    }
    lane.q.push_back(Entry{std::move(item), size, next_seq_++});
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  int64_t size() const { return size_; }

  /// The item that entered the queue first across all lanes — the
  /// class's oldest request, which is what the scheduler's
  /// anti-starvation aging inspects (and serves, via PopOldest).
  const T& OldestFront() const { return OldestLane()->q.front().item; }

  /// Pops the oldest item (aging promotion path). Its bytes are still
  /// charged to the tenant's deficit so an aged-out burst does not earn
  /// extra fair share afterwards.
  T PopOldest() { return PopFrom(*OldestLane()); }

  /// Pops the next item under the fair-share discipline.
  T PopNext() {
    RATEL_CHECK(size_ > 0);
    if (!fair_ || rotation_.size() == 1) {
      // FIFO fast path: exactly the pre-tenancy queue. With one lane
      // DWRR would serve the same order; skipping it keeps deficits at
      // zero so a later second tenant starts from a clean slate.
      return PopFrom(*OldestLane());
    }
    for (;;) {
      Lane& lane = lanes_[rotation_[cursor_]];
      if (lane.deficit >= lane.q.front().size) {
        return PopFrom(lane);
      }
      lane.deficit += quantum_ * lane.weight;
      cursor_ = (cursor_ + 1) % rotation_.size();
    }
  }

  /// Removes the first queued item (in rotation order, FIFO within a
  /// lane) that satisfies `pred`, moving it to `*out`. The item was never
  /// served: its bytes are neither charged to the lane's deficit nor
  /// counted as served. A lane the erase empties leaves the rotation
  /// exactly as a pop would. Returns false when nothing matches.
  template <typename Pred>
  bool EraseIf(Pred&& pred, T* out) {
    for (int tenant : rotation_) {
      Lane& lane = lanes_.at(tenant);
      for (auto it = lane.q.begin(); it != lane.q.end(); ++it) {
        if (!pred(it->item)) continue;
        *out = std::move(it->item);
        lane.q.erase(it);
        --size_;
        if (lane.q.empty()) Retire(lane);
        return true;
      }
    }
    return false;
  }

  /// Cumulative bytes served (popped) per tenant, for share assertions.
  int64_t served_bytes(int tenant) const {
    auto it = lanes_.find(tenant);
    return it != lanes_.end() ? it->second.served_bytes : 0;
  }

 private:
  struct Entry {
    T item;
    int64_t size;
    int64_t seq;
  };
  struct Lane {
    std::deque<Entry> q;
    int64_t deficit = 0;
    int weight = 1;
    int64_t served_bytes = 0;
  };

  Lane* OldestLane() const {
    RATEL_CHECK(size_ > 0);
    Lane* oldest = nullptr;
    for (int tenant : rotation_) {
      Lane& lane = const_cast<Lane&>(lanes_.at(tenant));
      if (oldest == nullptr || lane.q.front().seq < oldest->q.front().seq) {
        oldest = &lane;
      }
    }
    return oldest;
  }

  T PopFrom(Lane& lane) {
    Entry entry = std::move(lane.q.front());
    lane.q.pop_front();
    lane.deficit -= entry.size;
    lane.served_bytes += entry.size;
    --size_;
    if (lane.q.empty()) Retire(lane);
    return std::move(entry.item);
  }

  /// Takes an emptied lane out of the rotation, keeping the cursor on
  /// the lane it pointed at (or the next one). The deficit resets so a
  /// lane cannot bank credit (or debt) across idle periods.
  void Retire(Lane& lane) {
    lane.deficit = 0;
    for (size_t i = 0; i < rotation_.size(); ++i) {
      if (&lanes_.at(rotation_[i]) == &lane) {
        rotation_.erase(rotation_.begin() + i);
        if (cursor_ > i) --cursor_;
        break;
      }
    }
    if (!rotation_.empty()) cursor_ %= rotation_.size();
  }

  int64_t quantum_;
  bool fair_;
  int64_t next_seq_ = 0;
  int64_t size_ = 0;
  size_t cursor_ = 0;  // index into rotation_
  std::vector<int> rotation_;  // active (non-empty) lanes, visit order
  mutable std::unordered_map<int, Lane> lanes_;
};

}  // namespace ratel

#endif  // RATEL_STORAGE_FAIR_QUEUE_H_
