#include "runtime/prefetcher.h"

#include <algorithm>

#include "common/logging.h"

namespace ratel {

Prefetcher::Prefetcher(TransferEngine* engine, FlowClass flow,
                       std::vector<Request> requests, int depth)
    : engine_(engine),
      flow_(flow),
      requests_(std::move(requests)),
      depth_(static_cast<size_t>(std::max(1, depth))) {
  RATEL_CHECK(engine != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  while (submitted_ < requests_.size() && pending_.size() < depth_) {
    SubmitNextLocked();
  }
}

Prefetcher::~Prefetcher() {
  // The in-flight reads target pending_'s buffers; resolve them before
  // the buffers die.
  std::lock_guard<std::mutex> lock(mu_);
  for (Pending& p : pending_) {
    if (p.ticket != Pending::kNoTicket) (void)engine_->Wait(p.ticket);
  }
}

void Prefetcher::SubmitNextLocked() {
  const Request& req = requests_[submitted_++];
  pending_.emplace_back();
  Pending& p = pending_.back();  // deque: address stable across growth
  p.item.key = req.key;
  if (req.gate) {
    // Per-request dependency gate (may block — e.g. draining a pending
    // deferred update of this tensor). Only the consumer thread drives
    // the engine-mode prefetcher, so holding mu_ here blocks nobody.
    const Status s = req.gate();
    if (!s.ok()) {
      p.item.status = s;  // delivered by Next(); no read submitted
      return;
    }
  }
  p.ticket = engine_->SubmitRead(flow_, req.key, &p.item.data, req.size);
}

Prefetcher::Item Prefetcher::Next() {
  TransferEngine::Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RATEL_CHECK(consumed_ < requests_.size()) << "Next() called past the end";
    RATEL_CHECK(!pending_.empty());
    ticket = pending_.front().ticket;
  }
  // Wait outside the lock; only Next() pops, so the front is stable.
  // A gated-out request has no ticket — its status is already set.
  Status status;
  if (ticket != Pending::kNoTicket) status = engine_->Wait(ticket);
  std::lock_guard<std::mutex> lock(mu_);
  Item item = std::move(pending_.front().item);
  if (ticket != Pending::kNoTicket) item.status = status;
  pending_.pop_front();
  ++consumed_;
  if (submitted_ < requests_.size()) SubmitNextLocked();
  return item;
}

int64_t Prefetcher::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(requests_.size() - consumed_);
}

}  // namespace ratel
