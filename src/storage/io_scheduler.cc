#include "storage/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "storage/fault_injector.h"

namespace ratel {

namespace {

// Deterministic jitter factor in [0.75, 1.0): decorrelates concurrent
// retry storms without making the schedule seed-dependent at runtime.
double JitterFactor(uint64_t seed, int failed_attempts) {
  uint64_t h = seed + 0x9E3779B97F4A7C15ULL *
                          static_cast<uint64_t>(failed_attempts + 1);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  const double unit = static_cast<double>(h >> 11) / 9007199254740992.0;
  return 0.75 + 0.25 * unit;
}

}  // namespace

double RetryBackoffSeconds(const RetryPolicy& policy, int failed_attempts) {
  RATEL_CHECK(failed_attempts >= 1);
  double backoff = policy.base_backoff_s;
  for (int k = 1; k < failed_attempts; ++k) {
    backoff *= policy.backoff_multiplier;
  }
  backoff = std::min(backoff, policy.max_backoff_s);
  backoff *= JitterFactor(policy.jitter_seed, failed_attempts);
  return std::max(backoff, 0.0);
}

std::vector<double> BackoffSchedule(const RetryPolicy& policy) {
  std::vector<double> schedule;
  double total = 0.0;
  for (int failed = 1; failed < policy.max_attempts; ++failed) {
    const double backoff = RetryBackoffSeconds(policy, failed);
    if (total + backoff > policy.backoff_deadline_s) break;
    total += backoff;
    schedule.push_back(backoff);
  }
  return schedule;
}

bool IsRetryableIoError(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

IoScheduler::IoScheduler(BlockStore* store, int workers)
    : IoScheduler(store, workers, Tuning()) {}

IoScheduler::IoScheduler(BlockStore* store, int workers, const Tuning& tuning)
    : store_(store),
      tuning_(tuning),
      critical_(tuning.fair_quantum_bytes, tuning.fair_share),
      normal_(tuning.fair_quantum_bytes, tuning.fair_share),
      background_(tuning.fair_quantum_bytes, tuning.fair_share) {
  RATEL_CHECK(store != nullptr);
  RATEL_CHECK(workers > 0);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoScheduler::~IoScheduler() {
  (void)Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

IoScheduler::Ticket IoScheduler::Enqueue(Request req) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RATEL_CHECK(!shutdown_);
    ticket = next_ticket_++;
    req.ticket = ticket;
    outstanding_.insert(ticket);
    const int tenant = req.tenant_tag;
    const int64_t size = req.size;
    switch (req.priority) {
      case Priority::kLatencyCritical:
        critical_.Push(tenant, size, std::move(req));
        break;
      case Priority::kNormal:
        req.higher_at_enqueue = served_critical_;
        normal_.Push(tenant, size, std::move(req));
        break;
      case Priority::kBackground:
        req.higher_at_enqueue = served_critical_ + served_normal_;
        background_.Push(tenant, size, std::move(req));
        break;
    }
  }
  work_ready_.notify_one();
  return ticket;
}

void IoScheduler::SetTenantWeight(int tenant, int weight) {
  std::lock_guard<std::mutex> lock(mu_);
  critical_.SetWeight(tenant, weight);
  normal_.SetWeight(tenant, weight);
  background_.SetWeight(tenant, weight);
}

IoScheduler::Ticket IoScheduler::SubmitWrite(const std::string& key,
                                             Buffer payload,
                                             Priority priority,
                                             CompletionFn on_complete,
                                             int flow_tag, int tenant_tag) {
  Request req;
  req.is_write = true;
  req.key = key;
  req.size = payload.size();
  req.payload = std::move(payload);
  req.priority = priority;
  req.on_complete = std::move(on_complete);
  req.flow_tag = flow_tag;
  req.tenant_tag = tenant_tag;
  return Enqueue(std::move(req));
}

IoScheduler::Ticket IoScheduler::SubmitRead(const std::string& key,
                                            Buffer dst, Priority priority,
                                            CompletionFn on_complete,
                                            int flow_tag, int tenant_tag,
                                            FinalizeFn finalize) {
  Request req;
  req.is_write = false;
  req.key = key;
  req.size = dst.size();
  req.dst = std::move(dst);
  req.priority = priority;
  req.on_complete = std::move(on_complete);
  req.finalize = std::move(finalize);
  req.flow_tag = flow_tag;
  req.tenant_tag = tenant_tag;
  return Enqueue(std::move(req));
}

bool IoScheduler::Withdraw(Ticket ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto queued_write = [ticket](const Request& r) {
      return r.ticket == ticket && r.is_write;
    };
    Request req;
    if (!critical_.EraseIf(queued_write, &req) &&
        !normal_.EraseIf(queued_write, &req) &&
        !background_.EraseIf(queued_write, &req)) {
      return false;
    }
    // Drop the payload and the callback's captures before the ticket
    // resolves, in the order a worker keeps.
    req.payload.reset();
    req.on_complete = nullptr;
    done_.emplace(ticket, Status::Ok());
  }
  // Waiters on the ticket, and Drain, may now proceed.
  ticket_done_.notify_all();
  return true;
}

IoResult IoScheduler::Execute(Request& req) {
  // Scope fault decisions (and any injected latency) to the request's
  // flow class for the whole attempt loop, channel time included.
  FaultInjector::ScopedFlow flow_scope(req.flow_tag);
  const RetryPolicy& retry = tuning_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  IoResult result;
  for (int attempt = 1;; ++attempt) {
    Status status;
    bool finalize_failed = false;
    if (req.is_write) {
      if (tuning_.write_channel != nullptr) {
        tuning_.write_channel->Consume(req.size);
      }
      status = store_->Put(req.key, req.payload.data(), req.size);
    } else {
      if (tuning_.read_channel != nullptr) {
        tuning_.read_channel->Consume(req.size);
      }
      status = store_->Get(req.key, req.dst.mutable_data(), req.size);
      if (status.ok() && req.finalize) {
        // Post-read validation (codec frame CRC + decode). A failure —
        // typically kDataLoss — fails this attempt and is retried like
        // a torn write: the device is re-read before giving up.
        status = req.finalize();
        finalize_failed = !status.ok();
      }
    }
    result.status = status;
    result.attempts = attempt;
    if (status.ok() || (!IsRetryableIoError(status) && !finalize_failed)) {
      return result;
    }
    if (attempt >= max_attempts) {
      result.gave_up = true;
      return result;
    }
    const double backoff = RetryBackoffSeconds(retry, attempt);
    if (result.backoff_seconds + backoff > retry.backoff_deadline_s) {
      // Sleeping again would bust the per-request latency deadline:
      // better to surface the failure than to stall the pipeline.
      result.gave_up = true;
      return result;
    }
    result.backoff_seconds += backoff;
    if (backoff > 0.0) {
      if (tuning_.backoff_sleep_fn) {
        tuning_.backoff_sleep_fn(backoff);
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
}

void IoScheduler::WorkerLoop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] {
        return shutdown_ || !critical_.empty() || !normal_.empty() ||
               !background_.empty();
      });
      if (critical_.empty() && normal_.empty() && background_.empty()) {
        if (shutdown_) return;
        continue;
      }
      // Priority with aging: critical > normal > background, but a
      // queued request that waited through `background_aging_limit`
      // higher-class completions is served next regardless of class
      // (the age of a class is its oldest request's, across every
      // tenant lane). The most-starved class is checked first. The
      // normal pick inside the chosen class is DWRR among tenants;
      // the aging pick serves the aged (oldest) request itself.
      const int aging = tuning_.background_aging_limit;
      if (aging > 0 && !background_.empty() &&
          served_critical_ + served_normal_ -
                  background_.OldestFront().higher_at_enqueue >=
              aging) {
        if (!critical_.empty() || !normal_.empty()) ++promoted_background_;
        req = background_.PopOldest();
      } else if (aging > 0 && !normal_.empty() &&
                 served_critical_ - normal_.OldestFront().higher_at_enqueue >=
                     aging) {
        if (!critical_.empty()) ++promoted_normal_;
        req = normal_.PopOldest();
      } else if (!critical_.empty()) {
        req = critical_.PopNext();
      } else if (!normal_.empty()) {
        req = normal_.PopNext();
      } else {
        req = background_.PopNext();
      }
      ++in_flight_;
      BusyClock& busy = req.is_write ? write_busy_ : read_busy_;
      if (busy.in_service++ == 0) busy.since = std::chrono::steady_clock::now();
    }

    const IoResult result = Execute(req);
    if (req.on_complete) req.on_complete(result);
    // Drop every buffer reference this request pins — the payload, the
    // zero-copy read target, and any Buffer captured inside the
    // completion closure — *before* the ticket resolves. A waiter may
    // Lease the moment Wait() returns and must find these blocks back
    // in the pool (the allocation-free steady-state contract), not
    // still held by this worker.
    req.payload.reset();
    req.dst.reset();
    req.on_complete = nullptr;
    req.finalize = nullptr;

    {
      std::lock_guard<std::mutex> lock(mu_);
      done_.emplace(req.ticket, result.status);
      if (!result.status.ok() && first_error_.ok()) {
        first_error_ = result.status;
      }
      switch (req.priority) {
        case Priority::kLatencyCritical:
          ++served_critical_;
          break;
        case Priority::kNormal:
          ++served_normal_;
          break;
        case Priority::kBackground:
          ++served_background_;
          break;
      }
      total_retries_ += result.attempts - 1;
      if (result.gave_up) ++total_giveups_;
      tenant_served_bytes_[req.tenant_tag] += req.size;
      BusyClock& busy = req.is_write ? write_busy_ : read_busy_;
      const auto now = std::chrono::steady_clock::now();
      busy.seconds += std::chrono::duration<double>(now - busy.since).count();
      busy.since = now;
      --busy.in_service;
      --in_flight_;
    }
    ticket_done_.notify_all();
  }
}

Status IoScheduler::Wait(Ticket ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  if (outstanding_.count(ticket) == 0) {
    return Status::InvalidArgument(
        "Wait on ticket " + std::to_string(ticket) +
        " which was never issued or was already waited on");
  }
  ticket_done_.wait(lock, [&] { return done_.count(ticket) > 0; });
  auto it = done_.find(ticket);
  Status status = it->second;
  done_.erase(it);
  outstanding_.erase(ticket);
  return status;
}

Status IoScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  ticket_done_.wait(lock, [this] {
    return critical_.empty() && normal_.empty() && background_.empty() &&
           in_flight_ == 0;
  });
  return first_error_;
}

int64_t IoScheduler::completed_latency_critical() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_critical_;
}

int64_t IoScheduler::completed_normal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_normal_;
}

int64_t IoScheduler::completed_background() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_background_;
}

int64_t IoScheduler::promoted_background() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promoted_background_;
}

int64_t IoScheduler::promoted_normal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promoted_normal_;
}

double IoScheduler::read_busy_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_busy_.seconds;
}

double IoScheduler::write_busy_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_busy_.seconds;
}

int64_t IoScheduler::total_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_retries_;
}

int64_t IoScheduler::total_giveups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_giveups_;
}

int64_t IoScheduler::tenant_served_bytes(int tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_served_bytes_.find(tenant);
  return it != tenant_served_bytes_.end() ? it->second : 0;
}

}  // namespace ratel
