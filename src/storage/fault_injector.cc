#include "storage/fault_injector.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace ratel {

namespace {

// Flow scope of the current thread (-1 = unscoped). Set by the I/O
// workers around each store operation via FaultInjector::ScopedFlow.
thread_local int tls_flow_scope = -1;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  // splitmix64 finalizer: avalanche so nearby seeds decorrelate.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

uint64_t HashKey(uint64_t seed, int kind, const std::string& key) {
  uint64_t h = HashCombine(seed, static_cast<uint64_t>(kind) + 1);
  for (char c : key) h = HashCombine(h, static_cast<uint8_t>(c));
  return h;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kReadError:
      return "read_error";
    case FaultKind::kWriteError:
      return "write_error";
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kDeadStripe:
      return "dead_stripe";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), sleep_fn_([](double seconds) {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      }) {}

bool FaultInjector::FlowEnabled() const {
  const int flow = tls_flow_scope;
  if (flow < 0 || flow >= 32) return true;  // unscoped direct store use
  return ((config_.flow_mask >> flow) & 1u) != 0;
}

bool FaultInjector::KeyEnabled(const std::string& key) const {
  return config_.key_prefix.empty() ||
         key.compare(0, config_.key_prefix.size(), config_.key_prefix) == 0;
}

int FaultInjector::Phase(FaultKind kind, const std::string& key,
                         int every) const {
  return static_cast<int>(HashKey(config_.seed, static_cast<int>(kind), key) %
                          static_cast<uint64_t>(every));
}

bool FaultInjector::TickLocked(FaultKind kind, const std::string& key,
                               int every) {
  if (every <= 0) return false;
  const int64_t n = ++seq_[static_cast<int>(kind)][key];
  return (n + Phase(kind, key, every)) % every == 0;
}

void FaultInjector::StallAndSpikeLocked(std::unique_lock<std::mutex>& lock,
                                        const std::string& key) {
  if (!stall_released_ && stall_keys_.count(key) > 0) {
    ++counts_.stalls;
    ++stalled_now_;
    stall_cv_.notify_all();
    stall_cv_.wait(lock, [this] { return stall_released_; });
    --stalled_now_;
    stall_cv_.notify_all();
  }
  if (config_.latency_spike_every > 0 &&
      TickLocked(FaultKind::kLatencySpike, key,
                 config_.latency_spike_every)) {
    ++counts_.latency_spikes;
    const auto sleep_fn = sleep_fn_;
    const double seconds = config_.latency_spike_s;
    lock.unlock();
    if (seconds > 0.0) sleep_fn(seconds);
    lock.lock();
  }
}

Status FaultInjector::OnBlobRead(const std::string& key) {
  if (!FlowEnabled() || !KeyEnabled(key)) return Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  StallAndSpikeLocked(lock, key);
  if (TickLocked(FaultKind::kReadError, key, config_.read_error_every)) {
    ++counts_.read_errors;
    return Status::Unavailable("injected transient read error on '" + key +
                               "'");
  }
  return Status::Ok();
}

Status FaultInjector::OnBlobWrite(const std::string& key, int64_t size,
                                  int64_t* torn_prefix_bytes) {
  *torn_prefix_bytes = -1;
  if (!FlowEnabled() || !KeyEnabled(key)) return Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  StallAndSpikeLocked(lock, key);
  if (TickLocked(FaultKind::kWriteError, key, config_.write_error_every)) {
    ++counts_.write_errors;
    return Status::Unavailable("injected transient write error on '" + key +
                               "'");
  }
  if (TickLocked(FaultKind::kTornWrite, key, config_.torn_write_every)) {
    ++counts_.torn_writes;
    *torn_prefix_bytes = size / 2;
    return Status::Unavailable("injected torn write on '" + key + "' (" +
                               std::to_string(*torn_prefix_bytes) + " of " +
                               std::to_string(size) + " bytes persisted)");
  }
  return Status::Ok();
}

bool FaultInjector::FailsStripeWrite(int stripe) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (killed_stripes_.count(stripe) > 0) {
      // Runtime wear-out: a killed device fails every write regardless
      // of which flow happens to touch it.
      ++counts_.stripe_write_failures;
      return true;
    }
  }
  if (config_.dead_stripe < 0 || stripe != config_.dead_stripe) return false;
  if (!FlowEnabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.stripe_write_failures;
  return true;
}

void FaultInjector::KillStripe(int stripe) {
  std::lock_guard<std::mutex> lock(mu_);
  killed_stripes_.insert(stripe);
}

void FaultInjector::OnChannelTransfer(const std::string& channel,
                                      int64_t bytes) {
  (void)bytes;
  if (!FlowEnabled()) return;
  std::unique_lock<std::mutex> lock(mu_);
  StallAndSpikeLocked(lock, "channel/" + channel);
}

FaultInjector::ScopedFlow::ScopedFlow(int flow) : previous_(tls_flow_scope) {
  tls_flow_scope = flow;
}

FaultInjector::ScopedFlow::~ScopedFlow() { tls_flow_scope = previous_; }

void FaultInjector::SetSleepFn(std::function<void(double)> sleep_fn) {
  std::lock_guard<std::mutex> lock(mu_);
  RATEL_CHECK(sleep_fn != nullptr);
  sleep_fn_ = std::move(sleep_fn);
}

void FaultInjector::StallOpsOn(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_released_ = false;
  stall_keys_.insert(key);
}

void FaultInjector::WaitForStalled(int n) {
  std::unique_lock<std::mutex> lock(mu_);
  stall_cv_.wait(lock, [this, n] { return stalled_now_ >= n; });
}

void FaultInjector::ReleaseStalled() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stall_released_ = true;
    stall_keys_.clear();
  }
  stall_cv_.notify_all();
}

FaultInjector::Counts FaultInjector::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace ratel
