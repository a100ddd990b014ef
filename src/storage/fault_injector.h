#ifndef RATEL_STORAGE_FAULT_INJECTOR_H_
#define RATEL_STORAGE_FAULT_INJECTOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"

namespace ratel {

/// The failure model of the emulated SSD array. Every fault kind the
/// data-movement path must survive in a real deployment has a
/// deterministic injected counterpart:
///
///  - transient read/write errors (a failed NVMe command — retryable),
///  - latency spikes (device-internal GC pauses),
///  - torn writes (power cut mid-stripe: only a prefix persists),
///  - a dead stripe (one device of the array wears out and goes
///    read-only — its writes fail permanently and the store must
///    re-stripe around it).
enum class FaultKind {
  kReadError = 0,
  kWriteError,
  kLatencySpike,
  kTornWrite,
  kDeadStripe,
};

inline constexpr int kNumFaultKinds = 5;

/// Stable lowercase name, e.g. "torn_write".
const char* FaultKindName(FaultKind kind);

/// Deterministic fault schedule. Period-based: with `X_every = k`, the
/// n-th operation of a key faults iff (n + phase) % k == 0, where
/// `phase` is derived from (seed, key) — so a fixed seed yields a fixed,
/// thread-interleaving-independent fault pattern (per-key operation
/// order is serialized by the runtime), and a faulted attempt's retry
/// (the n+1-th attempt) deterministically passes for k >= 2. All zeros /
/// -1 disables every fault.
struct FaultConfig {
  uint64_t seed = 0;
  /// Every k-th read of a key fails with kUnavailable (0 = never).
  int read_error_every = 0;
  /// Every k-th write of a key fails with kUnavailable (0 = never).
  int write_error_every = 0;
  /// Every k-th operation of a key stalls for latency_spike_s first.
  int latency_spike_every = 0;
  double latency_spike_s = 0.0;
  /// Every k-th write of a key persists only the first half of its
  /// bytes, then fails (a torn write; the retry rewrites in full).
  int torn_write_every = 0;
  /// Stripe index whose writes always fail (wear-out: the device goes
  /// read-only); -1 disables. The store declares the stripe dead after
  /// `stripe_death_threshold` consecutive failures and re-stripes
  /// around it.
  int dead_stripe = -1;
  /// Scopes faults to flow classes: bit i gates FlowClass i (see
  /// src/xfer). Operations issued outside any flow scope (direct store
  /// use) are faulted regardless of the mask. Default: all flows.
  uint32_t flow_mask = 0xFFFFFFFFu;
  /// Scopes blob-level faults (read/write errors, spikes, torn writes)
  /// to keys starting with this prefix; empty = all keys. With
  /// per-tenant key namespacing ("jobN/..."), this confines a fault
  /// storm to one tenant. Device-level faults (dead_stripe) stay
  /// unscoped — a worn-out device does not care whose stripe it holds.
  std::string key_prefix;

  bool enabled() const {
    return read_error_every > 0 || write_error_every > 0 ||
           latency_spike_every > 0 || torn_write_every > 0 ||
           dead_stripe >= 0;
  }
};

/// The single injection seam of the I/O stack: BlockStore consults it
/// per blob operation and per stripe write, ThrottledChannel per
/// transfer, and the IoScheduler's workers bracket each store operation
/// in a ScopedFlow so decisions can be scoped per flow class.
///
/// Deterministic by construction (see FaultConfig) and thread-safe: all
/// mutable decision state is mutex-protected, so the injector is
/// TSan-clean under the engine's concurrent workers.
///
/// Beyond the config-driven schedule, the injector doubles as the
/// *injected-latency test seam*: tests can redirect fault sleeps into a
/// virtual clock (SetSleepFn) or deterministically park a worker inside
/// a chosen operation (StallOpsOn / ReleaseStalled) — replacing
/// wall-clock sleeps and ad-hoc callback gates in timing-sensitive
/// scheduler tests.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Store seam, blob level. Called before serving a read attempt of
  /// `key`; applies stalls and latency spikes, then returns non-OK
  /// (kUnavailable) to inject a transient read error.
  Status OnBlobRead(const std::string& key);

  /// Store seam, blob level, write side. On a torn-write decision sets
  /// `*torn_prefix_bytes` to the number of bytes the store must persist
  /// before failing (otherwise leaves it at -1) and returns the
  /// operation's injected status.
  Status OnBlobWrite(const std::string& key, int64_t size,
                     int64_t* torn_prefix_bytes);

  /// Store seam, stripe level: true if a write touching `stripe` must
  /// fail (the dead-stripe fault). Honors the flow scope for the
  /// config-driven schedule; stripes killed at runtime (KillStripe)
  /// fail unconditionally.
  bool FailsStripeWrite(int stripe);

  /// Arms wear-out of `stripe` *now*: every subsequent write touching
  /// it fails until the store declares it dead and re-stripes around
  /// it. Unlike FaultConfig::dead_stripe (armed from run start), this
  /// expresses "a device dies mid-run" — the trigger the online
  /// re-planner bench uses. Ignores the flow mask: a worn-out device
  /// does not care whose stripe it holds.
  void KillStripe(int stripe);

  /// Channel seam: applies latency spikes to a throttled-channel
  /// transfer (spikes are scheduled per channel name).
  void OnChannelTransfer(const std::string& channel, int64_t bytes);

  /// Scopes fault decisions on the current thread to FlowClass value
  /// `flow` (as int); -1 clears the scope. The engine's I/O workers
  /// bracket each store operation with the request's flow.
  class ScopedFlow {
   public:
    explicit ScopedFlow(int flow);
    ~ScopedFlow();
    ScopedFlow(const ScopedFlow&) = delete;
    ScopedFlow& operator=(const ScopedFlow&) = delete;

   private:
    int previous_;
  };

  // ----- Injected-clock / stall hooks (test seams) -----

  /// Replaces the real sleep used for latency spikes (tests install a
  /// virtual-clock recorder so spike behaviour is assertable without
  /// wall-clock waits).
  void SetSleepFn(std::function<void(double seconds)> sleep_fn);

  /// Ops on `key` park inside the injector until ReleaseStalled() —
  /// a deterministic way to hold an I/O worker busy (no sleeps, no
  /// completion-callback gating).
  void StallOpsOn(const std::string& key);
  /// Blocks until at least `n` operations are parked.
  void WaitForStalled(int n);
  /// Unparks every stalled op and stops stalling new ones.
  void ReleaseStalled();

  /// Cumulative injected-fault counters (for tests/diagnostics).
  struct Counts {
    int64_t read_errors = 0;
    int64_t write_errors = 0;
    int64_t latency_spikes = 0;
    int64_t torn_writes = 0;
    int64_t stripe_write_failures = 0;
    int64_t stalls = 0;
    int64_t Total() const {
      return read_errors + write_errors + latency_spikes + torn_writes +
             stripe_write_failures;
    }
  };
  Counts counts() const;

  const FaultConfig& config() const { return config_; }

 private:
  /// True when the current thread's flow scope is gated in by
  /// config_.flow_mask (unscoped threads are always in).
  bool FlowEnabled() const;

  /// True when blob faults apply to `key` (config_.key_prefix scope).
  bool KeyEnabled(const std::string& key) const;

  /// Deterministic per-(kind,key) phase in [0, every).
  int Phase(FaultKind kind, const std::string& key, int every) const;

  /// Advances the (kind,key) sequence counter and evaluates the
  /// period-`every` schedule. Caller holds mu_.
  bool TickLocked(FaultKind kind, const std::string& key, int every);

  /// Applies stall + latency spike for one op of `key`; shared by the
  /// read and write seams. Takes and may drop mu_.
  void StallAndSpikeLocked(std::unique_lock<std::mutex>& lock,
                           const std::string& key);

  const FaultConfig config_;
  mutable std::mutex mu_;
  std::condition_variable stall_cv_;
  std::function<void(double)> sleep_fn_;  // never null
  // Per-(kind,key) attempt counters driving the periodic schedules.
  std::unordered_map<std::string, int64_t> seq_[kNumFaultKinds];
  std::unordered_set<std::string> stall_keys_;
  std::unordered_set<int> killed_stripes_;  // runtime wear-out (KillStripe)
  int stalled_now_ = 0;
  bool stall_released_ = false;
  Counts counts_;
};

}  // namespace ratel

#endif  // RATEL_STORAGE_FAULT_INJECTOR_H_
