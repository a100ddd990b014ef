#ifndef RATEL_STORAGE_IO_SCHEDULER_H_
#define RATEL_STORAGE_IO_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "storage/block_store.h"
#include "storage/fair_queue.h"
#include "storage/throttled_channel.h"

namespace ratel {

/// Bounded exponential-backoff retry for transient device errors
/// (kIoError, kUnavailable). A request is retried up to `max_attempts`
/// total attempts, sleeping base * multiplier^(k-1) (clamped to
/// `max_backoff_s`, scaled by a deterministic jitter factor in
/// [0.75, 1.0)) after its k-th failure — and gives up early once the
/// *cumulative* backoff would exceed `backoff_deadline_s`, so a request
/// can never stall the pipeline longer than the deadline.
struct RetryPolicy {
  int max_attempts = 3;
  double base_backoff_s = 1e-3;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 50e-3;
  double backoff_deadline_s = 250e-3;
  /// Seeds the jitter factor; fixed seed => fixed schedule.
  uint64_t jitter_seed = 0;
};

/// Backoff slept after the `failed_attempts`-th consecutive failure
/// (1-based). Pure and deterministic in (policy, failed_attempts).
double RetryBackoffSeconds(const RetryPolicy& policy, int failed_attempts);

/// The full sleep schedule a request can traverse: one entry per retry
/// (max_attempts - 1 at most), truncated where the cumulative sum would
/// cross backoff_deadline_s. Exactly the schedule the scheduler's
/// workers follow; exposed for property tests.
std::vector<double> BackoffSchedule(const RetryPolicy& policy);

/// True for status codes worth retrying (transient device failures).
bool IsRetryableIoError(const Status& status);

/// Outcome of one scheduled request, delivered to completion callbacks
/// and used for per-flow retry accounting.
struct IoResult {
  Status status;
  /// Store attempts performed (1 = first try succeeded).
  int attempts = 1;
  /// Total injected backoff sleep, seconds.
  double backoff_seconds = 0.0;
  /// True when the request exhausted its retry budget (attempts or
  /// deadline) and still failed.
  bool gave_up = false;
};

/// Three-class asynchronous I/O scheduler over the block store: the SSD
/// array serves *latency-critical* requests (parameter/activation
/// prefetch the GPU is about to stall on) first, then *normal* ones
/// (foreground-waited state streaming the optimizer blocks on every
/// step), then *background* ones (deferred writebacks that only have to
/// finish before the same tensor's next update). This is the queueing
/// discipline Ratel's holistic traffic management implies: swap-in
/// traffic must not sit behind a burst of state writebacks — and a
/// foreground state read must not sit FIFO behind the accumulated
/// deferred-write backlog either.
///
/// Strict priority alone starves the lower classes under sustained
/// higher-class load, so requests age: once `background_aging_limit`
/// higher-class requests have completed while a queued request waited,
/// it is served next regardless of class (background ages past critical
/// + normal completions; normal ages past critical completions). FIFO
/// order holds within each class.
///
/// Transient store failures are absorbed here: each request runs under
/// the RetryPolicy (see above) before its failure is surfaced, and the
/// per-request outcome (attempts, backoff, gave_up) is reported through
/// the completion callback so the transfer engine can keep per-flow
/// retry/giveup counters.
///
/// Multi-tenant engines add one dimension *under* the class ladder:
/// each class is a FairQueue of per-tenant lanes served by
/// deficit-weighted round robin (see fair_queue.h), so a neighbor
/// job's backlog in the same class cannot monopolize the device. The
/// class ladder and its aging rules are unchanged — fair share only
/// picks which tenant goes next within the class the ladder already
/// chose, and with a single tenant (or fair_share off) every class
/// degenerates to the original FIFO.
///
/// Requests complete asynchronously; the caller either waits for an
/// individual ticket or drains the whole queue. An optional completion
/// callback runs on the worker thread after the store operation and
/// before the ticket resolves (used by the transfer engine for cache
/// promotion and per-flow accounting).
class IoScheduler {
 public:
  enum class Priority {
    kLatencyCritical,  // served first, FIFO within class
    kNormal,           // foreground-waited; yields only to critical
    kBackground,       // deferred; yields to both higher classes
  };

  using Ticket = int64_t;
  using CompletionFn = std::function<void(const IoResult&)>;
  /// Post-read validation/transform hook (see SubmitRead below). Runs on
  /// the worker after each successful store read of the attempt loop; a
  /// non-OK return fails that *attempt*, and the attempt is retried per
  /// RetryPolicy regardless of its status code — a decode/CRC failure
  /// (kDataLoss) is retried like a torn write, since re-reading the
  /// device is exactly the recovery a torn read wants. Only after the
  /// retry budget is exhausted does the finalize status surface.
  using FinalizeFn = std::function<Status()>;

  /// Device-level knobs shared by every request.
  struct Tuning {
    /// A queued request is promoted past the higher-priority queues
    /// after this many higher-class completions occurred while it
    /// waited; <= 0 restores strict (starvation-prone) priority.
    int background_aging_limit = 64;
    /// Optional wall-clock bandwidth throttles applied by the workers
    /// around each store operation (emulated device rates); not owned,
    /// may be null for full speed.
    ThrottledChannel* read_channel = nullptr;
    ThrottledChannel* write_channel = nullptr;
    /// Retry discipline for transient store failures.
    RetryPolicy retry;
    /// Test seam: replaces the wall-clock backoff sleep (e.g. with a
    /// virtual-clock recorder). Null = real sleep.
    std::function<void(double seconds)> backoff_sleep_fn;
    /// Deficit-weighted round robin among tenants inside each class;
    /// false = one global FIFO per class regardless of tenant tags
    /// (the FIFO-tenancy baseline the multitenant bench A/Bs against).
    bool fair_share = true;
    /// DWRR quantum: bytes of credit a tenant lane earns (times its
    /// weight) per rotation visit. Smaller = finer interleaving.
    int64_t fair_quantum_bytes = 64 * 1024;
  };

  /// `workers` I/O threads over `store` (not owned, must outlive this).
  explicit IoScheduler(BlockStore* store, int workers = 2);
  IoScheduler(BlockStore* store, int workers, const Tuning& tuning);

  /// Drains outstanding work, then stops the workers.
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Zero-copy asynchronous write: the scheduler takes a reference to
  /// `payload` (published — no holder may mutate it); the ticket resolves
  /// when the store confirms the write. `flow_tag` scopes fault injection
  /// and accounting to a flow class (-1 = unscoped); `tenant_tag` selects
  /// the fair-share lane within the priority class (0 = default tenant).
  Ticket SubmitWrite(const std::string& key, Buffer payload,
                     Priority priority, CompletionFn on_complete = nullptr,
                     int flow_tag = -1, int tenant_tag = 0);

  /// Zero-copy asynchronous read: the worker fills `dst` (whose size is
  /// the read size) in place. The caller may keep references to `dst`
  /// but must not touch its bytes until the ticket resolves.
  ///
  /// `finalize` (optional) runs on the worker after every successful
  /// store read, inside the retry loop — the transfer engine's codec
  /// path verifies the frame CRC and decodes there, so a corrupt frame
  /// is re-read per RetryPolicy before kDataLoss surfaces (see
  /// FinalizeFn).
  Ticket SubmitRead(const std::string& key, Buffer dst, Priority priority,
                    CompletionFn on_complete = nullptr, int flow_tag = -1,
                    int tenant_tag = 0, FinalizeFn finalize = nullptr);

  /// DWRR weight of `tenant` in every priority class (clamped >= 1;
  /// default 1). Takes effect for requests not yet served.
  void SetTenantWeight(int tenant, int weight);

  /// Blocks until `ticket` finished; returns its I/O status. A ticket
  /// that was never issued — or was already waited on — yields
  /// kInvalidArgument instead of blocking forever.
  Status Wait(Ticket ticket);

  /// Blocks until every submitted request finished; returns the first
  /// error encountered (if any).
  Status Drain();

  /// Requests served so far, per class (for tests/diagnostics).
  int64_t completed_latency_critical() const;
  int64_t completed_normal() const;
  int64_t completed_background() const;
  /// Background requests served ahead of waiting higher-class work
  /// because they exceeded the aging limit.
  int64_t promoted_background() const;
  /// Normal requests served ahead of waiting latency-critical work
  /// because they exceeded the aging limit.
  int64_t promoted_normal() const;
  /// Extra store attempts performed beyond each request's first.
  int64_t total_retries() const;
  /// Requests that failed after exhausting their retry budget.
  int64_t total_giveups() const;
  /// Payload bytes served so far on behalf of `tenant`, across all
  /// classes (for fair-share convergence assertions).
  int64_t tenant_served_bytes(int tenant) const;
  /// Seconds the store spent with at least one read (write) in service,
  /// from a worker's dequeue to the request's completion, overlapping
  /// requests counted once. Queue wait is excluded, so bytes moved per
  /// busy second track the device's bandwidth at any queue depth.
  double read_busy_seconds() const;
  double write_busy_seconds() const;

 private:
  struct Request {
    Ticket ticket;
    bool is_write;
    std::string key;
    Buffer payload;                 // writes (ref, not a copy)
    Buffer dst;                     // reads, filled in place
    int64_t size;
    Priority priority;
    CompletionFn on_complete;
    FinalizeFn finalize;            // reads only; may fail the attempt
    int flow_tag = -1;
    int tenant_tag = 0;
    // Completions of strictly-higher classes at enqueue time (critical
    // for normal requests; critical + normal for background ones); age
    // = higher-class completions since then.
    int64_t higher_at_enqueue = 0;
  };

  /// Union of the in-service intervals of one side of the store,
  /// accrued at each completion.
  struct BusyClock {
    int in_service = 0;
    std::chrono::steady_clock::time_point since;
    double seconds = 0.0;
  };

  void WorkerLoop();
  /// One attempt-with-retries execution of `req` (runs on a worker, no
  /// lock held).
  IoResult Execute(Request& req);
  Ticket Enqueue(Request req);

  BlockStore* store_;
  Tuning tuning_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable ticket_done_;
  // Per-class queues: per-tenant DWRR lanes under the class ladder.
  FairQueue<Request> critical_;
  FairQueue<Request> normal_;
  FairQueue<Request> background_;
  Ticket next_ticket_ = 1;
  // Issued and not yet waited on — membership legitimizes a Wait.
  std::unordered_set<Ticket> outstanding_;
  std::unordered_map<Ticket, Status> done_;
  Status first_error_;
  int64_t served_critical_ = 0;
  int64_t served_normal_ = 0;
  int64_t served_background_ = 0;
  int64_t promoted_background_ = 0;
  int64_t promoted_normal_ = 0;
  int64_t total_retries_ = 0;
  int64_t total_giveups_ = 0;
  std::unordered_map<int, int64_t> tenant_served_bytes_;
  BusyClock read_busy_;
  BusyClock write_busy_;
  int in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ratel

#endif  // RATEL_STORAGE_IO_SCHEDULER_H_
