#ifndef RATEL_XFER_FLOW_WINDOW_H_
#define RATEL_XFER_FLOW_WINDOW_H_

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "xfer/flow.h"
#include "xfer/transfer_engine.h"

namespace ratel {

/// One closed observation window of a single flow class: the exact
/// counter delta between two cumulative TransferStats snapshots taken
/// at window boundaries. Because every window is a snapshot difference,
/// the ring reconciles against the cumulative counters *by
/// construction*: dropped-base + sum(ring) == latest - epoch, counter
/// for counter, no matter how many concurrent flows were mutating the
/// engine between the two snapshots.
struct FlowWindow {
  double start_seconds = 0.0;  // caller-supplied clock, window open
  double end_seconds = 0.0;    // window close
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t bytes_from_cache = 0;
  /// Store-leg (encoded) bytes — what actually crossed the SSD array.
  int64_t encoded_bytes_read = 0;
  int64_t encoded_bytes_written = 0;
  /// Summed submit-to-completion latency of the window's store-leg
  /// requests (DRAM hits resolve at submit and contribute none).
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  int64_t errors = 0;
  int64_t retries = 0;

  double WallSeconds() const { return end_seconds - start_seconds; }
  /// Effective store-leg service bandwidth (bytes moved per second of
  /// summed request latency; 0 when the window carried no such traffic).
  /// Queueing inflates the latency sum, so this is a *throughput floor*
  /// that also moves with queue depth; the replanner's drift signal uses
  /// store busy time instead (TransferStats::store_write_busy_seconds).
  double ReadServiceBandwidth() const {
    return read_seconds > 0.0
               ? static_cast<double>(encoded_bytes_read) / read_seconds
               : 0.0;
  }
  double WriteServiceBandwidth() const {
    return write_seconds > 0.0
               ? static_cast<double>(encoded_bytes_written) / write_seconds
               : 0.0;
  }
  /// Mean submit-to-completion latency per store-leg request.
  double MeanReadLatency() const {
    const int64_t store_reads = reads;
    return store_reads > 0 ? read_seconds / store_reads : 0.0;
  }
  double MeanWriteLatency() const {
    return writes > 0 ? write_seconds / writes : 0.0;
  }

  /// Accumulates `w` into this window (ring eviction folds the oldest
  /// window into the dropped base so reconciliation never drifts).
  void Accumulate(const FlowWindow& w);
};

/// Windowed per-flow observation over an engine's cumulative
/// TransferStats: the caller closes a window at moments of its choosing
/// (step boundaries, in the runtime) and the observer keeps a bounded
/// ring of per-flow windows plus an EWMA bandwidth/latency snapshot —
/// the live measurement feed of the online re-planner (ROADMAP item 4,
/// SSDTrain-style: plan from *observed* bandwidth, not nameplate).
///
/// Reconciliation contract (tested): for every flow and every counter,
///   dropped_base(flow) + sum(History(flow)) == latest snapshot - epoch.
///
/// Thread-safe; Advance calls are serialized internally.
class FlowObserver {
 public:
  /// EWMA snapshot of one flow's observed store-leg behaviour. `valid`
  /// flips true at the first window that carried traffic on the
  /// respective side; until then the values are 0.
  struct Ewma {
    double read_bandwidth = 0.0;   // bytes/s, service bandwidth
    double write_bandwidth = 0.0;  // bytes/s
    double read_latency = 0.0;     // s per request
    double write_latency = 0.0;    // s per request
    bool read_valid = false;
    bool write_valid = false;
  };

  /// `capacity` bounds the per-flow window ring (older windows fold
  /// into the dropped base); `ewma_alpha` weights the newest window.
  explicit FlowObserver(int capacity = 32, double ewma_alpha = 0.5);

  /// Opens the observation epoch: `cumulative` becomes the base every
  /// later window differences against; `now_seconds` stamps the first
  /// window's start. Must be called once before Advance.
  void Start(const TransferStats& cumulative, double now_seconds);

  /// Closes the current window [last boundary, now): per-flow deltas of
  /// `cumulative` against the previous snapshot are pushed into the
  /// rings and folded into the EWMAs. Returns the number of windows
  /// closed so far. Calling Advance before Start starts the epoch
  /// instead (counts no window).
  int64_t Advance(const TransferStats& cumulative, double now_seconds);

  int64_t windows() const;

  /// Ring contents of one flow, oldest first (at most `capacity`).
  std::vector<FlowWindow> History(FlowClass flow) const;

  /// Most recent closed window of one flow (zeroed before any Advance).
  FlowWindow Last(FlowClass flow) const;

  /// Sum of windows evicted from `flow`'s ring (reconciliation base).
  FlowWindow DroppedBase(FlowClass flow) const;

  Ewma ewma(FlowClass flow) const;

  /// The Start() snapshot (reconciliation epoch).
  TransferStats epoch() const;

  /// Latest snapshot seen by Start/Advance.
  TransferStats latest() const;

 private:
  FlowWindow DeltaWindow(const FlowCounters& later, const FlowCounters& earlier,
                         double start_s, double end_s) const;

  const int capacity_;
  const double alpha_;

  mutable std::mutex mu_;
  bool started_ = false;
  int64_t windows_ = 0;
  double boundary_seconds_ = 0.0;
  TransferStats epoch_;
  TransferStats previous_;
  std::array<std::deque<FlowWindow>, kNumFlowClasses> ring_;
  std::array<FlowWindow, kNumFlowClasses> dropped_;
  std::array<FlowWindow, kNumFlowClasses> last_;
  std::array<Ewma, kNumFlowClasses> ewma_;
};

}  // namespace ratel

#endif  // RATEL_XFER_FLOW_WINDOW_H_
