#ifndef RATEL_CORE_REPLANNER_H_
#define RATEL_CORE_REPLANNER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/activation_planner.h"
#include "core/cost_model.h"
#include "core/hardware_profile.h"
#include "model/workload.h"
#include "xfer/flow_window.h"

namespace ratel {

/// Knobs of the plan→run→observe loop. RatelTrainer::Create overlays
/// the RATEL_REPLAN_* environment knobs (common/knobs.h) onto every
/// field, so re-planning can be toggled on any trainer binary without a
/// recompile.
struct ReplanConfig {
  /// Master switch. Off (the default) means the trainer never
  /// constructs a Replanner and runs the exact pre-PR code path.
  bool enabled = false;
  /// Relative deviation of observed vs baseline bandwidth that arms a
  /// re-solve (0.15 = 15%).
  double deviation_threshold = 0.15;
  /// Consecutive deviating windows required before a re-solve fires —
  /// hysteresis: a single noisy window never thrashes the plan.
  int hysteresis_windows = 2;
  /// Minimum windows between re-solves (cooldown), counted from the
  /// last solve; also the warmup length before the first baseline
  /// locks, so early cold-cache noise never becomes the reference.
  int cooldown_windows = 3;
  /// EWMA weight of the newest window in the observed-bandwidth
  /// estimate (see FlowObserver).
  double ewma_alpha = 0.5;
  /// Ring capacity of the underlying FlowObserver.
  int window_capacity = 32;
};

/// One re-solved schedule: the activation plan to install at the next
/// step boundary, plus the calibrated profile that produced it
/// (persistable via profile_io to seed the next run).
struct ReplanResult {
  ActivationPlan activation;
  HardwareProfile calibrated;
  /// Relative deviation that triggered the solve (e.g. 0.47 = observed
  /// bandwidth 47% away from the baseline the old plan assumed).
  double deviation = 0.0;
  /// 1 for the first re-solve, 2 for the second, ...
  int64_t solve_index = 0;
};

/// Point-in-time diagnostics of the loop (exported into StepStats).
struct ReplanObservation {
  int64_t windows = 0;
  int64_t resolves = 0;
  int64_t deviating_windows = 0;  // cumulative over the run
  /// Relative deviation of the latest window's EWMA vs the baseline the
  /// *current* plan was solved from — how stale the plan is right now.
  double staleness = 0.0;
  double observed_read_bandwidth = 0.0;   // EWMA, bytes/s (0 until seen)
  double observed_write_bandwidth = 0.0;  // EWMA, bytes/s
  bool baseline_locked = false;
};

/// Closes Ratel's planning loop online, SSDTrain-style: Algorithm 1
/// solves once from a static HardwareProfile, but the runtime drifts —
/// stripes die, tenants come and go, codecs change effective bandwidth.
/// The Replanner watches windowed per-flow TransferStats
/// (FlowObserver), detects when observed SSD bandwidth deviates from
/// what the current plan assumed, calibrates the profile, and re-runs
/// CostModel + ActivationPlanner. The caller (RatelTrainer) installs the
/// result only at a step boundary.
///
/// A window's bandwidth sample is store-leg bytes per second of store
/// *busy* time (TransferStats::store_{read,write}_busy_seconds), not per
/// second of summed submit-to-completion latency: that sum grows with
/// queue depth, which moves with CPU load and submit timing as much as
/// with the device — under load it can dilute a halved array bandwidth
/// to a deviation below the trigger threshold. Busy time still carries
/// per-request fixed costs (syscalls, wake-ups), so absolute numbers
/// read low for tiny requests — which is why drift is measured against
/// the *observed* baseline locked after warmup (and re-anchored at every
/// solve) rather than against nameplate numbers: drift relative to the
/// loop's own history is exactly the signal "the world changed since
/// this plan was made". Consequence: a drift-free run performs zero
/// re-solves by construction.
///
/// Thread-safe; in practice called from the training thread at step
/// boundaries.
class Replanner {
 public:
  /// `workload` must outlive the replanner. `profile` is the nameplate
  /// profile the initial plan was solved from.
  Replanner(const ReplanConfig& config, const HardwareProfile& profile,
            const WorkloadProfile& workload);

  /// Feeds one observation window (a step boundary): diffs `cumulative`
  /// against the previous snapshot, updates the EWMAs, and — when the
  /// deviation trigger, hysteresis, and cooldown all agree — re-solves.
  /// Returns the new schedule to install, or nullopt (the common case).
  std::optional<ReplanResult> Observe(const TransferStats& cumulative,
                                      double now_seconds);

  /// The plan currently in force (initial solve or latest re-solve).
  ActivationPlan current_plan() const;
  /// Profile the current plan was solved from (nameplate until the
  /// first re-solve, calibrated after).
  HardwareProfile current_profile() const;

  ReplanObservation observation() const;
  const ReplanConfig& config() const { return config_; }

 private:
  /// Aggregates one closed window (the delta of two cumulative
  /// snapshots) into one read-side and one write-side bandwidth sample:
  /// store-leg bytes across flows per second of store busy time.
  /// Returns false when the store was never busy in the window.
  bool AggregateWindow(const TransferStats& window, double* read_bw,
                       double* write_bw, double* compression) const;

  /// Re-solves from a profile calibrated by observed/baseline ratios.
  /// Caller holds mu_.
  ReplanResult SolveLocked(double read_scale, double write_scale,
                           double compression, double deviation);

  const ReplanConfig config_;
  const WorkloadProfile* workload_;  // not owned
  const HardwareProfile nameplate_;

  FlowObserver observer_;

  mutable std::mutex mu_;
  ActivationPlan plan_;
  HardwareProfile profile_;  // the plan's profile (calibrated on solve)
  // Observed-bandwidth EWMAs aggregated across flows (the replanner's
  // own aggregation: per-window totals, not per-flow).
  double ewma_read_bw_ = 0.0;
  double ewma_write_bw_ = 0.0;
  bool read_seen_ = false;
  bool write_seen_ = false;
  // Baseline the current plan is anchored to (locked after warmup,
  // re-anchored at every solve).
  double baseline_read_bw_ = 0.0;
  double baseline_write_bw_ = 0.0;
  bool baseline_locked_ = false;
  double last_compression_ = 1.0;
  int deviation_streak_ = 0;
  int64_t windows_ = 0;
  int64_t deviating_windows_ = 0;
  int64_t last_solve_window_ = 0;
  int64_t resolves_ = 0;
  double staleness_ = 0.0;
};

}  // namespace ratel

#endif  // RATEL_CORE_REPLANNER_H_
