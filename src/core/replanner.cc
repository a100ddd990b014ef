#include "core/replanner.h"

#include <algorithm>

#include "common/logging.h"

namespace ratel {

namespace {

// Relative-change multipliers are clamped so one pathological window
// (e.g. a single tiny request) can never calibrate the profile into
// absurdity; the next windows pull it back gradually.
constexpr double kMinScale = 0.05;
constexpr double kMaxScale = 20.0;

double ClampScale(double s) {
  if (!(s > 0.0)) return 1.0;
  return std::min(kMaxScale, std::max(kMinScale, s));
}

}  // namespace

Replanner::Replanner(const ReplanConfig& config, const HardwareProfile& profile,
                     const WorkloadProfile& workload)
    : config_(config),
      workload_(&workload),
      nameplate_(profile),
      observer_(config.window_capacity, config.ewma_alpha),
      profile_(profile),
      last_compression_(profile.observed_activation_compression) {
  // Solve the initial schedule from the given profile; not counted as a
  // re-solve (resolves_ stays 0 until drift actually fires).
  CostModel cm(profile_, *workload_);
  cm.SetActivationCompressionRatio(last_compression_);
  plan_ = ActivationPlanner(cm).Plan();
}

bool Replanner::AggregateWindow(const TransferStats& window, double* read_bw,
                                double* write_bw, double* compression) const {
  double enc_read = 0.0, enc_written = 0.0;
  for (const FlowCounters& c : window.flow) {
    enc_read += static_cast<double>(c.encoded_bytes_read);
    enc_written += static_cast<double>(c.encoded_bytes_written);
  }
  const double read_s = window.store_read_busy_seconds;
  const double write_s = window.store_write_busy_seconds;
  *read_bw = read_s > 0.0 ? enc_read / read_s : 0.0;
  *write_bw = write_s > 0.0 ? enc_written / write_s : 0.0;
  // Compression uses the cumulative spill-flow counters (a ratio, so a
  // run-long average is the stable estimate the cost model wants).
  const TransferStats latest = observer_.latest();
  *compression = latest.Flow(FlowClass::kActivationSpill).WriteCompressionRatio();
  return read_s > 0.0 || write_s > 0.0;
}

std::optional<ReplanResult> Replanner::Observe(const TransferStats& cumulative,
                                               double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  const TransferStats previous = observer_.latest();
  const int64_t n = observer_.Advance(cumulative, now_seconds);
  if (n == windows_) return std::nullopt;  // epoch start: nothing closed
  windows_ = n;

  double read_bw = 0.0, write_bw = 0.0, compression = 1.0;
  const bool carried = AggregateWindow(Delta(cumulative, previous), &read_bw,
                                       &write_bw, &compression);
  if (carried) last_compression_ = compression;
  if (read_bw > 0.0) {
    ewma_read_bw_ = read_seen_ ? config_.ewma_alpha * read_bw +
                                     (1.0 - config_.ewma_alpha) * ewma_read_bw_
                               : read_bw;
    read_seen_ = true;
  }
  if (write_bw > 0.0) {
    ewma_write_bw_ = write_seen_
                         ? config_.ewma_alpha * write_bw +
                               (1.0 - config_.ewma_alpha) * ewma_write_bw_
                         : write_bw;
    write_seen_ = true;
  }

  // Warmup: the baseline locks only after cooldown_windows windows, so
  // cold-cache / first-touch noise never becomes the reference the
  // whole run is judged against.
  if (!baseline_locked_) {
    if (windows_ >= config_.cooldown_windows && (read_seen_ || write_seen_)) {
      baseline_read_bw_ = read_seen_ ? ewma_read_bw_ : 0.0;
      baseline_write_bw_ = write_seen_ ? ewma_write_bw_ : 0.0;
      baseline_locked_ = true;
      last_solve_window_ = windows_;
    }
    staleness_ = 0.0;
    return std::nullopt;
  }
  // A side first observed after the lock anchors to its first EWMA.
  if (read_seen_ && baseline_read_bw_ <= 0.0) baseline_read_bw_ = ewma_read_bw_;
  if (write_seen_ && baseline_write_bw_ <= 0.0) {
    baseline_write_bw_ = ewma_write_bw_;
  }

  double deviation = 0.0;
  if (baseline_read_bw_ > 0.0 && read_seen_) {
    deviation = std::max(deviation,
                         std::abs(ewma_read_bw_ / baseline_read_bw_ - 1.0));
  }
  if (baseline_write_bw_ > 0.0 && write_seen_) {
    deviation = std::max(deviation,
                         std::abs(ewma_write_bw_ / baseline_write_bw_ - 1.0));
  }
  staleness_ = deviation;

  if (deviation > config_.deviation_threshold) {
    ++deviating_windows_;
    ++deviation_streak_;
  } else {
    deviation_streak_ = 0;
  }
  if (deviation_streak_ < config_.hysteresis_windows) return std::nullopt;
  if (windows_ - last_solve_window_ < config_.cooldown_windows) {
    return std::nullopt;
  }

  const double read_scale =
      baseline_read_bw_ > 0.0 && read_seen_
          ? ClampScale(ewma_read_bw_ / baseline_read_bw_)
          : 1.0;
  const double write_scale =
      baseline_write_bw_ > 0.0 && write_seen_
          ? ClampScale(ewma_write_bw_ / baseline_write_bw_)
          : 1.0;
  return SolveLocked(read_scale, write_scale, last_compression_, deviation);
}

ReplanResult Replanner::SolveLocked(double read_scale, double write_scale,
                                    double compression, double deviation) {
  // The baseline re-anchors at every solve, so each scale is the
  // *relative* change since the profile was last calibrated — applied
  // multiplicatively, cumulative drift composes naturally.
  HardwareProfile calibrated = profile_;
  calibrated.bw_s2m = profile_.bw_s2m * read_scale;
  calibrated.bw_m2s = profile_.bw_m2s * write_scale;
  calibrated.observed_activation_compression = compression;
  calibrated.calibration_windows = windows_;

  CostModel cm(calibrated, *workload_);
  cm.SetActivationCompressionRatio(compression);
  plan_ = ActivationPlanner(cm).Plan();
  profile_ = calibrated;
  if (read_seen_) baseline_read_bw_ = ewma_read_bw_;
  if (write_seen_) baseline_write_bw_ = ewma_write_bw_;
  deviation_streak_ = 0;
  last_solve_window_ = windows_;
  staleness_ = 0.0;
  ++resolves_;

  RATEL_LOG(Info) << "replan #" << resolves_ << " at window " << windows_
                  << ": deviation " << deviation << ", bw_s2m x" << read_scale
                  << ", bw_m2s x" << write_scale << ", a_g2m " << plan_.a_g2m
                  << " (" << SwapCaseName(plan_.swap_case) << ")";

  ReplanResult result;
  result.activation = plan_;
  result.calibrated = profile_;
  result.deviation = deviation;
  result.solve_index = resolves_;
  return result;
}

ActivationPlan Replanner::current_plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

HardwareProfile Replanner::current_profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

ReplanObservation Replanner::observation() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplanObservation obs;
  obs.windows = windows_;
  obs.resolves = resolves_;
  obs.deviating_windows = deviating_windows_;
  obs.staleness = staleness_;
  obs.observed_read_bandwidth = read_seen_ ? ewma_read_bw_ : 0.0;
  obs.observed_write_bandwidth = write_seen_ ? ewma_write_bw_ : 0.0;
  obs.baseline_locked = baseline_locked_;
  return obs;
}

}  // namespace ratel
