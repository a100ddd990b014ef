// BENCH_async_optim.json: the stall-free asynchronous optimizer against
// the classic blocking step loop, A/B on the same throttled-SSD TinyGpt
// fine-tuning workload.
//
// The sync trainer pays the full 14 bytes/param state writeback on the
// step's critical path (`optimizer_s`). The async trainer applies only
// the hot (top-k gradient-magnitude) chunks inline and defers the tail
// — plus the whole writeback — to background epochs whose
// kDeferredState writes overlap the next step's forward/prefetch.
// Acceptance: `async/optimizer_ms_per_step` strictly below
// `sync/optimizer_ms_per_step`, and `async/speedup` > 1 end to end.
//
// Usage: bench_async_optim [out.json]   (default: BENCH_async_optim.json)
// RATEL_BENCH_SMOKE=1 shrinks the run to a CI-sized smoke.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "runtime/compute_pool.h"
#include "runtime/ratel_trainer.h"

namespace {

using namespace ratel;

struct ModeResult {
  bool ok = false;
  double total_s = 0.0;          // wall time of the measured steps
  double optimizer_s = 0.0;      // critical-path optimizer time
  double overlap_s = 0.0;        // background epoch time off the path
  double drain_stall_s = 0.0;    // foreground blocked on pending epochs
  int64_t hot_chunks = 0;
  int64_t tail_chunks = 0;
  int64_t deferred_epochs = 0;
  int steps = 0;
  float final_loss = 0.0f;
};

ModeResult RunMode(bool async, int steps, const ag::TinyGptConfig& cfg,
                   double write_bw) {
  ag::TinyGpt model(cfg, /*seed=*/17);
  TrainerOptions opts;
  opts.store_dir = bench::ScratchDir("async") + (async ? "/async" : "/sync");
  opts.num_stripes = 4;
  opts.stripe_chunk_bytes = 1 << 20;
  // The DRAM tier serves the foreground reads; only the store *writes*
  // ride the throttle — exactly the traffic the async pipeline defers.
  opts.host_cache_bytes = int64_t{64} << 20;
  opts.ssd_write_bandwidth = write_bw;
  opts.async_optimizer = async;
  opts.async_hot_fraction = 0.1;
  // This model's tensors are small against the kernel's 4096-element
  // default grid; a finer partition lets ~90% of every tensor defer.
  opts.async_partition_chunk = 512;
  // Wide enough that independent tensors' throttled write-waits overlap
  // down in the I/O scheduler instead of serializing epoch by epoch.
  opts.async_background_threads = 4;
  auto trainer = RatelTrainer::Create(&model, opts);
  if (!trainer.ok()) {
    std::cerr << "trainer open failed: " << trainer.status().ToString()
              << "\n";
    return {};
  }

  Rng rng(5);
  std::vector<int64_t> ids(2 * cfg.seq_len), targets(2 * cfg.seq_len);
  auto next_batch = [&] {
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int64_t>(rng.NextBelow(cfg.vocab_size));
      targets[i] = (ids[i] * 3 + 1) % cfg.vocab_size;
    }
  };

  ModeResult result;
  // One warmup step primes the DRAM tier and the buffer pool.
  next_batch();
  if (!(*trainer)->TrainStep(ids, targets, 2).ok()) return {};
  for (int step = 0; step < steps; ++step) {
    next_batch();
    auto loss = (*trainer)->TrainStep(ids, targets, 2);
    if (!loss.ok()) {
      std::cerr << "step failed: " << loss.status().ToString() << "\n";
      return {};
    }
    const StepStats& s = (*trainer)->last_step_stats();
    result.total_s += s.total_s;
    result.optimizer_s += s.optimizer_s;
    result.overlap_s += s.optimizer_overlap_s;
    result.drain_stall_s += s.drain_stall_s;
    result.hot_chunks += s.hot_chunks;
    result.tail_chunks += s.tail_chunks;
    result.deferred_epochs += s.deferred_epochs;
    result.final_loss = *loss;
  }
  result.steps = steps;
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_async_optim.json";
  const bool smoke = ratel::bench::SmokeMode();

  ag::TinyGptConfig cfg;
  cfg.vocab_size = 64;
  cfg.seq_len = smoke ? 8 : 64;
  cfg.hidden_dim = smoke ? 24 : 48;
  cfg.num_heads = 4;
  cfg.num_layers = smoke ? 2 : 4;
  const int steps = smoke ? 2 : 8;
  // Throttle sized so the per-step state writeback costs wall time of
  // the same order as this model's compute — the regime where moving
  // the writeback off the critical path pays (either side much larger
  // and the overlap has nothing to hide behind).
  const double write_bw = smoke ? 256e6 : 40e6;

  const ModeResult sync = RunMode(/*async=*/false, steps, cfg, write_bw);
  const ModeResult async_r = RunMode(/*async=*/true, steps, cfg, write_bw);
  if (!sync.ok || !async_r.ok) return 1;

  bench::BenchReport report("async_optim");
  const double n = sync.steps;
  report.Add("sync/step_ms", 1, 1e3 * sync.total_s / n, "ms");
  report.Add("sync/optimizer_ms_per_step", 1, 1e3 * sync.optimizer_s / n,
             "ms");
  report.Add("async/step_ms", 1, 1e3 * async_r.total_s / n, "ms");
  report.Add("async/optimizer_ms_per_step", 1, 1e3 * async_r.optimizer_s / n,
             "ms");
  report.Add("async/overlap_ms_per_step", 1, 1e3 * async_r.overlap_s / n,
             "ms");
  report.Add("async/drain_stall_ms_per_step", 1,
             1e3 * async_r.drain_stall_s / n, "ms");
  report.Add("async/hot_chunks_per_step", 1,
             static_cast<double>(async_r.hot_chunks) / n, "");
  report.Add("async/tail_chunks_per_step", 1,
             static_cast<double>(async_r.tail_chunks) / n, "");
  report.Add("async/deferred_epochs_per_step", 1,
             static_cast<double>(async_r.deferred_epochs) / n, "");
  report.Add("async/speedup", 1, sync.total_s / async_r.total_s, "x");
  report.Add("async/optimizer_critical_path_reduction", 1,
             sync.optimizer_s / std::max(async_r.optimizer_s, 1e-9), "x");

  report.PrintTable(std::cout);
  const Status st = report.WriteJson(out_path);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  // The losses must agree bitwise: the pipeline changes when state is
  // written, never what is computed.
  if (sync.final_loss != async_r.final_loss) {
    std::cerr << "FAIL: async trajectory diverged from sync ("
              << sync.final_loss << " vs " << async_r.final_loss << ")\n";
    return 1;
  }
  // Smoke mode is a bit-rot check, not a measurement: the timing
  // acceptance only binds on the real run.
  if (!smoke && async_r.optimizer_s >= sync.optimizer_s) {
    std::cerr << "FAIL: async optimizer critical-path time ("
              << async_r.optimizer_s << "s) not below sync ("
              << sync.optimizer_s << "s)\n";
    return 1;
  }
  return 0;
}
