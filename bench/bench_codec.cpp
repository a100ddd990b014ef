// BENCH_codec.json: offload-codec A/B on the activation-spill flow —
// raw (no codec), fp16 demotion, and top-k sparsification, each running
// the same TinyGpt fine-tune with real activation spills against a
// throttled store.
//
// The interesting numbers are per-step SSD activation bytes (the
// store-leg `encoded_bytes_written` counter on kActivationSpill),
// the measured compression ratio, and tokens/s — the codec trades
// encode/decode CPU for I/O on the throttled device. Acceptance (real
// run only): fp16 cuts SSD activation bytes/step by >= 1.8x vs raw,
// and its loss trajectory stays within the documented 5% relative
// tolerance of the raw run (fp16 activation demotion perturbs the
// backward pass; the bound documents how much).
//
// Usage: bench_codec [out.json]   (default: BENCH_codec.json)
// RATEL_BENCH_SMOKE=1 shrinks the run to a CI-sized smoke.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "runtime/ratel_trainer.h"
#include "xfer/transfer_engine.h"

namespace {

using namespace ratel;

struct ModeResult {
  bool ok = false;
  double total_s = 0.0;            // wall time of the measured steps
  int64_t act_bytes = 0;           // logical activation bytes written
  int64_t act_store_bytes = 0;     // encoded (store-leg) bytes written
  double compression = 1.0;        // logical / store-leg, write side
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::vector<float> losses;
  int steps = 0;
  int64_t tokens = 0;
};

ModeResult RunMode(const std::string& spec, const std::string& tag,
                   int steps, const ag::TinyGptConfig& cfg, double write_bw) {
  ag::TinyGpt model(cfg, /*seed=*/17);
  TrainerOptions opts;
  opts.store_dir = bench::ScratchDir("codec") + "/" + tag;
  opts.num_stripes = 4;
  opts.stripe_chunk_bytes = 1 << 20;
  // No DRAM tier: every spill round-trips the throttled store, so the
  // byte reduction the codec buys shows up in wall time too.
  opts.host_cache_bytes = 0;
  opts.ssd_write_bandwidth = write_bw;
  opts.spill_activations = true;
  opts.codec.spec(FlowClass::kActivationSpill) = spec;
  auto trainer = RatelTrainer::Create(&model, opts);
  if (!trainer.ok()) {
    std::cerr << "trainer open failed: " << trainer.status().ToString()
              << "\n";
    return {};
  }

  Rng rng(5);
  const int batch = 2;
  std::vector<int64_t> ids(batch * cfg.seq_len), targets(batch * cfg.seq_len);
  auto next_batch = [&] {
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int64_t>(rng.NextBelow(cfg.vocab_size));
      targets[i] = (ids[i] * 3 + 1) % cfg.vocab_size;
    }
  };

  ModeResult result;
  // One warmup step primes the buffer pool's frame size classes.
  next_batch();
  if (!(*trainer)->TrainStep(ids, targets, batch).ok()) return {};
  const TransferStats t0 = (*trainer)->transfer_stats();
  for (int step = 0; step < steps; ++step) {
    next_batch();
    auto loss = (*trainer)->TrainStep(ids, targets, batch);
    if (!loss.ok()) {
      std::cerr << "step failed: " << loss.status().ToString() << "\n";
      return {};
    }
    result.total_s += (*trainer)->last_step_stats().total_s;
    result.losses.push_back(*loss);
  }
  const TransferStats t1 = (*trainer)->transfer_stats();
  const FlowCounters& a0 = t0.Flow(FlowClass::kActivationSpill);
  const FlowCounters& a1 = t1.Flow(FlowClass::kActivationSpill);
  result.act_bytes = a1.bytes_written - a0.bytes_written;
  result.act_store_bytes = a1.encoded_bytes_written - a0.encoded_bytes_written;
  result.compression = result.act_store_bytes > 0
                           ? static_cast<double>(result.act_bytes) /
                                 static_cast<double>(result.act_store_bytes)
                           : 1.0;
  result.encode_s = a1.encode_seconds - a0.encode_seconds;
  result.decode_s = a1.decode_seconds - a0.decode_seconds;
  result.steps = steps;
  result.tokens = static_cast<int64_t>(steps) * batch * cfg.seq_len;
  result.ok = true;
  return result;
}

void Report(bench::BenchReport* report, const std::string& mode,
            const ModeResult& r) {
  const double n = r.steps;
  report->Add(mode + "/ssd_act_bytes_per_step", 1,
              static_cast<double>(r.act_store_bytes) / n, "B");
  report->Add(mode + "/logical_act_bytes_per_step", 1,
              static_cast<double>(r.act_bytes) / n, "B");
  report->Add(mode + "/compression", 1, r.compression, "x");
  report->Add(mode + "/step_ms", 1, 1e3 * r.total_s / n, "ms");
  report->Add(mode + "/tokens_per_s", 1,
              static_cast<double>(r.tokens) / r.total_s, "tok/s");
  report->Add(mode + "/encode_ms_per_step", 1, 1e3 * r.encode_s / n, "ms");
  report->Add(mode + "/decode_ms_per_step", 1, 1e3 * r.decode_s / n, "ms");
  report->Add(mode + "/final_loss", 1, r.losses.back(), "");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_codec.json";
  const bool smoke = ratel::bench::SmokeMode();

  ag::TinyGptConfig cfg;
  cfg.vocab_size = 64;
  cfg.seq_len = smoke ? 8 : 64;
  cfg.hidden_dim = smoke ? 24 : 48;
  cfg.num_heads = 4;
  cfg.num_layers = smoke ? 2 : 4;
  const int steps = smoke ? 2 : 8;
  // Throttle sized so the spill writeback is a visible share of the
  // step — the regime where halving the bytes moves tokens/s.
  const double write_bw = smoke ? 256e6 : 40e6;
  // Top-k keep count per spilled tensor: a quarter of one sequence's
  // hidden activations, aggressive enough to show a deep byte cut.
  const int topk = smoke ? 16 : 512;

  const ModeResult raw = RunMode("", "raw", steps, cfg, write_bw);
  const ModeResult fp16 = RunMode("fp16", "fp16", steps, cfg, write_bw);
  const ModeResult sparse =
      RunMode("topk:" + std::to_string(topk), "topk", steps, cfg, write_bw);
  if (!raw.ok || !fp16.ok || !sparse.ok) return 1;

  bench::BenchReport report("codec");
  Report(&report, "raw", raw);
  Report(&report, "fp16", fp16);
  Report(&report, "topk", sparse);
  const double fp16_reduction =
      static_cast<double>(raw.act_store_bytes) /
      static_cast<double>(fp16.act_store_bytes);
  const double topk_reduction =
      static_cast<double>(raw.act_store_bytes) /
      static_cast<double>(sparse.act_store_bytes);
  report.Add("fp16/ssd_byte_reduction", 1, fp16_reduction, "x");
  report.Add("topk/ssd_byte_reduction", 1, topk_reduction, "x");

  report.PrintTable(std::cout);
  const Status st = report.WriteJson(out_path);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  // Raw mode must not encode at all: its store leg is the logical leg.
  if (raw.act_store_bytes != raw.act_bytes) {
    std::cerr << "FAIL: raw mode store bytes (" << raw.act_store_bytes
              << ") differ from logical bytes (" << raw.act_bytes << ")\n";
    return 1;
  }
  // Smoke mode is a bit-rot check, not a measurement: the byte and
  // trajectory acceptance only binds on the real run (the smoke
  // tensors are too small to amortize the 32 B frame headers).
  if (smoke) return 0;
  if (fp16_reduction < 1.8) {
    std::cerr << "FAIL: fp16 SSD activation byte reduction "
              << fp16_reduction << "x below the 1.8x floor\n";
    return 1;
  }
  // Documented trajectory tolerance: every fp16 step loss within 5%
  // relative of the raw trajectory.
  for (int i = 0; i < steps; ++i) {
    const double rel = std::fabs(fp16.losses[i] - raw.losses[i]) /
                       std::max(std::fabs(raw.losses[i]), 1e-6f);
    if (rel > 0.05) {
      std::cerr << "FAIL: fp16 loss at step " << i << " (" << fp16.losses[i]
                << ") deviates " << rel * 100 << "% from raw ("
                << raw.losses[i] << ")\n";
      return 1;
    }
  }
  return 0;
}
