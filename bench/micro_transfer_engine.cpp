// Microbenchmark: transfer-engine throughput by flow class and priority
// mix. Measures (a) per-flow write/read bandwidth through the full
// facade (accounting + scheduler + store), (b) the DRAM-tier fast path
// against the store path, (c) a mixed critical/background drain that
// mirrors one training step's competing flows (parameter fetch vs
// P32/OS32 writeback, §IV-C), and (d) the pooled buffer data path's
// steady-state copy and pool-miss counts.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "runtime/ratel_trainer.h"
#include "xfer/transfer_engine.h"

namespace {

using ratel::FlowClass;
using ratel::FlowClassName;
using ratel::Rng;
using ratel::TransferEngine;
using ratel::TransferOptions;

std::string Dir(const std::string& tag) {
  return ratel::bench::ScratchDir("xfer") + "/" + tag;
}

std::unique_ptr<TransferEngine> OpenOrDie(const std::string& tag,
                                          int64_t cache_bytes,
                                          benchmark::State& state) {
  TransferOptions opts;
  opts.dir = Dir(tag);
  opts.num_stripes = 4;
  opts.chunk_bytes = 1 << 20;
  opts.host_cache_bytes = cache_bytes;
  opts.io_workers = 2;
  // RATEL_FAULT_* knobs overlay here, as on a trainer, so the same
  // binary also measures throughput under an injected failure model
  // (chaos benchmarking). With no knobs set the config stays disabled
  // and no injector — and no per-op seam cost — exists on the hot path.
  ratel::TrainerOptions trainer;
  RATEL_CHECK_OK(ratel::ApplyEnvKnobs(ratel::knobs::ProcessEnv(), &trainer));
  opts.fault = trainer.fault;
  auto engine = TransferEngine::Open(opts);
  if (!engine.ok()) {
    state.SkipWithError("open failed");
    return nullptr;
  }
  return std::move(*engine);
}

// Write + read round trips of one flow class; range(0) selects the flow
// so the four classes (two priorities) appear side by side in the report.
void BM_EngineRoundTripByFlow(benchmark::State& state) {
  const auto flow = static_cast<FlowClass>(state.range(0));
  const int64_t blob_size = 256 << 10;
  auto engine = OpenOrDie(std::string("flow_") + FlowClassName(flow),
                          /*cache_bytes=*/0, state);
  if (!engine) return;
  Rng rng(7);
  std::vector<uint8_t> data(blob_size);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  std::vector<uint8_t> out(blob_size);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 8);
    benchmark::DoNotOptimize(
        engine->Write(flow, key, data.data(), blob_size).ok());
    benchmark::DoNotOptimize(
        engine->Read(flow, key, out.data(), blob_size).ok());
  }
  state.SetBytesProcessed(state.iterations() * 2 * blob_size);
  state.SetLabel(FlowClassName(flow));
}
BENCHMARK(BM_EngineRoundTripByFlow)->DenseRange(0, ratel::kNumFlowClasses - 1);

// Hot reads served by the DRAM tier vs the same reads against the store:
// the facade's cache fast path resolves tickets at submit time.
void BM_EngineCachedRead(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const int64_t blob_size = 256 << 10;
  auto engine = OpenOrDie(cached ? "hot" : "cold",
                          cached ? int64_t{64} << 20 : 0, state);
  if (!engine) return;
  std::vector<uint8_t> data(blob_size, 0x5A);
  for (int i = 0; i < 8; ++i) {
    (void)engine->Write(FlowClass::kParamFetch, "k" + std::to_string(i),
                        data.data(), blob_size);
  }
  std::vector<uint8_t> out(blob_size);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 8);
    benchmark::DoNotOptimize(
        engine->Read(FlowClass::kParamFetch, key, out.data(), blob_size)
            .ok());
  }
  state.SetBytesProcessed(state.iterations() * blob_size);
  state.SetLabel(cached ? "dram_tier" : "store");
}
BENCHMARK(BM_EngineCachedRead)->Arg(0)->Arg(1);

// One training step's mixed load: range(0) critical param fetches racing
// range(1) background state writebacks, submitted interleaved and then
// drained — the scenario the flow->priority mapping and the aging bound
// exist for.
void BM_EngineMixedPriorityDrain(benchmark::State& state) {
  const int fetches = static_cast<int>(state.range(0));
  const int writebacks = static_cast<int>(state.range(1));
  const int64_t blob_size = 64 << 10;
  auto engine = OpenOrDie("mixed", /*cache_bytes=*/0, state);
  if (!engine) return;
  std::vector<uint8_t> data(blob_size, 0x3C);
  const int keys = fetches > writebacks ? fetches : writebacks;
  for (int i = 0; i < keys; ++i) {
    (void)engine->Write(FlowClass::kParamFetch, "p" + std::to_string(i),
                        data.data(), blob_size);
  }
  std::vector<ratel::Buffer> outs(fetches);
  for (auto _ : state) {
    for (int i = 0; i < keys; ++i) {
      if (i < writebacks) {
        (void)engine->SubmitWrite(FlowClass::kGradState,
                                  "s" + std::to_string(i), data.data(),
                                  blob_size);
      }
      if (i < fetches) {
        (void)engine->SubmitRead(FlowClass::kParamFetch,
                                 "p" + std::to_string(i), &outs[i],
                                 blob_size);
      }
    }
    if (!engine->Drain().ok()) {
      state.SkipWithError("drain failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(fetches + writebacks) *
                          blob_size);
}
BENCHMARK(BM_EngineMixedPriorityDrain)
    ->Args({16, 0})    // pure fetch
    ->Args({0, 16})    // pure writeback
    ->Args({16, 16})   // balanced contention
    ->Args({32, 8});   // fetch-heavy (the starvation-prone regime)

// The pooled buffer data path over a hot working set: write + read back
// 4 blobs per step through the DRAM tier. The per-step counters come
// from the engine's own accounting: bytes_copied_per_step is host-copy
// traffic (0 on this path), pool_allocs_per_step the steady-state pool
// misses (0 once the free lists are warm).
void BM_EnginePooledDataPath(benchmark::State& state) {
  const int64_t blob_size = 256 << 10;
  constexpr int kKeys = 4;
  auto engine = OpenOrDie("pooled", /*cache_bytes=*/int64_t{64} << 20, state);
  if (!engine) return;
  auto step = [&] {
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      ratel::Buffer payload = engine->buffer_pool().Lease(blob_size);
      std::memset(payload.mutable_data(), k, blob_size);
      benchmark::DoNotOptimize(
          engine->WriteBuffer(FlowClass::kGradState, key, std::move(payload))
              .ok());
      ratel::Buffer in;
      benchmark::DoNotOptimize(
          engine
              ->Wait(engine->SubmitRead(FlowClass::kGradState, key, &in,
                                        blob_size))
              .ok());
    }
  };
  // Warmup twice: pass 1 populates the tier (which pins one generation
  // of blocks), pass 2 allocates the one extra block the steady-state
  // lease->publish->recycle cycle needs. After that: zero pool misses.
  step();
  step();
  const ratel::TransferStats t0 = engine->stats();
  const ratel::BufferPool::Stats p0 = engine->buffer_pool().stats();
  for (auto _ : state) step();
  const ratel::TransferStats d = Delta(engine->stats(), t0);
  const ratel::BufferPool::Stats p1 = engine->buffer_pool().stats();
  int64_t copied = 0;
  for (int i = 0; i < ratel::kNumFlowClasses; ++i) {
    copied += d.flow[i].bytes_copied;
  }
  const double steps = static_cast<double>(state.iterations());
  state.counters["bytes_copied_per_step"] =
      benchmark::Counter(static_cast<double>(copied) / steps);
  state.counters["pool_allocs_per_step"] = benchmark::Counter(
      static_cast<double>(p1.allocations - p0.allocations) / steps);
  state.SetBytesProcessed(state.iterations() * 2 * kKeys * blob_size);
}
BENCHMARK(BM_EnginePooledDataPath);

// Codec A/B on the spill flow: the same float working set round-tripped
// raw, framed (identity), demoted (fp16), and sparsified (topk). The
// store-leg counter ratio is the measured compression; wall time shows
// what the encode/decode CPU work costs against the I/O it saves.
void BM_EngineCodecABMode(benchmark::State& state) {
  static const char* kSpecs[] = {"", "identity", "fp16", "topk:4096"};
  static const char* kLabels[] = {"raw", "identity", "fp16", "topk"};
  const int mode = static_cast<int>(state.range(0));
  const int64_t blob_size = 256 << 10;  // 64Ki floats
  TransferOptions opts;
  opts.dir = Dir(std::string("codec_") + kLabels[mode]);
  opts.num_stripes = 4;
  opts.chunk_bytes = 1 << 20;
  opts.io_workers = 2;
  opts.codec.spec(FlowClass::kActivationSpill) = kSpecs[mode];
  auto engine_or = TransferEngine::Open(opts);
  if (!engine_or.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto engine = std::move(*engine_or);
  Rng rng(11);
  std::vector<float> data(blob_size / 4);
  for (auto& v : data) v = static_cast<float>(rng.NextGaussian());
  std::vector<float> out(data.size());
  auto step = [&] {
    for (int k = 0; k < 4; ++k) {
      const std::string key = "a" + std::to_string(k);
      benchmark::DoNotOptimize(
          engine->Write(FlowClass::kActivationSpill, key, data.data(),
                        blob_size)
              .ok());
      benchmark::DoNotOptimize(
          engine->Read(FlowClass::kActivationSpill, key, out.data(),
                       blob_size)
              .ok());
    }
  };
  step();  // warmup: pool classes populate
  const ratel::TransferStats t0 = engine->stats();
  for (auto _ : state) step();
  const ratel::TransferStats d = Delta(engine->stats(), t0);
  const auto& c = d.Flow(FlowClass::kActivationSpill);
  const double steps = static_cast<double>(state.iterations());
  state.counters["store_bytes_per_step"] = benchmark::Counter(
      static_cast<double>(c.encoded_bytes_written + c.encoded_bytes_read) /
      steps);
  state.counters["compression_x"] =
      benchmark::Counter(c.WriteCompressionRatio());
  state.SetBytesProcessed(state.iterations() * 2 * 4 * blob_size);
  state.SetLabel(kLabels[mode]);
}
BENCHMARK(BM_EngineCodecABMode)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
