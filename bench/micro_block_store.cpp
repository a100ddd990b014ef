// Microbenchmark: striped block-store throughput (the emulated SSD
// array). Measures Put/Get bandwidth vs stripe count, mirroring the
// aggregate-bandwidth question of Fig. 10.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "storage/block_store.h"

namespace {

using ratel::BlockStore;
using ratel::Rng;

std::string Dir(const std::string& tag) {
  return ratel::bench::ScratchDir("store") + "/" + tag;
}

void BM_BlockStorePut(benchmark::State& state) {
  const int stripes = static_cast<int>(state.range(0));
  const int64_t blob_size = state.range(1);
  auto store =
      BlockStore::Open(Dir("put" + std::to_string(stripes)), stripes, 1 << 20);
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  Rng rng(1);
  std::vector<uint8_t> data(blob_size);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  int i = 0;
  for (auto _ : state) {
    // Cycle a small key set so writes hit the in-place overwrite path,
    // like the fixed-size swap traffic of training.
    const std::string key = "k" + std::to_string(i++ % 8);
    benchmark::DoNotOptimize(
        (*store)->Put(key, data.data(), blob_size).ok());
  }
  state.SetBytesProcessed(state.iterations() * blob_size);
}
BENCHMARK(BM_BlockStorePut)
    ->Args({1, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({12, 1 << 20})
    ->Args({4, 8 << 20});

void BM_BlockStoreGet(benchmark::State& state) {
  const int stripes = static_cast<int>(state.range(0));
  const int64_t blob_size = 1 << 20;
  auto store =
      BlockStore::Open(Dir("get" + std::to_string(stripes)), stripes, 1 << 20);
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  std::vector<uint8_t> data(blob_size, 0x5A);
  for (int i = 0; i < 8; ++i) {
    (void)(*store)->Put("k" + std::to_string(i), data.data(), blob_size);
  }
  std::vector<uint8_t> out(blob_size);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 8);
    benchmark::DoNotOptimize((*store)->Get(key, out.data(), blob_size).ok());
  }
  state.SetBytesProcessed(state.iterations() * blob_size);
}
BENCHMARK(BM_BlockStoreGet)->Arg(1)->Arg(4)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
