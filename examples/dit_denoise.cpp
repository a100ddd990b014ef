// A real diffusion-style training run on the Ratel substrate (the
// numeric twin of Section V-H): a TinyDiT denoiser learns epsilon
// prediction on synthetic patch tokens while its model states live out
// of core — every Adam update streams P32/OS32 through the striped block
// store via the active-gradient-offloading handler, driven directly
// (without the GPT-specific trainer) to show the runtime API's
// generality.

#include <climits>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "autograd/dit.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "runtime/async_update_engine.h"
#include "runtime/thread_pool.h"
#include "tools/flag_parser.h"
#include "xfer/transfer_engine.h"

int main(int argc, char** argv) {
  using namespace ratel;

  int steps = 150;
  if (argc > 1) {
    steps =
        static_cast<int>(tools::ParseIntOrExit("steps", argv[1], 0, INT_MAX));
  }

  ag::TinyDitConfig cfg;
  cfg.patch_dim = 8;
  cfg.seq_len = 16;
  cfg.hidden_dim = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyDit model(cfg, /*seed=*/11);
  std::cout << "TinyDiT: " << model.NumParameters()
            << " parameters, full (non-causal) attention\n";

  TransferOptions xfer;
  xfer.dir = "/tmp/ratel_dit_store";
  xfer.num_stripes = 4;
  xfer.chunk_bytes = 1 << 20;
  auto engine = TransferEngine::Open(xfer);
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return 1;
  }
  AdamConfig adam_cfg;
  adam_cfg.lr = 2e-3;
  AsyncUpdateEngine adam(adam_cfg, engine->get());
  for (auto& [name, var] : model.parameters()) {
    RATEL_CHECK_OK(adam.Register(name, var.value()));
  }
  ThreadPool pipeline(3);

  // Synthetic denoising task: clean patches are a smooth per-position
  // pattern; the model sees clean + sigma*noise and predicts the noise.
  Rng rng(3);
  const int64_t batch = 8;
  const int64_t n = batch * cfg.seq_len * cfg.patch_dim;
  const float sigma = 0.5f;
  std::vector<float> clean(n), noise(n), noisy(n);

  for (int step = 1; step <= steps; ++step) {
    for (int64_t i = 0; i < n; ++i) {
      const int64_t pos = (i / cfg.patch_dim) % cfg.seq_len;
      const int64_t ch = i % cfg.patch_dim;
      clean[i] = std::sin(0.7f * pos + ch);  // structured signal
      noise[i] = static_cast<float>(rng.NextGaussian());
      noisy[i] = clean[i] + sigma * noise[i];
    }
    // Forward swap-in, mixed precision: fetch each master copy and
    // narrow it to the fp16 weights the forward pass runs on.
    std::vector<float> p32;
    for (auto& [name, var] : model.parameters()) {
      RATEL_CHECK_OK(adam.FetchMasterParams(name, &p32));
      auto& dst = var.mutable_value();
      for (size_t i = 0; i < p32.size(); ++i) {
        dst[i] = HalfToFloat(FloatToHalf(p32[i]));
      }
    }
    model.ZeroGrads();
    ag::Variable loss = model.Loss(noisy, noise, batch);
    loss.Backward();

    // Active gradient offloading, final block first.
    for (int64_t l = cfg.num_layers - 1; l >= 0; --l) {
      for (const auto& name : model.BlockParameterNames(static_cast<int>(l))) {
        for (auto& [n2, var] : model.parameters()) {
          if (n2 != name) continue;
          std::vector<Fp16> g16(var.grad().size());
          for (size_t i = 0; i < g16.size(); ++i) {
            g16[i] = FloatToHalf(var.grad()[i]);
          }
          pipeline.Submit([&adam, name, g = std::move(g16)]() mutable {
            RATEL_CHECK_OK(adam.StepTensor(name, std::move(g)));
          });
        }
      }
    }
    for (auto& [name, var] : model.parameters()) {
      if (name.rfind("blk", 0) == 0) continue;  // handled above
      std::vector<Fp16> g16(var.grad().size());
      for (size_t i = 0; i < g16.size(); ++i) {
        g16[i] = FloatToHalf(var.grad()[i]);
      }
      pipeline.Submit([&adam, name, g = std::move(g16)]() mutable {
        RATEL_CHECK_OK(adam.StepTensor(name, std::move(g)));
      });
    }
    pipeline.Wait();

    if (step == 1 || step % 30 == 0) {
      std::printf("step %4d  denoising MSE %7.4f  (predicting zero noise "
                  "scores 1.0; the signal is fully recoverable)\n",
                  step, loss.value()[0]);
    }
  }
  const TransferStats stats = (*engine)->stats();
  std::cout << "\nOut-of-core traffic: "
            << FormatBytes(stats.TotalBytesRead()) << " read, "
            << FormatBytes(stats.TotalBytesWritten()) << " written through "
            << (*engine)->store().num_stripes() << " stripes ("
            << FormatBytes(stats.Flow(FlowClass::kGradState).bytes_written)
            << " on the model-state flow)\n";
  return 0;
}
