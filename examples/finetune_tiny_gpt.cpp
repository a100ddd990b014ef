// Real end-to-end fine-tuning through the Ratel runtime: a small GPT is
// trained with genuine forward/backward passes (src/autograd) while every
// model-state tensor lives *out of core* in the striped block store — the
// fp32 master copies are fetched and narrowed to the fp16 weights before
// each forward pass (optionally via the DRAM tier cache) and gradients
// drive the out-of-core CPU Adam handler per tensor in backward arrival
// order (active gradient offloading, Section IV-C). Activations are spilled to the store between forward
// and backward (the A16 leg of Table II).
//
// The task is synthetic but learnable (predict (3*id+1) mod V); the run
// reports loss, held-out accuracy, storage traffic and cache hit rate,
// then writes a checkpoint of the fp32 master weights.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "autograd/ops.h"
#include "autograd/transformer.h"
#include "common/units.h"
#include "runtime/checkpoint.h"
#include "runtime/compute_pool.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"

int main(int argc, char** argv) {
  using namespace ratel;

  // Usage: finetune_tiny_gpt [steps] [--threads N]
  int steps = 120;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      SetComputeThreads(std::atoi(argv[++i]));
    } else {
      steps = std::atoi(argv[i]);
    }
  }
  std::cout << "Compute threads: " << ComputeThreads() << "\n";

  ag::TinyGptConfig cfg;
  cfg.vocab_size = 64;
  cfg.seq_len = 16;
  cfg.hidden_dim = 48;
  cfg.num_heads = 4;
  cfg.num_layers = 3;
  ag::TinyGpt model(cfg, /*seed=*/2024);
  std::cout << "TinyGpt: " << model.NumParameters() << " parameters, "
            << cfg.num_layers << " blocks\n";

  TrainerOptions opts;
  opts.grad_mode = GradientOffloadMode::kOptimizedActive;
  opts.store_dir = "/tmp/ratel_example_store";
  opts.num_stripes = 4;              // the emulated SSD array
  opts.host_cache_bytes = 8 * kMiB;  // DRAM tier in front of it
  opts.spill_activations = true;     // A16 swap-out/swap-in, real bytes
  opts.adam.lr = 3e-3;
  auto trainer = RatelTrainer::Create(&model, opts);
  if (!trainer.ok()) {
    std::cerr << trainer.status().ToString() << "\n";
    return 1;
  }

  SyntheticDataset dataset(SyntheticTask::kAffineMap, cfg.vocab_size,
                           cfg.seq_len, /*seed=*/7);
  const int64_t batch = 4;
  const auto train_t0 = std::chrono::steady_clock::now();
  for (int step = 1; step <= steps; ++step) {
    const TokenBatch b = dataset.NextBatch(batch);
    auto loss = (*trainer)->TrainStep(b.ids, b.targets, batch);
    if (!loss.ok()) {
      std::cerr << "step " << step << ": " << loss.status().ToString() << "\n";
      return 1;
    }
    if (step == 1 || step % 20 == 0) {
      const TokenBatch eval = dataset.EvalBatch(batch);
      const double acc =
          ag::Accuracy(model.Logits(eval.ids, batch), eval.targets);
      const StepStats& s = (*trainer)->last_step_stats();
      std::printf(
          "step %4d  loss %6.3f  eval-acc %5.1f%%  (compute %5.1f ms, "
          "optimizer %4.1f ms, A16 spilled %s)\n",
          step, *loss, 100.0 * acc, 1e3 * s.compute_s, 1e3 * s.optimizer_s,
          FormatBytes(static_cast<double>(s.activation_bytes_spilled))
              .c_str());
    }
  }

  const double train_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    train_t0)
          .count();
  std::printf("\nTrained %d steps in %.2f s: %.0f tokens/s (%d threads)\n",
              steps, train_s, steps * batch * cfg.seq_len / train_s,
              ComputeThreads());

  const auto& store = (*trainer)->engine().store();
  std::cout << "\nStorage after training: " << store.num_blobs()
            << " blobs across " << store.num_stripes() << " stripes, "
            << FormatBytes(store.allocated_bytes()) << " allocated\n";
  const TransferStats xfer = (*trainer)->transfer_stats();
  std::cout << "Transfer engine traffic by flow:\n";
  for (int i = 0; i < kNumFlowClasses; ++i) {
    const FlowClass flow = static_cast<FlowClass>(i);
    const FlowCounters& c = xfer.Flow(flow);
    if (c.reads + c.writes == 0) continue;
    std::printf("  %-16s %9s read (%s from DRAM), %9s written\n",
                FlowClassName(flow), FormatBytes(c.bytes_read).c_str(),
                FormatBytes(c.bytes_from_cache).c_str(),
                FormatBytes(c.bytes_written).c_str());
  }
  std::printf("DRAM tier hit rate %.0f%%, %lld evictions\n",
              100.0 * xfer.DramHitRate(),
              static_cast<long long>(xfer.cache.evictions));

  // Keep the fine-tuned master weights.
  std::vector<std::string> names;
  for (const auto& [name, var] : model.parameters()) names.push_back(name);
  const std::string ckpt = "/tmp/ratel_example_model.ckpt";
  const Status saved =
      checkpoint::Save((*trainer)->optimizer(), names, ckpt);
  if (saved.ok()) {
    auto loaded = checkpoint::Load(ckpt);
    std::cout << "Checkpoint: " << ckpt << " ("
              << (loaded.ok() ? loaded->size() : 0) << " tensors)\n";
  } else {
    std::cerr << "checkpoint failed: " << saved.ToString() << "\n";
  }
  return 0;
}
