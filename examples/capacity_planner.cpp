// Capacity planner: "what is the largest model I can fine-tune on my
// box, and how fast?" — the purchasing question the paper's
// cost-effectiveness analysis (Section V-I) answers for researchers with
// a fixed budget.
//
// Usage: capacity_planner [gpu] [main_mem_gib] [num_ssds]
//   gpu in {4090, 3090, 4080}, defaults: 4090 256 12
//
// Multi-job mode: capacity_planner --jobs N [gpu] [main_mem_gib]
// [num_ssds] runs N copies of each Table IV model that fits through the
// JobManager's admission math (EvaluateAdmission over the server's SSD
// and pinned-DRAM budgets) and prints the per-job verdicts — how many
// concurrent fine-tuning jobs the box actually hosts before the next
// one queues.

#include <climits>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/colossal_ai.h"
#include "baselines/deepspeed.h"
#include "baselines/flash_neuron.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/ratel_system.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "runtime/job_manager.h"
#include "tools/flag_parser.h"

namespace {

// Per-job admission verdicts for `jobs` concurrent copies of each
// hostable Table IV model — the same EvaluateAdmission/PlanAdmissions
// path the runtime JobManager charges real jobs through.
int RunJobsMode(int jobs, const ratel::ServerConfig& server) {
  using namespace ratel;
  RatelSystem ratel_sys;
  const int64_t ssd_budget = server.ssds.CapacityBytes();
  const int64_t dram_budget = server.main_memory_bytes;
  std::cout << "Admission plan for " << jobs
            << " concurrent jobs per model (SSD budget "
            << FormatBytes(static_cast<double>(ssd_budget))
            << ", pinned-DRAM budget "
            << FormatBytes(static_cast<double>(dram_budget)) << "):\n";
  TablePrinter table({"Model", "Batch", "SSD/job", "Pinned/job", "Admitted",
                      "Queued", "Rejected", "Verdicts"});
  for (const TransformerConfig& config : AllTableIVModels()) {
    const int batch = ratel_sys.MaxMicroBatch(config, server);
    if (batch < 1) {
      table.AddRow({config.name, "-", "-", "-", "-", "-", "-",
                    "does not fit at all"});
      continue;
    }
    const JobDemand demand = PlanJobDemand(config, batch);
    const std::vector<JobDemand> demands(jobs, demand);
    const std::vector<AdmissionVerdict> verdicts =
        PlanAdmissions(demands, ssd_budget, dram_budget);
    int64_t admitted = 0, queued = 0, rejected = 0;
    std::string sequence;
    for (const AdmissionVerdict v : verdicts) {
      switch (v) {
        case AdmissionVerdict::kAdmitted:
          ++admitted;
          sequence += 'A';
          break;
        case AdmissionVerdict::kQueued:
          ++queued;
          sequence += 'Q';
          break;
        case AdmissionVerdict::kRejected:
          ++rejected;
          sequence += 'R';
          break;
      }
    }
    table.AddRow({config.name, TablePrinter::Cell(int64_t{batch}),
                  FormatBytes(static_cast<double>(demand.ssd_bytes)),
                  FormatBytes(static_cast<double>(demand.pinned_host_bytes)),
                  TablePrinter::Cell(admitted), TablePrinter::Cell(queued),
                  TablePrinter::Cell(rejected), sequence});
  }
  table.Print(std::cout);
  std::cout << "\nA = admitted (runs now), Q = queued (runs when a "
            << "neighbor finishes), R = rejected (exceeds the total "
            << "budget).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ratel;

  int jobs = 0;
  int arg_base = 1;
  if (argc > 2 && std::strcmp(argv[1], "--jobs") == 0) {
    jobs =
        static_cast<int>(tools::ParseIntOrExit("--jobs", argv[2], 1, 1024));
    arg_base = 3;
  }
  std::string gpu_name = argc > arg_base ? argv[arg_base] : "4090";
  const int64_t mem_gib =
      argc > arg_base + 1
          ? tools::ParseIntOrExit("memory (GiB)", argv[arg_base + 1], 0,
                                  INT_MAX)
          : 256;
  const int ssds =
      argc > arg_base + 2
          ? static_cast<int>(tools::ParseIntOrExit(
                "SSD count", argv[arg_base + 2], 0, 1024))
          : 12;

  GpuSpec gpu = catalog::Rtx4090();
  if (gpu_name == "3090") gpu = catalog::Rtx3090();
  if (gpu_name == "4080") gpu = catalog::Rtx4080();
  const ServerConfig server =
      catalog::EvaluationServer(gpu, mem_gib * kGiB, ssds);

  if (jobs > 0) return RunJobsMode(jobs, server);

  std::cout << "Capacity plan for: " << gpu.name << ", " << mem_gib
            << " GiB DRAM, " << ssds << " SSDs (total $"
            << static_cast<int64_t>(server.TotalPriceUsd()) << ")\n\n";

  // 1. Largest trainable model per system (batch 1, Fig. 6 style).
  RatelSystem ratel;
  ZeroInfinitySystem zero_inf;
  ZeroOffloadSystem zero_off;
  ColossalAiSystem colossal;
  FlashNeuronSystem flash;
  const TrainingSystem* systems[] = {&ratel, &zero_inf, &zero_off, &colossal,
                                     &flash};
  TablePrinter cap({"System", "Max model (B params)"});
  for (const TrainingSystem* sys : systems) {
    cap.AddRow({sys->name(),
                TablePrinter::Cell(sys->MaxTrainableBillions(server, 1), 1)});
  }
  cap.Print(std::cout);

  // 2. For each Table IV model Ratel can host: best batch, plan and
  //    simulated throughput.
  std::cout << "\nRatel fine-tuning plan per model:\n";
  TablePrinter plan_table({"Model", "Max batch", "Swap", "To SSD", "Case",
                           "Token/s", "TFLOPS"});
  for (const TransformerConfig& config : AllTableIVModels()) {
    const int batch = ratel.MaxMicroBatch(config, server);
    if (batch < 1) {
      plan_table.AddRow({config.name, "-", "-", "-", "does not fit", "-",
                         "-"});
      continue;
    }
    auto plan = ratel.PlanActivations(config, batch, server);
    auto run = ratel.Run(config, batch, server);
    if (!plan.ok() || !run.ok()) {
      plan_table.AddRow({config.name, TablePrinter::Cell(int64_t{batch}), "-",
                         "-", "error", "-", "-"});
      continue;
    }
    plan_table.AddRow({config.name, TablePrinter::Cell(int64_t{batch}),
                       FormatBytes(static_cast<double>(plan->a_g2m)),
                       FormatBytes(static_cast<double>(plan->ssd_bytes)),
                       SwapCaseName(plan->swap_case),
                       TablePrinter::Cell(run->tokens_per_s, 0),
                       TablePrinter::Cell(run->model_tflops, 0)});
  }
  plan_table.Print(std::cout);

  std::cout << "\nHint: rerun with a different machine, e.g. "
            << "`capacity_planner 4080 128 3`.\n";
  return 0;
}
