#ifndef RATEL_BENCH_BENCH_UTIL_H_
#define RATEL_BENCH_BENCH_UTIL_H_

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/knobs.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/iteration_sim.h"
#include "core/system.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"

namespace ratel::bench {

/// The seed's serial GEMM trio, kept verbatim as the speedup baseline
/// for the tiled parallel kernels: forward (ikj with zero-skip),
/// dA = dOut * B^T (dot form), dB = A^T * dOut (scatter form). Compiled
/// at the bench TU's default optimization level, exactly like the seed's
/// ops.cc was.
inline void SeedGemmAccum(const float* a, const float* b, float* out,
                          int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

inline void SeedGemmNTAccum(const float* a, const float* b, float* out,
                            int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] += acc;
    }
  }
}

inline void SeedGemmTNAccum(const float* a, const float* b, float* out,
                            int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* orow = out + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Accumulates named measurements and renders them twice: a human table
/// on stdout and a machine-readable JSON file (BENCH_*.json). Shared by
/// the bench harnesses so the table/JSON boilerplate lives in one place.
class BenchReport {
 public:
  struct Entry {
    std::string name;
    int threads;
    double value;
    std::string unit;
  };

  explicit BenchReport(std::string report_name)
      : report_name_(std::move(report_name)) {}

  /// Records one measurement. `threads` is the compute thread count the
  /// measurement ran at (use 1 for thread-independent entries).
  void Add(const std::string& name, int threads, double value,
           const std::string& unit) {
    entries_.push_back(Entry{name, threads, value, unit});
  }

  void PrintTable(std::ostream& os) const {
    TablePrinter table({"benchmark", "threads", "value", "unit"});
    for (const Entry& e : entries_) {
      table.AddRow({e.name, TablePrinter::Cell(static_cast<int64_t>(e.threads)),
                    TablePrinter::Cell(e.value, 2), e.unit});
    }
    table.Print(os);
  }

  /// Writes `{"report": ..., "entries": [{name, threads, value, unit}]}`.
  Status WriteJson(const std::string& path) const {
    JsonWriter w;
    w.BeginObject();
    w.KeyValue("report", report_name_);
    w.Key("entries");
    w.BeginArray();
    for (const Entry& e : entries_) {
      w.BeginObject();
      w.KeyValue("name", e.name);
      w.KeyValue("threads", static_cast<int64_t>(e.threads));
      w.KeyValue("value", e.value);
      w.KeyValue("unit", e.unit);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot open '" + path + "'");
    out << w.TakeString() << "\n";
    return Status::Ok();
  }

  /// All measurements recorded so far, in insertion order — for
  /// post-hoc checks like the thread-scaling assertion.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::string report_name_;
  std::vector<Entry> entries_;
};

/// This process's scratch directory for engine stores:
/// `/tmp/ratel_bench_<name>_XXXXXX` (mkdtemp), created on the first call
/// and removed with everything under it when the process exits. The
/// first call's `name` wins.
inline const std::string& ScratchDir(const std::string& name) {
  struct Dir {
    std::string path;
    explicit Dir(const std::string& name)
        : path("/tmp/ratel_bench_" + name + "_XXXXXX") {
      if (::mkdtemp(path.data()) == nullptr) {
        std::cerr << "mkdtemp(" << path << ") failed\n";
        std::exit(1);
      }
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir(name);
  return dir.path;
}

/// True when RATEL_BENCH_SMOKE=1 asks for a CI-sized smoke run.
inline bool SmokeMode() {
  return knobs::GetOrDie<bool>("RATEL_BENCH_SMOKE").value_or(false);
}

/// The evaluation server (Table III) with a chosen GPU/memory/SSD count.
inline ServerConfig Server(const GpuSpec& gpu, int64_t mem_gib, int ssds) {
  return catalog::EvaluationServer(gpu, mem_gib * kGiB, ssds);
}

/// Formats tokens/s of a run, or "-" when the system cannot train the
/// configuration (the paper plots these as missing bars).
inline std::string TokensCell(const Result<IterationResult>& r,
                              int precision = 0) {
  if (!r.ok()) return "-";
  return TablePrinter::Cell(r->tokens_per_s, precision);
}

inline std::string TflopsCell(const Result<IterationResult>& r) {
  if (!r.ok()) return "-";
  return TablePrinter::Cell(r->model_tflops, 1);
}

/// Formats a max-trainable-size probe.
inline std::string MaxSizeCell(const TrainingSystem& sys,
                               const ServerConfig& server, int batch) {
  return TablePrinter::Cell(sys.MaxTrainableBillions(server, batch), 1);
}

}  // namespace ratel::bench

#endif  // RATEL_BENCH_BENCH_UTIL_H_
