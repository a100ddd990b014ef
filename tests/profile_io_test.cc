#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/activation_planner.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

using ProfileIoTest = TempDirTest;
TEST_F(ProfileIoTest, SaveLoadRoundTrip) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 12);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());

  const std::string path = tmp.Sub("roundtrip.prf");
  ASSERT_TRUE(profile_io::Save(*hw, path).ok());
  auto loaded = profile_io::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->thp_g, hw->thp_g);
  EXPECT_EQ(loaded->gpu_memory_bytes, hw->gpu_memory_bytes);
  EXPECT_DOUBLE_EQ(loaded->bw_g, hw->bw_g);
  EXPECT_DOUBLE_EQ(loaded->bw_s2m, hw->bw_s2m);
  EXPECT_DOUBLE_EQ(loaded->bw_m2s, hw->bw_m2s);
  EXPECT_DOUBLE_EQ(loaded->cpu_adam_rate, hw->cpu_adam_rate);
  EXPECT_DOUBLE_EQ(loaded->host_mem_bw, hw->host_mem_bw);
  EXPECT_EQ(loaded->mem_avail_m, hw->mem_avail_m);
  EXPECT_DOUBLE_EQ(loaded->t_f, hw->t_f);
  EXPECT_DOUBLE_EQ(loaded->t_b, hw->t_b);
  EXPECT_EQ(loaded->layer_forward_seconds, hw->layer_forward_seconds);
}

TEST_F(ProfileIoTest, LoadedProfileDrivesThePlannerIdentically) {
  auto cfg = LlmFromTableIV("6B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 16);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 6);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());
  const std::string path = tmp.Sub("planner.prf");
  ASSERT_TRUE(profile_io::Save(*hw, path).ok());
  auto loaded = profile_io::Load(path);
  ASSERT_TRUE(loaded.ok());
  const CostModel a(*hw, wl);
  const CostModel b(*loaded, wl);
  const ActivationPlan pa = ActivationPlanner(a).Plan();
  const ActivationPlan pb = ActivationPlanner(b).Plan();
  EXPECT_EQ(pa.a_g2m, pb.a_g2m);
  EXPECT_DOUBLE_EQ(pa.predicted_iter_time, pb.predicted_iter_time);
}

TEST_F(ProfileIoTest, CalibrationFieldsRoundTripInV2) {
  // The v2 extension carries the replanner's provenance: observed
  // activation compression and the window count the calibration was
  // drawn from. Both must survive the round trip exactly.
  HardwareProfile hw;
  hw.thp_g = 1e12;
  hw.gpu_memory_bytes = int64_t{24} << 30;
  hw.bw_g = 16e9;
  hw.bw_s2m = 3.2e9;
  hw.bw_m2s = 2.8e9;
  hw.cpu_adam_rate = 2e9;
  hw.host_mem_bw = 50e9;
  hw.mem_avail_m = int64_t{192} << 30;
  hw.t_f = 0.12;
  hw.t_b = 0.31;
  hw.observed_activation_compression = 1.75;
  hw.calibration_windows = 42;
  hw.layer_forward_seconds = {0.01, 0.02, 0.03};

  const std::string path = tmp.Sub("calibrated.prf");
  ASSERT_TRUE(profile_io::Save(hw, path).ok());
  auto loaded = profile_io::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->observed_activation_compression, 1.75);
  EXPECT_EQ(loaded->calibration_windows, 42);
  EXPECT_DOUBLE_EQ(loaded->bw_m2s, 2.8e9);
  EXPECT_EQ(loaded->layer_forward_seconds, hw.layer_forward_seconds);
}

TEST_F(ProfileIoTest, V1FileLoadsWithDefaultCalibration) {
  // Back-compat: a pre-calibration (v1) file — magic, version 1, the
  // scalar payload, then layer times, with *no* calibration payload —
  // must load with the nameplate defaults (ratio 1.0, zero windows).
  struct V1Scalars {  // mirrors profile_io's v1 ScalarPayload layout
    double thp_g;
    int64_t gpu_memory_bytes;
    double bw_g, bw_s2m, bw_m2s, cpu_adam_rate, host_mem_bw;
    int64_t mem_avail_m;
    double t_f, t_b;
  };
  static_assert(sizeof(V1Scalars) == 80, "v1 payload layout drifted");
  const std::string path = tmp.Sub("v1.prf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("RATELPRF", 1, 8, f);
    const uint32_t version = 1;
    std::fwrite(&version, sizeof(version), 1, f);
    V1Scalars p{1e12, int64_t{24} << 30, 16e9,  3.2e9, 2.8e9,
                2e9,  50e9,              int64_t{96} << 30, 0.1, 0.2};
    std::fwrite(&p, sizeof(p), 1, f);
    const uint32_t layers = 2;
    std::fwrite(&layers, sizeof(layers), 1, f);
    const double times[2] = {0.04, 0.05};
    std::fwrite(times, sizeof(double), 2, f);
    std::fclose(f);
  }
  auto loaded = profile_io::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->bw_s2m, 3.2e9);
  EXPECT_DOUBLE_EQ(loaded->t_b, 0.2);
  ASSERT_EQ(loaded->layer_forward_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->layer_forward_seconds[1], 0.05);
  EXPECT_DOUBLE_EQ(loaded->observed_activation_compression, 1.0);
  EXPECT_EQ(loaded->calibration_windows, 0);
}

TEST_F(ProfileIoTest, FutureVersionIsRejectedLoudly) {
  const std::string path = tmp.Sub("v3.prf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("RATELPRF", 1, 8, f);
    const uint32_t version = 3;
    std::fwrite(&version, sizeof(version), 1, f);
    std::fclose(f);
  }
  auto loaded = profile_io::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(ProfileIoTest, CorruptCalibrationPayloadIsRejected) {
  // Save a valid v2 file, then stomp the calibration payload in place:
  // a non-positive compression ratio (offset 92: magic 8 + version 4 +
  // scalars 80) and, separately, a negative window count (offset 100)
  // must both fail validation instead of poisoning a later run's plan.
  HardwareProfile hw;
  hw.layer_forward_seconds = {0.01};
  for (const auto& [offset, name] :
       std::vector<std::pair<long, std::string>>{{92, "compression"},
                                                 {100, "windows"}}) {
    SCOPED_TRACE(name);
    const std::string path = tmp.Sub("corrupt_" + name + ".prf");
    ASSERT_TRUE(profile_io::Save(hw, path).ok());
    {
      std::fstream f(path,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(offset);
      if (name == "compression") {
        const double bad = -1.0;
        f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
      } else {
        const int64_t bad = -5;
        f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
      }
    }
    auto loaded = profile_io::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("calibration"),
              std::string::npos);
  }
}

TEST_F(ProfileIoTest, RejectsGarbage) {
  EXPECT_EQ(profile_io::Load(tmp.Sub("missing")).status().code(),
            StatusCode::kNotFound);
  const std::string path = tmp.Sub("garbage.prf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTAPROFILE00000", 1, 16, f);
    std::fclose(f);
  }
  EXPECT_EQ(profile_io::Load(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, NewGpusAreUsableEndToEnd) {
  auto cfg = LlmFromTableIV("6B");
  ASSERT_TRUE(cfg.ok());
  for (const GpuSpec& gpu : {catalog::Rtx4070Ti(), catalog::RtxA6000()}) {
    const ServerConfig s =
        catalog::EvaluationServer(gpu, 256 * kGiB, 12);
    const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 4);
    auto hw = HardwareProfiler(s).Profile(wl);
    ASSERT_TRUE(hw.ok()) << gpu.name;
    EXPECT_EQ(hw->gpu_memory_bytes, gpu.device_memory_bytes);
  }
  // The 48 GiB A6000 hosts strictly larger working sets than the 12 GiB
  // 4070 Ti at the same batch.
  EXPECT_GT(catalog::RtxA6000().device_memory_bytes,
            catalog::Rtx4070Ti().device_memory_bytes);
}

}  // namespace
}  // namespace ratel
