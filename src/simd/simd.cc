#include "simd/simd.h"

#include "common/knobs.h"
#include "common/logging.h"

namespace ratel::simd {

// Backend tables: the two builds of kernels.cc, each with its own
// instruction-set flags.
const KernelTable* ScalarKernels();
#if !defined(RATEL_SIMD_NO_AVX2)
const KernelTable* Avx2Kernels();
#endif

bool HostHasAvx2() {
#if defined(RATEL_SIMD_NO_AVX2)
  return false;
#else
  static const bool has = __builtin_cpu_supports("avx2") &&
                          __builtin_cpu_supports("fma") &&
                          __builtin_cpu_supports("f16c");
  return has;
#endif
}

const char* ModeName(Mode mode) {
  return mode == Mode::kAvx2 ? "avx2" : "scalar";
}

namespace {

Mode ResolveInitialMode() {
  const std::string mode =
      knobs::GetOrDie<std::string>("RATEL_SIMD").value_or("auto");
  if (mode == "scalar") return Mode::kScalar;
  if (mode == "avx2" && !HostHasAvx2()) {
    RATEL_LOG(Warning) << "RATEL_SIMD=avx2 requested but this host/build "
                          "lacks AVX2+FMA+F16C; falling back to scalar";
  }
  return HostHasAvx2() ? Mode::kAvx2 : Mode::kScalar;
}

Mode& ActiveModeRef() {
  static Mode mode = ResolveInitialMode();
  return mode;
}

}  // namespace

Mode ActiveMode() { return ActiveModeRef(); }

bool SetMode(Mode mode) {
  if (mode == Mode::kAvx2 && !HostHasAvx2()) return false;
  ActiveModeRef() = mode;
  return true;
}

const KernelTable& KernelsFor(Mode mode) {
  if (mode == Mode::kAvx2) {
#if !defined(RATEL_SIMD_NO_AVX2)
    RATEL_CHECK(HostHasAvx2()) << "AVX2 kernels requested on a host "
                                  "without AVX2+FMA+F16C";
    return *Avx2Kernels();
#else
    RATEL_CHECK(false) << "binary built without the AVX2 backend";
#endif
  }
  return *ScalarKernels();
}

const KernelTable& Kernels() { return KernelsFor(ActiveMode()); }

}  // namespace ratel::simd
