#ifndef RATEL_SIMD_SIMD_H_
#define RATEL_SIMD_SIMD_H_

#include <cstdint>

#include "common/fp16.h"

namespace ratel::simd {

/// The vectorized compute layer under the hot CPU kernels (GEMM,
/// layernorm/softmax/cross-entropy row reductions, GeLU, the fused
/// Adam step). One kernel source (kernels.cc, written on vec8.h) builds
/// into two backend tables:
///
///  - `kAvx2`: built with -mavx2 -mfma -mf16c — 8-wide FMA kernels.
///  - `kScalar`: the same source built with no ISA flags, for hosts
///    without AVX2+FMA+F16C; vec8.h lowers each primitive to an exact
///    per-lane fallback (fmaf, sqrtf, software fp16).
///
/// The backend is selected ONCE at startup from the `RATEL_SIMD`
/// environment knob (`auto` | `avx2` | `scalar`; default `auto` =
/// AVX2 when the host supports it; any other value fails a
/// RATEL_CHECK) and can be overridden explicitly with `SetMode` (tests,
/// the scalar-vs-SIMD bench A/B).
///
/// Determinism contract: every kernel is bitwise identical across
/// modes, run-to-run and at any RATEL_THREADS value, so a checkpoint
/// saved under one mode resumes bitwise under the other on the same
/// host. Both builds run the same operation sequence, every operation
/// is IEEE correctly rounded or has a fixed lane order, and all FMA is
/// explicit (-ffp-contract=off); the parallel layer above splits work on
/// chunk boundaries that never depend on the thread count. Across hosts
/// the results also depend on the libm functions the kernels call
/// (`expf` in the softmax row), which glibc may pick per CPU; that is
/// not tested.
///  - Elementwise kernels (add/scale/mul/diff_scale/accumulate, the
///    Adam family, the fp16 conversions) also match their serial
///    references bitwise (`CpuAdamKernel::StepSerialOut`,
///    common/fp16.h) for any split of a range into chunks, which lets
///    the deferred-update pipeline apply a tensor's chunks in any
///    grouping. (NaN inputs to the fp16 casts may get other NaN
///    payloads than the software converter; training never feeds them.)
///  - GEMM, layernorm and GeLU re-associate (fixed lane accumulators,
///    fused multiply-add, a polynomial tanh): they match a naive loop
///    within tight tolerance, which simd_test pins.
enum class Mode {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the host CPU can run the AVX2 backend (AVX2 + FMA + F16C,
/// i.e. any x86 core since Haswell) and the binary was built with it.
bool HostHasAvx2();

/// The active backend, resolved once from RATEL_SIMD (+ cpuid) on
/// first use. `RATEL_SIMD=avx2` on a host without AVX2 logs a warning
/// and falls back to scalar rather than faulting.
Mode ActiveMode();

/// Overrides the active backend. Returns false (and changes nothing)
/// if the requested mode cannot run on this host. Not thread-safe
/// against in-flight kernels — call between steps, like
/// SetComputeThreads.
bool SetMode(Mode mode);

/// "scalar" / "avx2".
const char* ModeName(Mode mode);

/// Precomputed per-step Adam scalars (bias correction folded into the
/// step size, decoupled weight decay premultiplied by lr). Derived
/// from AdamConfig + step by the optimizer; the kernels consume only
/// these floats so both backends round identically.
struct AdamCoeffs {
  float beta1 = 0.9f;
  float one_minus_beta1 = 0.1f;
  float beta2 = 0.999f;
  float one_minus_beta2 = 0.001f;
  float eps = 1e-8f;
  float lr = 1e-4f;
  float weight_decay = 0.0f;  // 0 disables the decay branch
  float step_size = 0.0f;     // lr / (1 - beta1^step)
  float inv_sqrt_bc2 = 1.0f;  // 1 / sqrt(1 - beta2^step)
};

/// One backend's kernel set. All pointers are non-null in both
/// backends; `n` counts elements unless noted. GEMM kernels
/// *accumulate* into `out` (row-major).
struct KernelTable {
  const char* name;

  /// out rows [i0, i1) of out(MxN) += a(MxK) * b(KxN).
  void (*gemm_nn_rows)(const float* a, const float* b, float* out, int64_t i0,
                       int64_t i1, int64_t k, int64_t n);
  /// out rows [p0, p1) of out(KxN) += a(MxK)^T * b(MxN); the reduction
  /// runs over i in [0, m) ascending.
  void (*gemm_tn_rows)(const float* a, const float* b, float* out, int64_t p0,
                       int64_t p1, int64_t m, int64_t k, int64_t n);

  // Elementwise (bitwise identical to a plain loop).
  void (*add)(const float* a, const float* b, float* out, int64_t n);
  void (*accumulate)(float* dst, const float* src, int64_t n);  // dst += src
  void (*scale)(const float* a, float s, float* out, int64_t n);
  void (*mul)(const float* a, const float* b, float* out, int64_t n);
  /// out = (a - b) * s  (the MSE backward).
  void (*diff_scale)(const float* a, const float* b, float s, float* out,
                     int64_t n);

  // GeLU (tanh form), evaluated through a polynomial exp — within
  // tolerance of std::tanh, bitwise across modes.
  void (*gelu_fwd)(const float* x, float* out, int64_t n);
  void (*gelu_bwd)(const float* x, const float* g, float* out, int64_t n);

  /// One layernorm row: writes `out`, returns mean / inv-std through
  /// the out-params (cached for backward).
  void (*layernorm_row_fwd)(const float* x, const float* gamma,
                            const float* beta, int64_t n, float eps,
                            float* out, float* mean_out, float* inv_std_out);
  /// One layernorm backward row: accumulates dgamma/dbeta (+=), writes
  /// dx when non-null.
  void (*layernorm_row_bwd)(const float* x, const float* g,
                            const float* gamma, float mean, float inv_std,
                            int64_t n, float* dgamma_acc, float* dbeta_acc,
                            float* dx);

  /// Numerically stable softmax of one row (max-shifted, double-
  /// precision denominator — the cross-entropy forward).
  void (*softmax_row)(const float* x, float* probs, int64_t n);
  /// out = (probs - onehot(target)) * g  (the cross-entropy backward).
  void (*ce_grad_row)(const float* probs, int64_t target, float g, float* out,
                      int64_t n);

  // fp16 <-> fp32 (bitwise identical to common/fp16.h for non-NaN
  // values; `scale` multiplies after widening — the gradient unscale).
  void (*halves_to_floats)(const Fp16* in, float* out, int64_t n, float scale);
  void (*floats_to_halves)(const float* in, Fp16* out, int64_t n);

  /// Fused Adam step over [0, n): fp32 grads. `_out` may alias `_in`;
  /// `p16_out` may be null. Bitwise identical to StepSerialOut.
  void (*adam_step_f32)(const AdamCoeffs& c, int64_t n, const float* g,
                        const float* p_in, const float* m_in,
                        const float* v_in, float* p_out, float* m_out,
                        float* v_out, Fp16* p16_out);
  /// Same with fp16 grads: the half->float widening (+ unscale) fuses
  /// into the update pass instead of staging through a scalar
  /// conversion buffer.
  void (*adam_step_f16)(const AdamCoeffs& c, int64_t n, const Fp16* g16,
                        float unscale, const float* p_in, const float* m_in,
                        const float* v_in, float* p_out, float* m_out,
                        float* v_out, Fp16* p16_out);
};

/// The active backend's kernels (resolves the mode on first use).
const KernelTable& Kernels();

/// A specific backend, for A/B validation; CHECK-fails for kAvx2 when
/// the host cannot run it (guard with HostHasAvx2).
const KernelTable& KernelsFor(Mode mode);

}  // namespace ratel::simd

#endif  // RATEL_SIMD_SIMD_H_
