#ifndef RATEL_SIMD_VEC8_H_
#define RATEL_SIMD_VEC8_H_

// Portable 8-wide float primitives for the SIMD kernels, built on the
// GCC/Clang vector-extension types. kernels.cc includes this header in
// both of its builds; the instruction set it lowers to is chosen by
// that build's flags (the avx2 table builds with -mavx2 -mfma -mf16c,
// so these become real vfmadd/vsqrtps/vcvtph2ps; the portable scalar
// table gets exact-result fallbacks). Every operation here is either
// IEEE correctly rounded (add/mul/div/sqrt/fma) or has a fixed lane
// order (horizontal reductions), so a kernel written against this
// header is a pure function of its inputs and computes the same bits
// in both builds — the cross-mode bitwise contract rests on that.
//
// TUs including this header must compile with -ffp-contract=off: all
// fused multiply-adds must be *explicit* (Fma below), never an
// optimizer's choice, or the bitwise-across-builds guarantee breaks.
//
// Everything here has internal linkage: the two builds compile these
// inline functions under different ISA flags, and the linker must never
// merge one build's out-of-line copy into the other.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "common/fp16.h"

namespace ratel::simd {
namespace {

typedef float F32x8 __attribute__((vector_size(32)));
typedef int32_t I32x8 __attribute__((vector_size(32)));

inline F32x8 Splat(float s) { return F32x8{s, s, s, s, s, s, s, s}; }

inline F32x8 Load(const float* p) {
  F32x8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store(float* p, F32x8 v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads `n` (< 8) leading lanes, filling the rest with `pad`. Tail
/// lanes run through the same instructions as full vectors, so an
/// element's result never depends on where a chunk boundary fell.
inline F32x8 LoadPartial(const float* p, int64_t n, float pad = 0.0f) {
  float tmp[8] = {pad, pad, pad, pad, pad, pad, pad, pad};
  std::memcpy(tmp, p, static_cast<size_t>(n) * sizeof(float));
  return Load(tmp);
}

inline void StorePartial(float* p, F32x8 v, int64_t n) {
  float tmp[8];
  Store(tmp, v);
  std::memcpy(p, tmp, static_cast<size_t>(n) * sizeof(float));
}

/// a * b + c with a single rounding. Explicitly fused — the portable
/// fallback uses fmaf so every build rounds identically.
inline F32x8 Fma(F32x8 a, F32x8 b, F32x8 c) {
#if defined(__FMA__)
  return reinterpret_cast<F32x8>(_mm256_fmadd_ps(
      reinterpret_cast<__m256>(a), reinterpret_cast<__m256>(b),
      reinterpret_cast<__m256>(c)));
#else
  F32x8 r;
  for (int i = 0; i < 8; ++i) r[i] = std::fmaf(a[i], b[i], c[i]);
  return r;
#endif
}

/// IEEE correctly-rounded lane sqrt (identical to scalar sqrtf).
inline F32x8 Sqrt(F32x8 v) {
#if defined(__AVX__)
  return reinterpret_cast<F32x8>(
      _mm256_sqrt_ps(reinterpret_cast<__m256>(v)));
#else
  F32x8 r;
  for (int i = 0; i < 8; ++i) r[i] = std::sqrt(v[i]);
  return r;
#endif
}

inline F32x8 Max(F32x8 a, F32x8 b) {
#if defined(__AVX__)
  return reinterpret_cast<F32x8>(_mm256_max_ps(
      reinterpret_cast<__m256>(a), reinterpret_cast<__m256>(b)));
#else
  F32x8 r;
  for (int i = 0; i < 8; ++i) r[i] = a[i] > b[i] ? a[i] : b[i];
  return r;
#endif
}

inline F32x8 Min(F32x8 a, F32x8 b) {
#if defined(__AVX__)
  return reinterpret_cast<F32x8>(_mm256_min_ps(
      reinterpret_cast<__m256>(a), reinterpret_cast<__m256>(b)));
#else
  F32x8 r;
  for (int i = 0; i < 8; ++i) r[i] = a[i] < b[i] ? a[i] : b[i];
  return r;
#endif
}

/// Horizontal sum in a FIXED tree order — part of the determinism
/// contract for row reductions: ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)).
inline float HSum(F32x8 v) {
  return ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]));
}

inline float HMax(F32x8 v) {
  float m = v[0];
  for (int i = 1; i < 8; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

/// Widens 8 fp16 values (exact; equals HalfToFloat lane-for-lane).
inline F32x8 WidenHalves(const Fp16* p) {
#if defined(__F16C__)
  __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return reinterpret_cast<F32x8>(_mm256_cvtph_ps(h));
#else
  F32x8 r;
  for (int i = 0; i < 8; ++i) r[i] = HalfToFloat(p[i]);
  return r;
#endif
}

inline F32x8 WidenHalvesPartial(const Fp16* p, int64_t n) {
  Fp16 tmp[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(tmp, p, static_cast<size_t>(n) * sizeof(Fp16));
  return WidenHalves(tmp);
}

/// Narrows to fp16 with round-to-nearest-even; identical to
/// FloatToHalf for every non-NaN input (NaNs keep different payloads).
inline void NarrowHalves(F32x8 v, Fp16* out) {
#if defined(__F16C__)
  __m128i h = _mm256_cvtps_ph(reinterpret_cast<__m256>(v),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), h);
#else
  for (int i = 0; i < 8; ++i) out[i] = FloatToHalf(v[i]);
#endif
}

inline void NarrowHalvesPartial(F32x8 v, Fp16* out, int64_t n) {
  Fp16 tmp[8];
  NarrowHalves(v, tmp);
  std::memcpy(out, tmp, static_cast<size_t>(n) * sizeof(Fp16));
}

inline I32x8 Splat8i(int32_t s) { return I32x8{s, s, s, s, s, s, s, s}; }

/// Lane select: mask lanes (all-ones int) take `a`, zero lanes `b`.
inline F32x8 Select(I32x8 mask, F32x8 a, F32x8 b) {
  const I32x8 ai = std::bit_cast<I32x8>(a);
  const I32x8 bi = std::bit_cast<I32x8>(b);
  return std::bit_cast<F32x8>((mask & ai) | (~mask & bi));
}

/// 8-wide expf: cephes-style base-2 range reduction with a degree-5
/// polynomial; ~1 ulp relative error over the clamped domain. Used by
/// the GeLU (tanh form), which is tolerance-validated against std::tanh.
inline F32x8 Exp(F32x8 x) {
  const F32x8 kLog2E = Splat(1.44269504088896341f);
  const F32x8 kLn2Hi = Splat(0.693359375f);
  const F32x8 kLn2Lo = Splat(-2.12194440e-4f);
  x = Min(x, Splat(88.3762626647949f));
  x = Max(x, Splat(-87.3365478515625f));
  // k = round(x * log2e), as floor(x * log2e + 0.5).
  F32x8 t = Fma(x, kLog2E, Splat(0.5f));
  I32x8 ki = __builtin_convertvector(t, I32x8);  // truncate toward zero
  F32x8 kf = __builtin_convertvector(ki, F32x8);
  const I32x8 gt = std::bit_cast<I32x8>(kf > t);  // needs floor: fix negatives
  kf = Select(gt, kf - Splat(1.0f), kf);
  ki = __builtin_convertvector(kf, I32x8);
  // r = x - k * ln2 (two-part ln2 keeps r accurate).
  F32x8 r = Fma(kf, -kLn2Hi, x);
  r = Fma(kf, -kLn2Lo, r);
  // exp(r) ~= 1 + r + r^2 * P(r).
  F32x8 p = Splat(1.9875691500e-4f);
  p = Fma(p, r, Splat(1.3981999507e-3f));
  p = Fma(p, r, Splat(8.3334519073e-3f));
  p = Fma(p, r, Splat(4.1665795894e-2f));
  p = Fma(p, r, Splat(1.6666665459e-1f));
  p = Fma(p, r, Splat(5.0000001201e-1f));
  F32x8 y = Fma(p, r * r, r + Splat(1.0f));
  // y *= 2^k via exponent-bit arithmetic.
  const I32x8 pow2 = (ki + Splat8i(127)) << 23;
  return y * std::bit_cast<F32x8>(pow2);
}

/// 8-wide tanh via exp: tanh(x) = (e^{2x} - 1) / (e^{2x} + 1), inputs
/// clamped to +/-9.01 where tanh saturates in float anyway.
inline F32x8 Tanh(F32x8 x) {
  x = Min(Max(x, Splat(-9.01f)), Splat(9.01f));
  const F32x8 e = Exp(x + x);
  return (e - Splat(1.0f)) / (e + Splat(1.0f));
}

}  // namespace
}  // namespace ratel::simd

#endif  // RATEL_SIMD_VEC8_H_
