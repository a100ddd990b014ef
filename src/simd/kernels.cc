// The kernel source behind both backend tables, built twice with
// -O3 -ffp-contract=off (src/simd/CMakeLists.txt): with -mavx2 -mfma
// -mf16c and RATEL_SIMD_AVX2_TABLE as the "avx2" table, and with no ISA
// flags as the portable "scalar" table. vec8.h lowers each primitive to
// an AVX2 instruction or to its exact per-lane fallback, and every FMA
// here is explicit, so both tables compute the same bits.
//
// Two families of kernels live here:
//  - Elementwise + Adam + fp16 conversion: the exact plain-loop
//    operation sequence per element (no FMA; padded tails run the same
//    instructions as full vectors), so results match the serial
//    references bitwise for any chunk grouping.
//  - GEMM / layernorm / GeLU: register-tiled FMA with fixed-tree lane
//    reductions — tolerance-validated against plain loops.

#include <algorithm>
#include <cmath>

#include "simd/simd.h"
#include "simd/vec8.h"

#if defined(RATEL_SIMD_AVX2_TABLE) && \
    !(defined(__AVX2__) && defined(__FMA__) && defined(__F16C__))
#error "the avx2 table must build with -mavx2 -mfma -mf16c"
#endif

namespace ratel::simd {
namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

// --------------------------------------------------------------------
// GEMM
// --------------------------------------------------------------------

// One output row of out(. x N) += sum_p a_val(p) * b(p, .), used for
// the <4-row tails of the NN kernel. `astride` walks the a values.
inline void GemmOneRow(const float* avals, int64_t astride, const float* b,
                       float* orow, int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    F32x8 acc0 = Load(orow + j);
    F32x8 acc1 = Load(orow + j + 8);
    for (int64_t p = 0; p < k; ++p) {
      const F32x8 va = Splat(avals[p * astride]);
      const float* brow = b + p * n + j;
      acc0 = Fma(va, Load(brow), acc0);
      acc1 = Fma(va, Load(brow + 8), acc1);
    }
    Store(orow + j, acc0);
    Store(orow + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    F32x8 acc = Load(orow + j);
    for (int64_t p = 0; p < k; ++p) {
      acc = Fma(Splat(avals[p * astride]), Load(b + p * n + j), acc);
    }
    Store(orow + j, acc);
  }
  if (j < n) {
    const int64_t r = n - j;
    F32x8 acc = LoadPartial(orow + j, r);
    for (int64_t p = 0; p < k; ++p) {
      acc = Fma(Splat(avals[p * astride]), LoadPartial(b + p * n + j, r), acc);
    }
    StorePartial(orow + j, acc, r);
  }
}

// out rows [i0, i1) of out(MxN) += a(MxK) * b(KxN). Register tile:
// 6 output rows x 16 columns (12 ymm accumulators + 2 b panels + 1
// broadcast — 15 of the 16 ymm registers, the classic Haswell FMA
// kernel shape), k innermost and ascending so the accumulation order
// is fixed. Row tails fall back to a 4-row block, then single rows.
void GemmNnRows(const float* a, const float* b, float* out, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    const float* a4 = a3 + k;
    const float* a5 = a4 + k;
    float* o0 = out + i * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    float* o4 = o3 + n;
    float* o5 = o4 + n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      F32x8 c00 = Load(o0 + j), c01 = Load(o0 + j + 8);
      F32x8 c10 = Load(o1 + j), c11 = Load(o1 + j + 8);
      F32x8 c20 = Load(o2 + j), c21 = Load(o2 + j + 8);
      F32x8 c30 = Load(o3 + j), c31 = Load(o3 + j + 8);
      F32x8 c40 = Load(o4 + j), c41 = Load(o4 + j + 8);
      F32x8 c50 = Load(o5 + j), c51 = Load(o5 + j + 8);
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const F32x8 b0 = Load(brow);
        const F32x8 b1 = Load(brow + 8);
        F32x8 v = Splat(a0[p]);
        c00 = Fma(v, b0, c00);
        c01 = Fma(v, b1, c01);
        v = Splat(a1[p]);
        c10 = Fma(v, b0, c10);
        c11 = Fma(v, b1, c11);
        v = Splat(a2[p]);
        c20 = Fma(v, b0, c20);
        c21 = Fma(v, b1, c21);
        v = Splat(a3[p]);
        c30 = Fma(v, b0, c30);
        c31 = Fma(v, b1, c31);
        v = Splat(a4[p]);
        c40 = Fma(v, b0, c40);
        c41 = Fma(v, b1, c41);
        v = Splat(a5[p]);
        c50 = Fma(v, b0, c50);
        c51 = Fma(v, b1, c51);
      }
      Store(o0 + j, c00);
      Store(o0 + j + 8, c01);
      Store(o1 + j, c10);
      Store(o1 + j + 8, c11);
      Store(o2 + j, c20);
      Store(o2 + j + 8, c21);
      Store(o3 + j, c30);
      Store(o3 + j + 8, c31);
      Store(o4 + j, c40);
      Store(o4 + j + 8, c41);
      Store(o5 + j, c50);
      Store(o5 + j + 8, c51);
    }
    for (; j + 8 <= n; j += 8) {
      F32x8 c0 = Load(o0 + j), c1 = Load(o1 + j), c2 = Load(o2 + j);
      F32x8 c3 = Load(o3 + j), c4 = Load(o4 + j), c5 = Load(o5 + j);
      for (int64_t p = 0; p < k; ++p) {
        const F32x8 bv = Load(b + p * n + j);
        c0 = Fma(Splat(a0[p]), bv, c0);
        c1 = Fma(Splat(a1[p]), bv, c1);
        c2 = Fma(Splat(a2[p]), bv, c2);
        c3 = Fma(Splat(a3[p]), bv, c3);
        c4 = Fma(Splat(a4[p]), bv, c4);
        c5 = Fma(Splat(a5[p]), bv, c5);
      }
      Store(o0 + j, c0);
      Store(o1 + j, c1);
      Store(o2 + j, c2);
      Store(o3 + j, c3);
      Store(o4 + j, c4);
      Store(o5 + j, c5);
    }
    if (j < n) {
      const int64_t r = n - j;
      F32x8 c0 = LoadPartial(o0 + j, r), c1 = LoadPartial(o1 + j, r);
      F32x8 c2 = LoadPartial(o2 + j, r), c3 = LoadPartial(o3 + j, r);
      F32x8 c4 = LoadPartial(o4 + j, r), c5 = LoadPartial(o5 + j, r);
      for (int64_t p = 0; p < k; ++p) {
        const F32x8 bv = LoadPartial(b + p * n + j, r);
        c0 = Fma(Splat(a0[p]), bv, c0);
        c1 = Fma(Splat(a1[p]), bv, c1);
        c2 = Fma(Splat(a2[p]), bv, c2);
        c3 = Fma(Splat(a3[p]), bv, c3);
        c4 = Fma(Splat(a4[p]), bv, c4);
        c5 = Fma(Splat(a5[p]), bv, c5);
      }
      StorePartial(o0 + j, c0, r);
      StorePartial(o1 + j, c1, r);
      StorePartial(o2 + j, c2, r);
      StorePartial(o3 + j, c3, r);
      StorePartial(o4 + j, c4, r);
      StorePartial(o5 + j, c5, r);
    }
  }
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* o0 = out + i * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      F32x8 c00 = Load(o0 + j), c01 = Load(o0 + j + 8);
      F32x8 c10 = Load(o1 + j), c11 = Load(o1 + j + 8);
      F32x8 c20 = Load(o2 + j), c21 = Load(o2 + j + 8);
      F32x8 c30 = Load(o3 + j), c31 = Load(o3 + j + 8);
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const F32x8 b0 = Load(brow);
        const F32x8 b1 = Load(brow + 8);
        const F32x8 v0 = Splat(a0[p]);
        c00 = Fma(v0, b0, c00);
        c01 = Fma(v0, b1, c01);
        const F32x8 v1 = Splat(a1[p]);
        c10 = Fma(v1, b0, c10);
        c11 = Fma(v1, b1, c11);
        const F32x8 v2 = Splat(a2[p]);
        c20 = Fma(v2, b0, c20);
        c21 = Fma(v2, b1, c21);
        const F32x8 v3 = Splat(a3[p]);
        c30 = Fma(v3, b0, c30);
        c31 = Fma(v3, b1, c31);
      }
      Store(o0 + j, c00);
      Store(o0 + j + 8, c01);
      Store(o1 + j, c10);
      Store(o1 + j + 8, c11);
      Store(o2 + j, c20);
      Store(o2 + j + 8, c21);
      Store(o3 + j, c30);
      Store(o3 + j + 8, c31);
    }
    for (; j + 8 <= n; j += 8) {
      F32x8 c0 = Load(o0 + j), c1 = Load(o1 + j);
      F32x8 c2 = Load(o2 + j), c3 = Load(o3 + j);
      for (int64_t p = 0; p < k; ++p) {
        const F32x8 bv = Load(b + p * n + j);
        c0 = Fma(Splat(a0[p]), bv, c0);
        c1 = Fma(Splat(a1[p]), bv, c1);
        c2 = Fma(Splat(a2[p]), bv, c2);
        c3 = Fma(Splat(a3[p]), bv, c3);
      }
      Store(o0 + j, c0);
      Store(o1 + j, c1);
      Store(o2 + j, c2);
      Store(o3 + j, c3);
    }
    if (j < n) {
      const int64_t r = n - j;
      F32x8 c0 = LoadPartial(o0 + j, r), c1 = LoadPartial(o1 + j, r);
      F32x8 c2 = LoadPartial(o2 + j, r), c3 = LoadPartial(o3 + j, r);
      for (int64_t p = 0; p < k; ++p) {
        const F32x8 bv = LoadPartial(b + p * n + j, r);
        c0 = Fma(Splat(a0[p]), bv, c0);
        c1 = Fma(Splat(a1[p]), bv, c1);
        c2 = Fma(Splat(a2[p]), bv, c2);
        c3 = Fma(Splat(a3[p]), bv, c3);
      }
      StorePartial(o0 + j, c0, r);
      StorePartial(o1 + j, c1, r);
      StorePartial(o2 + j, c2, r);
      StorePartial(o3 + j, c3, r);
    }
  }
  for (; i < i1; ++i) {
    GemmOneRow(a + i * k, 1, b, out + i * n, k, n);
  }
}

// out rows [p0, p1) of out(KxN) += a(MxK)^T * b(MxN); the reduction
// runs over i ascending. Register tile: 6 output (p) rows x 16
// columns, sharing each loaded b row across the six broadcasts; tails
// fall back to a 4-row block, then single rows.
void GemmTnRows(const float* a, const float* b, float* out, int64_t p0,
                int64_t p1, int64_t m, int64_t k, int64_t n) {
  int64_t p = p0;
  for (; p + 6 <= p1; p += 6) {
    float* o0 = out + p * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    float* o4 = o3 + n;
    float* o5 = o4 + n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      F32x8 c00 = Load(o0 + j), c01 = Load(o0 + j + 8);
      F32x8 c10 = Load(o1 + j), c11 = Load(o1 + j + 8);
      F32x8 c20 = Load(o2 + j), c21 = Load(o2 + j + 8);
      F32x8 c30 = Load(o3 + j), c31 = Load(o3 + j + 8);
      F32x8 c40 = Load(o4 + j), c41 = Load(o4 + j + 8);
      F32x8 c50 = Load(o5 + j), c51 = Load(o5 + j + 8);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const float* brow = b + i * n + j;
        const F32x8 b0 = Load(brow);
        const F32x8 b1 = Load(brow + 8);
        F32x8 v = Splat(ai[0]);
        c00 = Fma(v, b0, c00);
        c01 = Fma(v, b1, c01);
        v = Splat(ai[1]);
        c10 = Fma(v, b0, c10);
        c11 = Fma(v, b1, c11);
        v = Splat(ai[2]);
        c20 = Fma(v, b0, c20);
        c21 = Fma(v, b1, c21);
        v = Splat(ai[3]);
        c30 = Fma(v, b0, c30);
        c31 = Fma(v, b1, c31);
        v = Splat(ai[4]);
        c40 = Fma(v, b0, c40);
        c41 = Fma(v, b1, c41);
        v = Splat(ai[5]);
        c50 = Fma(v, b0, c50);
        c51 = Fma(v, b1, c51);
      }
      Store(o0 + j, c00);
      Store(o0 + j + 8, c01);
      Store(o1 + j, c10);
      Store(o1 + j + 8, c11);
      Store(o2 + j, c20);
      Store(o2 + j + 8, c21);
      Store(o3 + j, c30);
      Store(o3 + j + 8, c31);
      Store(o4 + j, c40);
      Store(o4 + j + 8, c41);
      Store(o5 + j, c50);
      Store(o5 + j + 8, c51);
    }
    for (; j + 8 <= n; j += 8) {
      F32x8 c0 = Load(o0 + j), c1 = Load(o1 + j), c2 = Load(o2 + j);
      F32x8 c3 = Load(o3 + j), c4 = Load(o4 + j), c5 = Load(o5 + j);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const F32x8 bv = Load(b + i * n + j);
        c0 = Fma(Splat(ai[0]), bv, c0);
        c1 = Fma(Splat(ai[1]), bv, c1);
        c2 = Fma(Splat(ai[2]), bv, c2);
        c3 = Fma(Splat(ai[3]), bv, c3);
        c4 = Fma(Splat(ai[4]), bv, c4);
        c5 = Fma(Splat(ai[5]), bv, c5);
      }
      Store(o0 + j, c0);
      Store(o1 + j, c1);
      Store(o2 + j, c2);
      Store(o3 + j, c3);
      Store(o4 + j, c4);
      Store(o5 + j, c5);
    }
    if (j < n) {
      const int64_t r = n - j;
      F32x8 c0 = LoadPartial(o0 + j, r), c1 = LoadPartial(o1 + j, r);
      F32x8 c2 = LoadPartial(o2 + j, r), c3 = LoadPartial(o3 + j, r);
      F32x8 c4 = LoadPartial(o4 + j, r), c5 = LoadPartial(o5 + j, r);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const F32x8 bv = LoadPartial(b + i * n + j, r);
        c0 = Fma(Splat(ai[0]), bv, c0);
        c1 = Fma(Splat(ai[1]), bv, c1);
        c2 = Fma(Splat(ai[2]), bv, c2);
        c3 = Fma(Splat(ai[3]), bv, c3);
        c4 = Fma(Splat(ai[4]), bv, c4);
        c5 = Fma(Splat(ai[5]), bv, c5);
      }
      StorePartial(o0 + j, c0, r);
      StorePartial(o1 + j, c1, r);
      StorePartial(o2 + j, c2, r);
      StorePartial(o3 + j, c3, r);
      StorePartial(o4 + j, c4, r);
      StorePartial(o5 + j, c5, r);
    }
  }
  for (; p + 4 <= p1; p += 4) {
    float* o0 = out + p * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      F32x8 c00 = Load(o0 + j), c01 = Load(o0 + j + 8);
      F32x8 c10 = Load(o1 + j), c11 = Load(o1 + j + 8);
      F32x8 c20 = Load(o2 + j), c21 = Load(o2 + j + 8);
      F32x8 c30 = Load(o3 + j), c31 = Load(o3 + j + 8);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const float* brow = b + i * n + j;
        const F32x8 b0 = Load(brow);
        const F32x8 b1 = Load(brow + 8);
        const F32x8 v0 = Splat(ai[0]);
        c00 = Fma(v0, b0, c00);
        c01 = Fma(v0, b1, c01);
        const F32x8 v1 = Splat(ai[1]);
        c10 = Fma(v1, b0, c10);
        c11 = Fma(v1, b1, c11);
        const F32x8 v2 = Splat(ai[2]);
        c20 = Fma(v2, b0, c20);
        c21 = Fma(v2, b1, c21);
        const F32x8 v3 = Splat(ai[3]);
        c30 = Fma(v3, b0, c30);
        c31 = Fma(v3, b1, c31);
      }
      Store(o0 + j, c00);
      Store(o0 + j + 8, c01);
      Store(o1 + j, c10);
      Store(o1 + j + 8, c11);
      Store(o2 + j, c20);
      Store(o2 + j + 8, c21);
      Store(o3 + j, c30);
      Store(o3 + j + 8, c31);
    }
    for (; j + 8 <= n; j += 8) {
      F32x8 c0 = Load(o0 + j), c1 = Load(o1 + j);
      F32x8 c2 = Load(o2 + j), c3 = Load(o3 + j);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const F32x8 bv = Load(b + i * n + j);
        c0 = Fma(Splat(ai[0]), bv, c0);
        c1 = Fma(Splat(ai[1]), bv, c1);
        c2 = Fma(Splat(ai[2]), bv, c2);
        c3 = Fma(Splat(ai[3]), bv, c3);
      }
      Store(o0 + j, c0);
      Store(o1 + j, c1);
      Store(o2 + j, c2);
      Store(o3 + j, c3);
    }
    if (j < n) {
      const int64_t r = n - j;
      F32x8 c0 = LoadPartial(o0 + j, r), c1 = LoadPartial(o1 + j, r);
      F32x8 c2 = LoadPartial(o2 + j, r), c3 = LoadPartial(o3 + j, r);
      for (int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * k + p;
        const F32x8 bv = LoadPartial(b + i * n + j, r);
        c0 = Fma(Splat(ai[0]), bv, c0);
        c1 = Fma(Splat(ai[1]), bv, c1);
        c2 = Fma(Splat(ai[2]), bv, c2);
        c3 = Fma(Splat(ai[3]), bv, c3);
      }
      StorePartial(o0 + j, c0, r);
      StorePartial(o1 + j, c1, r);
      StorePartial(o2 + j, c2, r);
      StorePartial(o3 + j, c3, r);
    }
  }
  for (; p < p1; ++p) {
    // Column p of a, stride k; accumulating over i into out row p.
    GemmOneRow(a + p, k, b, out + p * n, m, n);
  }
}

// --------------------------------------------------------------------
// Elementwise (bitwise identical to a plain loop: single correctly-rounded
// op per element, padded tails).
// --------------------------------------------------------------------

void Add(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(out + i, Load(a + i) + Load(b + i));
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, LoadPartial(a + i, r) + LoadPartial(b + i, r), r);
  }
}

void Accumulate(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(dst + i, Load(dst + i) + Load(src + i));
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(dst + i, LoadPartial(dst + i, r) + LoadPartial(src + i, r),
                 r);
  }
}

void Scale(const float* a, float s, float* out, int64_t n) {
  const F32x8 vs = Splat(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(out + i, Load(a + i) * vs);
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, LoadPartial(a + i, r) * vs, r);
  }
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(out + i, Load(a + i) * Load(b + i));
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, LoadPartial(a + i, r) * LoadPartial(b + i, r), r);
  }
}

void DiffScale(const float* a, const float* b, float s, float* out,
               int64_t n) {
  const F32x8 vs = Splat(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store(out + i, (Load(a + i) - Load(b + i)) * vs);
  }
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, (LoadPartial(a + i, r) - LoadPartial(b + i, r)) * vs,
                 r);
  }
}

// --------------------------------------------------------------------
// GeLU (tanh form) — vector polynomial tanh, tolerance vs std::tanh.
// --------------------------------------------------------------------

inline F32x8 GeluFwd8(F32x8 v) {
  const F32x8 u = Splat(kGeluC) * Fma(Splat(0.044715f) * v, v * v, v);
  const F32x8 t = Tanh(u);
  return Splat(0.5f) * v * (Splat(1.0f) + t);
}

void GeluFwd(const float* x, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(out + i, GeluFwd8(Load(x + i)));
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, GeluFwd8(LoadPartial(x + i, r)), r);
  }
}

inline F32x8 GeluBwd8(F32x8 v, F32x8 g) {
  const F32x8 u = Splat(kGeluC) * Fma(Splat(0.044715f) * v, v * v, v);
  const F32x8 t = Tanh(u);
  const F32x8 du =
      Splat(kGeluC) * Fma(Splat(3.0f * 0.044715f), v * v, Splat(1.0f));
  const F32x8 half = Splat(0.5f);
  const F32x8 d = Fma(half * v, (Splat(1.0f) - t * t) * du,
                      half * (Splat(1.0f) + t));
  return g * d;
}

void GeluBwd(const float* x, const float* g, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store(out + i, GeluBwd8(Load(x + i), Load(g + i)));
  }
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i,
                 GeluBwd8(LoadPartial(x + i, r), LoadPartial(g + i, r)), r);
  }
}

// --------------------------------------------------------------------
// LayerNorm rows — 8-lane accumulators + fixed-tree HSum, tolerance
// vs a two-pass loop (lane order is data-independent).
// --------------------------------------------------------------------

void LayerNormRowFwd(const float* x, const float* gamma, const float* beta,
                     int64_t n, float eps, float* out, float* mean_out,
                     float* inv_std_out) {
  F32x8 acc = Splat(0.0f);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) acc = acc + Load(x + j);
  if (j < n) acc = acc + LoadPartial(x + j, n - j);  // pad 0: no-op lanes
  const float mean = HSum(acc) / n;

  const F32x8 vmean = Splat(mean);
  F32x8 vacc = Splat(0.0f);
  for (j = 0; j + 8 <= n; j += 8) {
    const F32x8 d = Load(x + j) - vmean;
    vacc = Fma(d, d, vacc);
  }
  if (j < n) {
    // Pad with mean so tail lanes contribute d = 0.
    const F32x8 d = LoadPartial(x + j, n - j, mean) - vmean;
    vacc = Fma(d, d, vacc);
  }
  const float var = HSum(vacc) / n;
  const float inv_std = 1.0f / std::sqrt(var + eps);
  *mean_out = mean;
  *inv_std_out = inv_std;

  const F32x8 vistd = Splat(inv_std);
  for (j = 0; j + 8 <= n; j += 8) {
    const F32x8 xhat = (Load(x + j) - vmean) * vistd;
    Store(out + j, Fma(xhat, Load(gamma + j), Load(beta + j)));
  }
  if (j < n) {
    const int64_t r = n - j;
    const F32x8 xhat = (LoadPartial(x + j, r) - vmean) * vistd;
    StorePartial(out + j,
                 Fma(xhat, LoadPartial(gamma + j, r), LoadPartial(beta + j, r)),
                 r);
  }
}

void LayerNormRowBwd(const float* x, const float* g, const float* gamma,
                     float mean, float inv_std, int64_t n, float* dgamma_acc,
                     float* dbeta_acc, float* dx) {
  const F32x8 vmean = Splat(mean);
  const F32x8 vistd = Splat(inv_std);
  F32x8 acc_dyx = Splat(0.0f);
  F32x8 acc_dy = Splat(0.0f);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const F32x8 gv = Load(g + j);
    const F32x8 xhat = (Load(x + j) - vmean) * vistd;
    const F32x8 dy = gv * Load(gamma + j);
    acc_dyx = Fma(dy, xhat, acc_dyx);
    acc_dy = acc_dy + dy;
    Store(dgamma_acc + j, Fma(gv, xhat, Load(dgamma_acc + j)));
    Store(dbeta_acc + j, Load(dbeta_acc + j) + gv);
  }
  if (j < n) {
    const int64_t r = n - j;
    const F32x8 gv = LoadPartial(g + j, r);  // pad 0 zeroes every term
    const F32x8 xhat = (LoadPartial(x + j, r, mean) - vmean) * vistd;
    const F32x8 dy = gv * LoadPartial(gamma + j, r);
    acc_dyx = Fma(dy, xhat, acc_dyx);
    acc_dy = acc_dy + dy;
    StorePartial(dgamma_acc + j,
                 Fma(gv, xhat, LoadPartial(dgamma_acc + j, r)), r);
    StorePartial(dbeta_acc + j, LoadPartial(dbeta_acc + j, r) + gv, r);
  }
  if (dx == nullptr) return;
  const float sum_dy_xhat = HSum(acc_dyx);
  const float sum_dy = HSum(acc_dy);
  const F32x8 c1 = Splat(sum_dy / n);
  const F32x8 c2 = Splat(sum_dy_xhat / n);
  for (j = 0; j + 8 <= n; j += 8) {
    const F32x8 xhat = (Load(x + j) - vmean) * vistd;
    const F32x8 dy = Load(g + j) * Load(gamma + j);
    Store(dx + j, vistd * (dy - c1 - xhat * c2));
  }
  if (j < n) {
    const int64_t r = n - j;
    const F32x8 xhat = (LoadPartial(x + j, r, mean) - vmean) * vistd;
    const F32x8 dy = LoadPartial(g + j, r) * LoadPartial(gamma + j, r);
    StorePartial(dx + j, vistd * (dy - c1 - xhat * c2), r);
  }
}

// --------------------------------------------------------------------
// Softmax / cross-entropy rows. The vector parts (max, final divide,
// p*g) are exact, and the exp + double-denominator pass stays a plain
// loop, so these match a plain-loop softmax bitwise.
// --------------------------------------------------------------------

void SoftmaxRow(const float* x, float* probs, int64_t n) {
  F32x8 vmax = Splat(x[0]);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) vmax = Max(vmax, Load(x + j));
  if (j < n) vmax = Max(vmax, LoadPartial(x + j, n - j, x[0]));
  const float maxv = HMax(vmax);
  double denom = 0.0;
  for (j = 0; j < n; ++j) {
    const float e = std::exp(x[j] - maxv);
    probs[j] = e;
    denom += e;
  }
  const F32x8 vd = Splat(static_cast<float>(denom));
  for (j = 0; j + 8 <= n; j += 8) Store(probs + j, Load(probs + j) / vd);
  if (j < n) {
    const int64_t r = n - j;
    StorePartial(probs + j, LoadPartial(probs + j, r, 1.0f) / vd, r);
  }
}

void CeGradRow(const float* probs, int64_t target, float g, float* out,
               int64_t n) {
  const F32x8 vg = Splat(g);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) Store(out + j, Load(probs + j) * vg);
  if (j < n) {
    const int64_t r = n - j;
    StorePartial(out + j, LoadPartial(probs + j, r) * vg, r);
  }
  if (target >= 0 && target < n) {
    out[target] = (probs[target] - 1.0f) * g;
  }
}

// --------------------------------------------------------------------
// fp16 <-> fp32 (exact conversions; bitwise vs common/fp16.h for
// non-NaN values).
// --------------------------------------------------------------------

void HalvesToFloats(const Fp16* in, float* out, int64_t n, float scale) {
  const F32x8 vs = Splat(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Store(out + i, WidenHalves(in + i) * vs);
  if (i < n) {
    const int64_t r = n - i;
    StorePartial(out + i, WidenHalvesPartial(in + i, r) * vs, r);
  }
}

void FloatsToHalves(const float* in, Fp16* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) NarrowHalves(Load(in + i), out + i);
  if (i < n) {
    const int64_t r = n - i;
    NarrowHalvesPartial(LoadPartial(in + i, r), out + i, r);
  }
}

// --------------------------------------------------------------------
// Adam. Exact scalar operation sequence per element — two-mul+add
// moment updates (NOT fused), left-associated products — so the
// result is bitwise identical to StepSerialOut for any chunking.
// --------------------------------------------------------------------

struct AdamVecCoeffs {
  F32x8 beta1, omb1, beta2, omb2, eps, lrwd, step, ibc2;
  bool decay;
};

inline AdamVecCoeffs SplatCoeffs(const AdamCoeffs& c) {
  AdamVecCoeffs v;
  v.beta1 = Splat(c.beta1);
  v.omb1 = Splat(c.one_minus_beta1);
  v.beta2 = Splat(c.beta2);
  v.omb2 = Splat(c.one_minus_beta2);
  v.eps = Splat(c.eps);
  v.lrwd = Splat(c.lr * c.weight_decay);  // same single rounding as serial
  v.step = Splat(c.step_size);
  v.ibc2 = Splat(c.inv_sqrt_bc2);
  v.decay = c.weight_decay != 0.0f;
  return v;
}

// One 8-lane Adam step; mirrors StepSerialOut line for line.
inline F32x8 AdamLanes(const AdamVecCoeffs& c, F32x8 g, F32x8 p, F32x8& m,
                       F32x8& v) {
  m = c.beta1 * m + c.omb1 * g;
  v = c.beta2 * v + (c.omb2 * g) * g;
  if (c.decay) p = p - c.lrwd * p;
  const F32x8 denom = Sqrt(v) * c.ibc2 + c.eps;
  return p - (c.step * m) / denom;
}

void AdamStepF32(const AdamCoeffs& c, int64_t n, const float* g,
                 const float* p_in, const float* m_in, const float* v_in,
                 float* p_out, float* m_out, float* v_out, Fp16* p16_out) {
  const AdamVecCoeffs vc = SplatCoeffs(c);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F32x8 m = Load(m_in + i);
    F32x8 v = Load(v_in + i);
    const F32x8 p = AdamLanes(vc, Load(g + i), Load(p_in + i), m, v);
    Store(m_out + i, m);
    Store(v_out + i, v);
    Store(p_out + i, p);
    if (p16_out != nullptr) NarrowHalves(p, p16_out + i);
  }
  if (i < n) {
    const int64_t r = n - i;
    F32x8 m = LoadPartial(m_in + i, r);
    F32x8 v = LoadPartial(v_in + i, r);
    const F32x8 p =
        AdamLanes(vc, LoadPartial(g + i, r), LoadPartial(p_in + i, r), m, v);
    StorePartial(m_out + i, m, r);
    StorePartial(v_out + i, v, r);
    StorePartial(p_out + i, p, r);
    if (p16_out != nullptr) NarrowHalvesPartial(p, p16_out + i, r);
  }
}

void AdamStepF16(const AdamCoeffs& c, int64_t n, const Fp16* g16,
                 float unscale, const float* p_in, const float* m_in,
                 const float* v_in, float* p_out, float* m_out, float* v_out,
                 Fp16* p16_out) {
  const AdamVecCoeffs vc = SplatCoeffs(c);
  const F32x8 vu = Splat(unscale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const F32x8 g = WidenHalves(g16 + i) * vu;
    F32x8 m = Load(m_in + i);
    F32x8 v = Load(v_in + i);
    const F32x8 p = AdamLanes(vc, g, Load(p_in + i), m, v);
    Store(m_out + i, m);
    Store(v_out + i, v);
    Store(p_out + i, p);
    if (p16_out != nullptr) NarrowHalves(p, p16_out + i);
  }
  if (i < n) {
    const int64_t r = n - i;
    const F32x8 g = WidenHalvesPartial(g16 + i, r) * vu;
    F32x8 m = LoadPartial(m_in + i, r);
    F32x8 v = LoadPartial(v_in + i, r);
    const F32x8 p = AdamLanes(vc, g, LoadPartial(p_in + i, r), m, v);
    StorePartial(m_out + i, m, r);
    StorePartial(v_out + i, v, r);
    StorePartial(p_out + i, p, r);
    if (p16_out != nullptr) NarrowHalvesPartial(p, p16_out + i, r);
  }
}

}  // namespace

#if defined(RATEL_SIMD_AVX2_TABLE)
const KernelTable* Avx2Kernels() {
  static const KernelTable table = {
      "avx2",
#else
const KernelTable* ScalarKernels() {
  static const KernelTable table = {
      "scalar",
#endif
      GemmNnRows,    GemmTnRows,      Add,            Accumulate,
      Scale,         Mul,             DiffScale,      GeluFwd,
      GeluBwd,       LayerNormRowFwd, LayerNormRowBwd, SoftmaxRow,
      CeGradRow,     HalvesToFloats,  FloatsToHalves, AdamStepF32,
      AdamStepF16,
  };
  return &table;
}

}  // namespace ratel::simd
