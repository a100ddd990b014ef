// SIMD compute-layer suite (ctest labels: determinism simd).
//
// Pins the src/simd contract from both sides:
//  - every kernel is bitwise identical across the two builds of the one
//    kernel source (avx2 == scalar), and each is still checked against
//    an independent plain-loop reference: bitwise for the kernels that
//    keep the plain-loop operation order (elementwise, fp16 conversion,
//    softmax/ce rows, the fused Adam steps), within tight tolerance for
//    the ones that re-associate (GEMM, layernorm, GeLU's polynomial
//    tanh);
//  - whole-model training is bitwise identical across 1/2/4 compute
//    threads in each RATEL_SIMD mode (run oversubscribed so the sweep
//    exercises genuine interleaving even on a 1-core host), and across
//    the two modes;
//  - the adaptive dispatch cutoffs flip between inline and pooled
//    execution exactly at the documented boundary, without affecting
//    results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "autograd/transformer.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "optim/cpu_adam.h"
#include "runtime/compute_pool.h"
#include "runtime/dataset.h"
#include "simd/simd.h"

namespace ratel {
namespace {

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextGaussian()) * 0.5f;
  }
  return v;
}

std::vector<Fp16> RandomHalves(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Fp16> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()));
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectClose(const std::vector<float>& ref, const std::vector<float>& got,
                 float rtol, float atol, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const float tol = atol + rtol * std::abs(ref[i]);
    EXPECT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

// The modes this host can run: scalar always, avx2 when supported.
std::vector<simd::Mode> AvailableModes() {
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::HostHasAvx2()) modes.push_back(simd::Mode::kAvx2);
  return modes;
}

// ---------------------------------------------------------------------
// Plain-loop references, independent of src/simd, in double precision.

// out(MxN) += a(MxK) * b(KxN).
void NaiveGemmNn(const std::vector<float>& a, const std::vector<float>& b,
                 std::vector<float>& out, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      out[i * n + j] = static_cast<float>(out[i * n + j] + acc);
    }
  }
}

// out(KxN) += a(MxK)^T * b(MxN).
void NaiveGemmTn(const std::vector<float>& a, const std::vector<float>& b,
                 std::vector<float>& out, int64_t m, int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t i = 0; i < m; ++i) {
        acc += static_cast<double>(a[i * k + p]) * b[i * n + j];
      }
      out[p * n + j] = static_cast<float>(out[p * n + j] + acc);
    }
  }
}

constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

// GeLU, tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).
float NaiveGeluFwd(float x) {
  const double xd = x;
  return static_cast<float>(
      0.5 * xd * (1.0 + std::tanh(kGeluC * (xd + 0.044715 * xd * xd * xd))));
}

float NaiveGeluBwd(float x, float g) {
  const double xd = x;
  const double t = std::tanh(kGeluC * (xd + 0.044715 * xd * xd * xd));
  const double du = kGeluC * (1.0 + 3.0 * 0.044715 * xd * xd);
  return static_cast<float>(
      g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du));
}

// Two-pass layernorm of one row, forward and backward.
struct NaiveLayerNorm {
  double mean = 0.0;
  double inv_std = 0.0;
  std::vector<float> out, dgamma, dbeta, dx;
};

NaiveLayerNorm NaiveLayerNormRow(const std::vector<float>& x,
                                 const std::vector<float>& gamma,
                                 const std::vector<float>& beta,
                                 const std::vector<float>& g,
                                 const std::vector<float>& dgamma0,
                                 const std::vector<float>& dbeta0, float eps) {
  const size_t n = x.size();
  NaiveLayerNorm r;
  for (float v : x) r.mean += v;
  r.mean /= n;
  double var = 0.0;
  for (float v : x) var += (v - r.mean) * (v - r.mean);
  var /= n;
  r.inv_std = 1.0 / std::sqrt(var + eps);
  std::vector<double> xhat(n), dy(n);
  double sum_dy = 0.0, sum_dy_xhat = 0.0;
  for (size_t j = 0; j < n; ++j) {
    xhat[j] = (x[j] - r.mean) * r.inv_std;
    dy[j] = static_cast<double>(g[j]) * gamma[j];
    sum_dy += dy[j];
    sum_dy_xhat += dy[j] * xhat[j];
  }
  r.out.resize(n);
  r.dgamma.resize(n);
  r.dbeta.resize(n);
  r.dx.resize(n);
  for (size_t j = 0; j < n; ++j) {
    r.out[j] = static_cast<float>(xhat[j] * gamma[j] + beta[j]);
    r.dgamma[j] = static_cast<float>(dgamma0[j] + g[j] * xhat[j]);
    r.dbeta[j] = static_cast<float>(dbeta0[j] + g[j]);
    r.dx[j] = static_cast<float>(
        r.inv_std * (dy[j] - sum_dy / n - xhat[j] * sum_dy_xhat / n));
  }
  return r;
}

// Saves and restores every piece of process-global kernel state the
// tests poke, so one test cannot leak its configuration into the next.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mode_ = simd::ActiveMode();
    threads_ = ComputeThreads();
    oversubscribe_ = ParallelOversubscribe();
    for (int c = 0; c < kNumKernelCosts; ++c) {
      cutoffs_[c] = SerialCutoff(static_cast<KernelCost>(c));
    }
  }
  void TearDown() override {
    ASSERT_TRUE(simd::SetMode(mode_));
    SetComputeThreads(threads_);
    SetParallelOversubscribe(oversubscribe_);
    for (int c = 0; c < kNumKernelCosts; ++c) {
      SetSerialCutoff(static_cast<KernelCost>(c), cutoffs_[c]);
    }
    ResetDispatchStats();
  }

  simd::Mode mode_ = simd::Mode::kScalar;
  int threads_ = 1;
  bool oversubscribe_ = false;
  int64_t cutoffs_[kNumKernelCosts] = {};
};

// ---------------------------------------------------------------------
// Backend selection.

TEST_F(SimdTest, ScalarModeAlwaysSelectable) {
  EXPECT_TRUE(simd::SetMode(simd::Mode::kScalar));
  EXPECT_EQ(simd::ActiveMode(), simd::Mode::kScalar);
  EXPECT_STREQ(simd::Kernels().name, "scalar");
}

TEST_F(SimdTest, Avx2ModeSelectableIffHostSupportsIt) {
  EXPECT_EQ(simd::SetMode(simd::Mode::kAvx2), simd::HostHasAvx2());
  if (simd::HostHasAvx2()) {
    EXPECT_EQ(simd::ActiveMode(), simd::Mode::kAvx2);
    EXPECT_STREQ(simd::Kernels().name, "avx2");
  }
}

// ---------------------------------------------------------------------
// Kernel by kernel: avx2 == scalar bitwise, and each kernel against a
// plain-loop reference. Shapes are deliberately awkward (odd rows/cols)
// so the 6/4/1-row GEMM blocks and the 16/8/partial column tails all
// execute.

TEST_F(SimdTest, GemmNnMatchesScalarWithinTolerance) {
  const int64_t m = 37, k = 53, n = 41;
  const std::vector<float> a = RandomVec(m * k, 1);
  const std::vector<float> b = RandomVec(k * n, 2);
  const std::vector<float> init = RandomVec(m * n, 3);  // accumulate semantics
  std::vector<float> ref = init;
  NaiveGemmNn(a, b, ref, m, k, n);
  std::vector<std::vector<float>> outs;
  for (simd::Mode mode : AvailableModes()) {
    std::vector<float> got = init;
    simd::KernelsFor(mode).gemm_nn_rows(a.data(), b.data(), got.data(), 0, m,
                                        k, n);
    ExpectClose(ref, got, 1e-4f, 1e-4f, simd::ModeName(mode));
    outs.push_back(std::move(got));
  }
  if (outs.size() == 2) {
    EXPECT_TRUE(BitwiseEqual(outs[0], outs[1]));
  }
}

TEST_F(SimdTest, GemmTnMatchesScalarWithinTolerance) {
  const int64_t m = 29, k = 37, n = 43;
  const std::vector<float> a = RandomVec(m * k, 4);
  const std::vector<float> b = RandomVec(m * n, 5);
  const std::vector<float> init = RandomVec(k * n, 6);
  std::vector<float> ref = init;
  NaiveGemmTn(a, b, ref, m, k, n);
  std::vector<std::vector<float>> outs;
  for (simd::Mode mode : AvailableModes()) {
    std::vector<float> got = init;
    simd::KernelsFor(mode).gemm_tn_rows(a.data(), b.data(), got.data(), 0, k,
                                        m, k, n);
    ExpectClose(ref, got, 1e-4f, 1e-4f, simd::ModeName(mode));
    outs.push_back(std::move(got));
  }
  if (outs.size() == 2) {
    EXPECT_TRUE(BitwiseEqual(outs[0], outs[1]));
  }
}

TEST_F(SimdTest, ElementwiseKernelsAreBitwiseAcrossBackends) {
  const int64_t n = 1003;  // odd: exercises the partial-vector tail
  const std::vector<float> a = RandomVec(n, 7);
  const std::vector<float> b = RandomVec(n, 8);
  std::vector<float> add(n), acc = a, scale(n), mul(n), diff(n);
  for (int64_t i = 0; i < n; ++i) {
    add[i] = a[i] + b[i];
    acc[i] += b[i];
    scale[i] = a[i] * 1.37f;
    mul[i] = a[i] * b[i];
    diff[i] = (a[i] - b[i]) * 0.753f;
  }
  for (simd::Mode mode : AvailableModes()) {
    const auto& kt = simd::KernelsFor(mode);
    const char* name = simd::ModeName(mode);
    std::vector<float> got(n);
    kt.add(a.data(), b.data(), got.data(), n);
    EXPECT_TRUE(BitwiseEqual(add, got)) << name << " add";
    got = a;
    kt.accumulate(got.data(), b.data(), n);
    EXPECT_TRUE(BitwiseEqual(acc, got)) << name << " accumulate";
    kt.scale(a.data(), 1.37f, got.data(), n);
    EXPECT_TRUE(BitwiseEqual(scale, got)) << name << " scale";
    kt.mul(a.data(), b.data(), got.data(), n);
    EXPECT_TRUE(BitwiseEqual(mul, got)) << name << " mul";
    kt.diff_scale(a.data(), b.data(), 0.753f, got.data(), n);
    EXPECT_TRUE(BitwiseEqual(diff, got)) << name << " diff_scale";
  }
}

TEST_F(SimdTest, GeluMatchesScalarWithinTolerance) {
  const int64_t n = 517;
  std::vector<float> x = RandomVec(n, 9);
  for (int64_t i = 0; i < n; ++i) x[i] *= 6.0f;  // cover the saturated tails
  const std::vector<float> g = RandomVec(n, 10);
  std::vector<float> fwd_ref(n), bwd_ref(n);
  for (int64_t i = 0; i < n; ++i) {
    fwd_ref[i] = NaiveGeluFwd(x[i]);
    bwd_ref[i] = NaiveGeluBwd(x[i], g[i]);
  }
  std::vector<std::vector<float>> fwds, bwds;
  for (simd::Mode mode : AvailableModes()) {
    const auto& kt = simd::KernelsFor(mode);
    std::vector<float> fwd(n), bwd(n);
    kt.gelu_fwd(x.data(), fwd.data(), n);
    kt.gelu_bwd(x.data(), g.data(), bwd.data(), n);
    ExpectClose(fwd_ref, fwd, 1e-4f, 1e-5f, "gelu_fwd");
    ExpectClose(bwd_ref, bwd, 1e-4f, 1e-5f, "gelu_bwd");
    fwds.push_back(std::move(fwd));
    bwds.push_back(std::move(bwd));
  }
  if (fwds.size() == 2) {
    EXPECT_TRUE(BitwiseEqual(fwds[0], fwds[1])) << "gelu_fwd";
    EXPECT_TRUE(BitwiseEqual(bwds[0], bwds[1])) << "gelu_bwd";
  }
}

TEST_F(SimdTest, LayerNormRowMatchesScalarWithinTolerance) {
  const int64_t n = 67;
  const float eps = 1e-5f;
  const std::vector<float> x = RandomVec(n, 11);
  const std::vector<float> gamma = RandomVec(n, 12);
  const std::vector<float> beta = RandomVec(n, 13);
  const std::vector<float> g = RandomVec(n, 14);
  const std::vector<float> dgamma0(n, 0.1f), dbeta0(n, 0.2f);
  const NaiveLayerNorm ref =
      NaiveLayerNormRow(x, gamma, beta, g, dgamma0, dbeta0, eps);

  // Per mode: out, mean, inv_std, dgamma, dbeta, dx.
  std::vector<std::vector<float>> results;
  for (simd::Mode mode : AvailableModes()) {
    const auto& kt = simd::KernelsFor(mode);
    std::vector<float> out(n);
    float mean = 0, inv_std = 0;
    kt.layernorm_row_fwd(x.data(), gamma.data(), beta.data(), n, eps,
                         out.data(), &mean, &inv_std);
    EXPECT_NEAR(ref.mean, mean, 1e-6 + 1e-5 * std::abs(ref.mean));
    EXPECT_NEAR(ref.inv_std, inv_std, 1e-6 + 1e-5 * std::abs(ref.inv_std));
    ExpectClose(ref.out, out, 1e-4f, 1e-5f, "layernorm_fwd");

    std::vector<float> dgamma = dgamma0, dbeta = dbeta0, dx(n);
    kt.layernorm_row_bwd(x.data(), g.data(), gamma.data(), mean, inv_std, n,
                         dgamma.data(), dbeta.data(), dx.data());
    ExpectClose(ref.dgamma, dgamma, 1e-4f, 1e-5f, "layernorm_bwd dgamma");
    ExpectClose(ref.dbeta, dbeta, 1e-4f, 1e-5f, "layernorm_bwd dbeta");
    ExpectClose(ref.dx, dx, 1e-4f, 1e-5f, "layernorm_bwd dx");
    out.push_back(mean);
    out.push_back(inv_std);
    for (const auto* v : {&dgamma, &dbeta, &dx}) {
      out.insert(out.end(), v->begin(), v->end());
    }
    results.push_back(std::move(out));
  }
  if (results.size() == 2) {
    EXPECT_TRUE(BitwiseEqual(results[0], results[1]));
  }
}

TEST_F(SimdTest, SoftmaxAndCeGradRowsAreBitwiseAcrossBackends) {
  const int64_t n = 133;
  const int64_t target = 17;
  const float g = 0.25f;
  std::vector<float> x = RandomVec(n, 15);
  for (int64_t i = 0; i < n; ++i) x[i] *= 4.0f;
  // Plain loop: max, exp with a double denominator, divide; then the
  // cross-entropy gradient p * g, with (p - 1) * g at the target.
  float maxv = x[0];
  for (float v : x) maxv = std::max(maxv, v);
  std::vector<float> probs(n), grad(n);
  double denom = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    probs[i] = std::exp(x[i] - maxv);
    denom += probs[i];
  }
  for (int64_t i = 0; i < n; ++i) {
    probs[i] /= static_cast<float>(denom);
    grad[i] = probs[i] * g;
  }
  grad[target] = (probs[target] - 1.0f) * g;

  for (simd::Mode mode : AvailableModes()) {
    const auto& kt = simd::KernelsFor(mode);
    std::vector<float> p(n), ce(n);
    kt.softmax_row(x.data(), p.data(), n);
    EXPECT_TRUE(BitwiseEqual(probs, p))
        << simd::ModeName(mode) << " softmax_row";
    kt.ce_grad_row(probs.data(), target, g, ce.data(), n);
    EXPECT_TRUE(BitwiseEqual(grad, ce))
        << simd::ModeName(mode) << " ce_grad_row";
  }
}

TEST_F(SimdTest, Fp16ConversionsAreBitwiseAcrossBackends) {
  const int64_t n = 2051;
  const float scale = 2.5f;
  const std::vector<Fp16> h = RandomHalves(n, 16);
  std::vector<float> f = RandomVec(n, 17);
  // Edge cases of the narrowing: signed zero, half subnormals, the
  // round-to-even boundary, the largest half and overflow to inf.
  const float edges[] = {-0.0f,   1e-7f,    -3e-6f,  6.1e-5f, 1.00048828125f,
                         65504.f, 65519.f,  65520.f, -1e30f,  INFINITY};
  std::copy(std::begin(edges), std::end(edges), f.begin());
  // Reference: the software converters in common/fp16.h.
  std::vector<float> widened(n);
  std::vector<Fp16> narrowed(n);
  for (int64_t i = 0; i < n; ++i) {
    widened[i] = HalfToFloat(h[i]) * scale;
    narrowed[i] = FloatToHalf(f[i]);
  }
  for (simd::Mode mode : AvailableModes()) {
    const auto& kt = simd::KernelsFor(mode);
    std::vector<float> w(n);
    kt.halves_to_floats(h.data(), w.data(), n, scale);
    EXPECT_TRUE(BitwiseEqual(widened, w))
        << simd::ModeName(mode) << " halves_to_floats";
    std::vector<Fp16> nh(n);
    kt.floats_to_halves(f.data(), nh.data(), n);
    EXPECT_EQ(0, std::memcmp(narrowed.data(), nh.data(), n * sizeof(Fp16)))
        << simd::ModeName(mode) << " floats_to_halves";
  }
}

TEST_F(SimdTest, AdamStepsAreBitwiseAcrossBackendsAndVsSerialReference) {
  const int64_t n = 1234;
  AdamConfig cfg;
  cfg.lr = 1e-3;
  cfg.weight_decay = 0.01;
  CpuAdamKernel kernel(cfg);
  const std::vector<float> p0 = RandomVec(n, 18);
  const std::vector<float> g = RandomVec(n, 19);
  const std::vector<Fp16> g16 = RandomHalves(n, 20);

  // Serial plain-loop reference (fp32 grads).
  std::vector<float> p_ref = p0, m_ref(n, 0.0f), v_ref(n, 0.0f);
  std::vector<Fp16> h_ref(n);
  for (int step = 1; step <= 3; ++step) {
    kernel.StepSerialOut(step, n, g.data(), p_ref.data(), m_ref.data(),
                         v_ref.data(), p_ref.data(), m_ref.data(),
                         v_ref.data(), h_ref.data());
  }

  for (simd::Mode mode : AvailableModes()) {
    ASSERT_TRUE(simd::SetMode(mode));
    std::vector<float> p = p0, m(n, 0.0f), v(n, 0.0f);
    std::vector<Fp16> h(n);
    for (int step = 1; step <= 3; ++step) {
      kernel.Step(step, n, g.data(), p.data(), m.data(), v.data(), h.data());
    }
    EXPECT_TRUE(BitwiseEqual(p_ref, p)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(m_ref, m)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(v_ref, v)) << simd::ModeName(mode);
    EXPECT_EQ(0, std::memcmp(h_ref.data(), h.data(), n * sizeof(Fp16)))
        << simd::ModeName(mode);
  }

  // fp16-grad path: both backends must agree bitwise with the scalar
  // widen-then-StepSerialOut composition.
  const float unscale = 0.5f;
  std::vector<float> gw(n);
  for (int64_t i = 0; i < n; ++i) gw[i] = HalfToFloat(g16[i]) * unscale;
  std::vector<float> p16ref = p0, m16ref(n, 0.0f), v16ref(n, 0.0f);
  std::vector<Fp16> h16ref(n);
  kernel.StepSerialOut(1, n, gw.data(), p16ref.data(), m16ref.data(),
                       v16ref.data(), p16ref.data(), m16ref.data(),
                       v16ref.data(), h16ref.data());
  for (simd::Mode mode : AvailableModes()) {
    ASSERT_TRUE(simd::SetMode(mode));
    std::vector<float> p = p0, m(n, 0.0f), v(n, 0.0f);
    std::vector<Fp16> h(n);
    kernel.StepFp16Grads(1, n, g16.data(), p.data(), m.data(), v.data(),
                         h.data(), unscale);
    EXPECT_TRUE(BitwiseEqual(p16ref, p)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(m16ref, m)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(v16ref, v)) << simd::ModeName(mode);
    EXPECT_EQ(0, std::memcmp(h16ref.data(), h.data(), n * sizeof(Fp16)))
        << simd::ModeName(mode);
  }
}

// Satellite regression: StepFp16GradsChunksOut's fused (vectorized)
// half->float conversion must reproduce the widen-then-serial reference
// bitwise, for any split of the chunk grid across calls.
TEST_F(SimdTest, Fp16ChunkStepsMatchSerialReferenceBitwise) {
  const int64_t n = 3 * CpuAdamKernel::kChunk + 123;
  AdamConfig cfg;
  cfg.lr = 2e-3;
  cfg.weight_decay = 0.02;
  CpuAdamKernel kernel(cfg);
  const std::vector<float> p0 = RandomVec(n, 21);
  const std::vector<Fp16> g16 = RandomHalves(n, 22);
  const float unscale = 1.75f;

  std::vector<float> gw(n);
  for (int64_t i = 0; i < n; ++i) gw[i] = HalfToFloat(g16[i]) * unscale;
  std::vector<float> p_ref = p0, m_ref(n, 0.0f), v_ref(n, 0.0f);
  std::vector<Fp16> h_ref(n);
  kernel.StepSerialOut(1, n, gw.data(), p_ref.data(), m_ref.data(),
                       v_ref.data(), p_ref.data(), m_ref.data(), v_ref.data(),
                       h_ref.data());

  for (simd::Mode mode : AvailableModes()) {
    ASSERT_TRUE(simd::SetMode(mode));
    std::vector<float> p = p0, m(n, 0.0f), v(n, 0.0f);
    std::vector<Fp16> h(n);
    // Apply the grid as two disjoint calls (evens, then odds).
    std::vector<int64_t> evens, odds;
    const int64_t num_chunks =
        (n + CpuAdamKernel::kChunk - 1) / CpuAdamKernel::kChunk;
    for (int64_t c = 0; c < num_chunks; ++c) {
      (c % 2 == 0 ? evens : odds).push_back(c);
    }
    for (const auto& chunks : {evens, odds}) {
      kernel.StepFp16GradsChunksOut(1, n, g16.data(), chunks,
                                    CpuAdamKernel::kChunk, p.data(), m.data(),
                                    v.data(), p.data(), m.data(), v.data(),
                                    h.data(), unscale);
    }
    EXPECT_TRUE(BitwiseEqual(p_ref, p)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(m_ref, m)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(v_ref, v)) << simd::ModeName(mode);
    EXPECT_EQ(0, std::memcmp(h_ref.data(), h.data(), n * sizeof(Fp16)))
        << simd::ModeName(mode);
  }
}

// ---------------------------------------------------------------------
// Thread-count determinism per mode: whole TinyGpt training steps, run
// oversubscribed so 2/4 threads genuinely interleave on any host.

struct TrainRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> params;
};

TrainRun TrainTinyGpt(int threads, int steps) {
  SetComputeThreads(threads);
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 12;
  cfg.hidden_dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, /*seed=*/99);

  AdamConfig acfg;
  acfg.lr = 1e-3;
  acfg.weight_decay = 0.01;
  CpuAdamKernel kernel(acfg);
  std::vector<std::vector<float>> exp_avg, exp_avg_sq;
  for (auto& [name, var] : model.parameters()) {
    exp_avg.emplace_back(var.value().size(), 0.0f);
    exp_avg_sq.emplace_back(var.value().size(), 0.0f);
  }
  SyntheticDataset dataset(SyntheticTask::kAffineMap, cfg.vocab_size,
                           cfg.seq_len, /*seed=*/7);
  TrainRun run;
  for (int step = 1; step <= steps; ++step) {
    const TokenBatch b = dataset.NextBatch(2);
    model.ZeroGrads();
    ag::Variable loss = model.Loss(b.ids, b.targets, 2);
    loss.Backward();
    run.losses.push_back(loss.value()[0]);
    size_t p = 0;
    for (auto& [name, var] : model.parameters()) {
      const std::vector<float>& grad = var.grad();
      kernel.Step(step, static_cast<int64_t>(grad.size()), grad.data(),
                  var.mutable_value().data(), exp_avg[p].data(),
                  exp_avg_sq[p].data(), /*params16_out=*/nullptr);
      ++p;
    }
  }
  for (auto& [name, var] : model.parameters()) {
    run.params.push_back(var.value());
  }
  return run;
}

TEST_F(SimdTest, TinyGptTrajectoryIsBitwiseAcrossThreadCountsPerMode) {
  SetParallelOversubscribe(true);
  for (simd::Mode mode : AvailableModes()) {
    ASSERT_TRUE(simd::SetMode(mode));
    const TrainRun t1 = TrainTinyGpt(/*threads=*/1, /*steps=*/3);
    const TrainRun t2 = TrainTinyGpt(/*threads=*/2, /*steps=*/3);
    const TrainRun t4 = TrainTinyGpt(/*threads=*/4, /*steps=*/3);
    for (const TrainRun* other : {&t2, &t4}) {
      ASSERT_EQ(t1.losses.size(), other->losses.size());
      for (size_t i = 0; i < t1.losses.size(); ++i) {
        EXPECT_EQ(t1.losses[i], other->losses[i])
            << simd::ModeName(mode) << " step " << i + 1;
      }
      ASSERT_EQ(t1.params.size(), other->params.size());
      for (size_t p = 0; p < t1.params.size(); ++p) {
        EXPECT_TRUE(BitwiseEqual(t1.params[p], other->params[p]))
            << simd::ModeName(mode) << " parameter tensor " << p;
      }
    }
  }
}

// One source, two builds: a whole TinyGpt trajectory is bitwise
// identical under avx2 and scalar, so a checkpoint saved under one mode
// resumes bitwise under the other.
TEST_F(SimdTest, CrossModeTinyGptTrajectoryIsBitwise) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  ASSERT_TRUE(simd::SetMode(simd::Mode::kScalar));
  const TrainRun scalar = TrainTinyGpt(/*threads=*/2, /*steps=*/3);
  ASSERT_TRUE(simd::SetMode(simd::Mode::kAvx2));
  const TrainRun avx2 = TrainTinyGpt(/*threads=*/2, /*steps=*/3);
  ASSERT_EQ(scalar.losses.size(), avx2.losses.size());
  for (size_t i = 0; i < scalar.losses.size(); ++i) {
    EXPECT_EQ(scalar.losses[i], avx2.losses[i]) << "step " << i + 1;
  }
  ASSERT_EQ(scalar.params.size(), avx2.params.size());
  int differing = 0;
  for (size_t p = 0; p < scalar.params.size(); ++p) {
    if (!BitwiseEqual(scalar.params[p], avx2.params[p])) ++differing;
  }
  EXPECT_EQ(differing, 0) << "of " << scalar.params.size()
                          << " parameter tensors differ across modes";
}

// ---------------------------------------------------------------------
// Adaptive dispatch cutoffs.

TEST_F(SimdTest, ParallelWidthClampsToCoresUnlessOversubscribed) {
  SetComputeThreads(4);
  SetParallelOversubscribe(false);
  EXPECT_LE(ParallelWidth(), ComputeThreads());
  SetParallelOversubscribe(true);
  EXPECT_EQ(ParallelWidth(), ComputeThreads());
}

TEST_F(SimdTest, DispatchFlipsAtTheCutoffBoundary) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);  // width 2 even on a 1-core host
  SetSerialCutoff(KernelCost::kElementwise, 1000);
  auto run = [](int64_t est_ops) {
    std::vector<float> out(64, 0.0f);
    ComputeParallelFor(KernelCost::kElementwise, est_ops, 0, 64, 8,
                       [&](int64_t b, int64_t e) {
                         for (int64_t i = b; i < e; ++i) out[i] = float(i);
                       });
    for (int64_t i = 0; i < 64; ++i) ASSERT_EQ(out[i], float(i));
  };

  ResetDispatchStats();
  run(/*est_ops=*/999);   // below
  run(/*est_ops=*/1000);  // at the boundary: still serial (<=)
  DispatchCounts c = DispatchStatsFor(KernelCost::kElementwise);
  EXPECT_EQ(c.serial, 2);
  EXPECT_EQ(c.pooled, 0);

  ResetDispatchStats();
  run(/*est_ops=*/1001);  // above: pooled
  c = DispatchStatsFor(KernelCost::kElementwise);
  EXPECT_EQ(c.serial, 0);
  EXPECT_EQ(c.pooled, 1);
}

TEST_F(SimdTest, NonPositiveCutoffDisablesSerialBySize) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);
  SetSerialCutoff(KernelCost::kGemm, 0);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kGemm, /*est_ops=*/1, 0, 64, 8,
                     [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kGemm);
  EXPECT_EQ(c.serial, 0);
  EXPECT_EQ(c.pooled, 1);
}

TEST_F(SimdTest, SingleChunkRangeRunsInlineRegardlessOfEstimate) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kGemm, /*est_ops=*/int64_t{1} << 30, 0, 8,
                     /*grain=*/8, [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kGemm);
  EXPECT_EQ(c.serial, 1);
  EXPECT_EQ(c.pooled, 0);
}

TEST_F(SimdTest, WidthOneCountsAsSerialEvenAboveCutoff) {
  SetComputeThreads(1);
  SetParallelOversubscribe(false);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kAdam, /*est_ops=*/int64_t{1} << 30, 0, 1024,
                     /*grain=*/8, [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kAdam);
  EXPECT_EQ(c.serial, 1);
  EXPECT_EQ(c.pooled, 0);
}

}  // namespace
}  // namespace ratel
