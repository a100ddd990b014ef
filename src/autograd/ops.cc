#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "runtime/compute_pool.h"
#include "simd/simd.h"

namespace ratel::ag {

namespace {

NodePtr MakeOutput(std::vector<int64_t> shape,
                   std::vector<NodePtr> inputs) {
  bool requires_grad = false;
  for (const auto& in : inputs) requires_grad |= in->requires_grad();
  auto node = std::make_shared<Node>(std::move(shape), requires_grad);
  node->inputs = std::move(inputs);
  node->value.assign(node->NumElements(), 0.0f);
  return node;
}

// ---------------------------------------------------------------------
// Tiled parallel kernels, computed by the simd backend (simd::Kernels
// resolves once to scalar or AVX2 per RATEL_SIMD).
//
// Every kernel fans out on the shared ComputePool with *fixed* chunk
// boundaries (constants below, never derived from the thread count) and
// a fixed accumulation order inside each chunk, so results are bitwise
// identical at any RATEL_THREADS for a fixed backend. Chunks write
// disjoint output ranges; cross-chunk reductions (layernorm
// dgamma/dbeta, the cross-entropy loss) go through per-tile partials
// combined serially in tile order. Each fan-out passes its estimated
// op count so small problems run serial inline (see KernelCost).
// ---------------------------------------------------------------------

// Output rows per GEMM task (multiple of the backends' register block).
constexpr int64_t kGemmRowTile = 32;
// Rows per task for row-wise kernels (layernorm, softmax, embedding).
constexpr int64_t kRowTile = 8;
// Elements per task for elementwise kernels.
constexpr int64_t kEltTile = 1 << 15;
// Output columns per task for column-reduction kernels.
constexpr int64_t kColTile = 64;

// out(MxN) += a(MxK) * b(KxN), parallel over row tiles.
void GemmAccum(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n) {
  const simd::KernelTable* kt = &simd::Kernels();
  ComputeParallelFor(KernelCost::kGemm, 2 * m * k * n, 0, m, kGemmRowTile,
                     [=](int64_t i0, int64_t i1) {
                       kt->gemm_nn_rows(a, b, out, i0, i1, k, n);
                     });
}

// out(MxN) += a(MxK) * b(NxK)^T. b is transposed into a (KxN) panel
// once (O(K*N) copies against O(M*K*N) flops) so the product streams
// through the same row-blocked kernel instead of strided dot products.
void GemmNTAccum(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n) {
  std::vector<float> bt(k * n);
  float* btp = bt.data();
  ComputeParallelFor(KernelCost::kElementwise, k * n, 0, k, kColTile,
                     [=](int64_t p0, int64_t p1) {
                       for (int64_t j = 0; j < n; ++j) {
                         const float* brow = b + j * k;
                         for (int64_t p = p0; p < p1; ++p) {
                           btp[p * n + j] = brow[p];
                         }
                       }
                     });
  GemmAccum(a, btp, out, m, k, n);
}

// out(KxN) += a(MxK)^T * b(MxN), parallel over output row tiles (the k
// dimension). The reduction index i ascends inside the backend kernel —
// a fixed order per output element for any task partition.
void GemmTNAccum(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n) {
  const simd::KernelTable* kt = &simd::Kernels();
  ComputeParallelFor(KernelCost::kGemm, 2 * m * k * n, 0, k, kGemmRowTile,
                     [=](int64_t pb, int64_t pe) {
                       kt->gemm_tn_rows(a, b, out, pb, pe, m, k, n);
                     });
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  RATEL_CHECK(a.shape().size() == 2 && b.shape().size() == 2);
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  RATEL_CHECK(b.shape()[0] == k) << "MatMul inner-dim mismatch";
  NodePtr out = MakeOutput({m, n}, {a.node(), b.node()});
  GemmAccum(a.value().data(), b.value().data(), out->value.data(), m, k, n);
  out->backward_fn = [m, k, n](Node& self) {
    Node& na = *self.inputs[0];
    Node& nb = *self.inputs[1];
    if (na.requires_grad()) {
      std::vector<float> da(m * k, 0.0f);
      GemmNTAccum(self.grad.data(), nb.value.data(), da.data(), m, n, k);
      na.AccumulateGrad(da.data(), m * k);
    }
    if (nb.requires_grad()) {
      std::vector<float> db(k * n, 0.0f);
      GemmTNAccum(na.value.data(), self.grad.data(), db.data(), m, k, n);
      nb.AccumulateGrad(db.data(), k * n);
    }
  };
  return Variable(out);
}

Variable MatMulNT(const Variable& a, const Variable& b) {
  RATEL_CHECK(a.shape().size() == 2 && b.shape().size() == 2);
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[0];
  RATEL_CHECK(b.shape()[1] == k) << "MatMulNT inner-dim mismatch";
  NodePtr out = MakeOutput({m, n}, {a.node(), b.node()});
  GemmNTAccum(a.value().data(), b.value().data(), out->value.data(), m, k, n);
  out->backward_fn = [m, k, n](Node& self) {
    Node& na = *self.inputs[0];
    Node& nb = *self.inputs[1];
    if (na.requires_grad()) {
      // dA = dOut(MxN) * B(NxK).
      std::vector<float> da(m * k, 0.0f);
      GemmAccum(self.grad.data(), nb.value.data(), da.data(), m, n, k);
      na.AccumulateGrad(da.data(), m * k);
    }
    if (nb.requires_grad()) {
      // dB = dOut^T(NxM) * A(MxK).
      std::vector<float> db(n * k, 0.0f);
      GemmTNAccum(self.grad.data(), na.value.data(), db.data(), m, n, k);
      nb.AccumulateGrad(db.data(), n * k);
    }
  };
  return Variable(out);
}

Variable Add(const Variable& a, const Variable& b) {
  RATEL_CHECK(a.shape() == b.shape()) << "Add shape mismatch";
  NodePtr out = MakeOutput(a.shape(), {a.node(), b.node()});
  const int64_t n = out->NumElements();
  const float* av = a.value().data();
  const float* bv = b.value().data();
  float* ov = out->value.data();
  const simd::KernelTable* kt = &simd::Kernels();
  ComputeParallelFor(KernelCost::kElementwise, n, 0, n, kEltTile,
                     [=](int64_t i0, int64_t i1) {
                       kt->add(av + i0, bv + i0, ov + i0, i1 - i0);
                     });
  out->backward_fn = [n](Node& self) {
    for (int input = 0; input < 2; ++input) {
      Node& ni = *self.inputs[input];
      if (ni.requires_grad()) ni.AccumulateGrad(self.grad.data(), n);
    }
  };
  return Variable(out);
}

Variable AddBias(const Variable& a, const Variable& bias) {
  RATEL_CHECK(a.shape().size() == 2 && bias.shape().size() == 1);
  const int64_t m = a.shape()[0], n = a.shape()[1];
  RATEL_CHECK(bias.shape()[0] == n) << "AddBias width mismatch";
  NodePtr out = MakeOutput({m, n}, {a.node(), bias.node()});
  {
    const float* av = a.value().data();
    const float* bv = bias.value().data();
    float* ov = out->value.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kElementwise, m * n, 0, m, kRowTile,
                       [=](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           kt->add(av + i * n, bv, ov + i * n, n);
                         }
                       });
  }
  out->backward_fn = [m, n](Node& self) {
    Node& na = *self.inputs[0];
    Node& nb = *self.inputs[1];
    if (na.requires_grad()) na.AccumulateGrad(self.grad.data(), m * n);
    if (nb.requires_grad()) {
      // Column reduction, parallel over disjoint column tiles; the row
      // index ascends inside each tile, independent of the partition.
      std::vector<float> db(n, 0.0f);
      const float* g = self.grad.data();
      float* dbp = db.data();
      ComputeParallelFor(KernelCost::kColReduce, m * n, 0, n, kColTile,
                         [=](int64_t j0, int64_t j1) {
                           for (int64_t i = 0; i < m; ++i) {
                             const float* grow = g + i * n;
                             for (int64_t j = j0; j < j1; ++j) {
                               dbp[j] += grow[j];
                             }
                           }
                         });
      nb.AccumulateGrad(db.data(), n);
    }
  };
  return Variable(out);
}

Variable Gelu(const Variable& a) {
  NodePtr out = MakeOutput(a.shape(), {a.node()});
  const int64_t n = out->NumElements();
  const float* av = a.value().data();
  float* ov = out->value.data();
  const simd::KernelTable* kt = &simd::Kernels();
  ComputeParallelFor(KernelCost::kElementwise, 8 * n, 0, n, kEltTile,
                     [=](int64_t i0, int64_t i1) {
                       kt->gelu_fwd(av + i0, ov + i0, i1 - i0);
                     });
  out->backward_fn = [n](Node& self) {
    Node& na = *self.inputs[0];
    if (!na.requires_grad()) return;
    std::vector<float> da(n);
    const float* xv = na.value.data();
    const float* g = self.grad.data();
    float* dap = da.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kElementwise, 8 * n, 0, n, kEltTile,
                       [=](int64_t i0, int64_t i1) {
                         kt->gelu_bwd(xv + i0, g + i0, dap + i0, i1 - i0);
                       });
    na.AccumulateGrad(da.data(), n);
  };
  return Variable(out);
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  RATEL_CHECK(x.shape().size() == 2);
  const int64_t m = x.shape()[0], n = x.shape()[1];
  RATEL_CHECK(gamma.shape() == std::vector<int64_t>{n});
  RATEL_CHECK(beta.shape() == std::vector<int64_t>{n});
  NodePtr out = MakeOutput({m, n}, {x.node(), gamma.node(), beta.node()});
  // Cache per-row mean and inverse stddev for backward.
  auto stats = std::make_shared<std::vector<float>>(2 * m);
  {
    const float* xv = x.value().data();
    const float* gv = gamma.value().data();
    const float* bv = beta.value().data();
    float* ov = out->value.data();
    float* st = stats->data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kRowReduce, 4 * m * n, 0, m, kRowTile,
                       [=](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           kt->layernorm_row_fwd(xv + i * n, gv, bv, n, eps,
                                                 ov + i * n, st + 2 * i,
                                                 st + 2 * i + 1);
                         }
                       });
  }
  out->backward_fn = [m, n, stats](Node& self) {
    Node& nx = *self.inputs[0];
    Node& ng = *self.inputs[1];
    Node& nb = *self.inputs[2];
    std::vector<float> dx(nx.requires_grad() ? m * n : 0, 0.0f);
    // dgamma/dbeta reduce over rows: each row tile accumulates into its
    // own partial slice, combined serially in tile order below.
    const int64_t tiles = (m + kRowTile - 1) / kRowTile;
    std::vector<float> partial(tiles * 2 * n, 0.0f);
    const bool need_dx = nx.requires_grad();
    const float* st = stats->data();
    const float* xv = nx.value.data();
    const float* gv = ng.value.data();
    const float* g = self.grad.data();
    float* dxp = dx.data();
    float* pp = partial.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(
        KernelCost::kRowReduce, 8 * m * n, 0, m, kRowTile,
        [=](int64_t i0, int64_t i1) {
          float* dgamma = pp + (i0 / kRowTile) * 2 * n;
          float* dbeta = dgamma + n;
          for (int64_t i = i0; i < i1; ++i) {
            kt->layernorm_row_bwd(xv + i * n, g + i * n, gv, st[2 * i],
                                  st[2 * i + 1], n, dgamma, dbeta,
                                  need_dx ? dxp + i * n : nullptr);
          }
        });
    std::vector<float> dgamma(n, 0.0f), dbeta(n, 0.0f);
    for (int64_t t = 0; t < tiles; ++t) {
      const float* pg = partial.data() + t * 2 * n;
      const float* pb = pg + n;
      for (int64_t j = 0; j < n; ++j) {
        dgamma[j] += pg[j];
        dbeta[j] += pb[j];
      }
    }
    if (nx.requires_grad()) nx.AccumulateGrad(dx.data(), m * n);
    if (ng.requires_grad()) ng.AccumulateGrad(dgamma.data(), n);
    if (nb.requires_grad()) nb.AccumulateGrad(dbeta.data(), n);
  };
  return Variable(out);
}

namespace {

Variable SelfAttentionImpl(const Variable& qkv, int64_t batch,
                           int64_t seq_len, int64_t num_heads, bool causal) {
  RATEL_CHECK(qkv.shape().size() == 2);
  const int64_t rows = qkv.shape()[0];
  RATEL_CHECK(rows == batch * seq_len);
  RATEL_CHECK(qkv.shape()[1] % 3 == 0);
  const int64_t hidden = qkv.shape()[1] / 3;
  RATEL_CHECK(hidden % num_heads == 0);
  const int64_t dh = hidden / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  NodePtr out = MakeOutput({rows, hidden}, {qkv.node()});
  // Cache softmax probabilities for backward: [batch, heads, S, S].
  auto probs = std::make_shared<std::vector<float>>(
      batch * num_heads * seq_len * seq_len, 0.0f);

  // Each (batch, head) pair owns disjoint slices of probs and out, so
  // the heads fan out with one task per pair and untouched numerics.
  {
    const float* in = qkv.value().data();
    const int64_t in_stride = 3 * hidden;
    float* pr = probs->data();
    float* ov = out->value.data();
    ComputeParallelFor(
        KernelCost::kAttention, 4 * batch * num_heads * seq_len * seq_len * dh,
        0, batch * num_heads, 1, [=](int64_t bh0, int64_t bh1) {
          for (int64_t bh = bh0; bh < bh1; ++bh) {
            const int64_t b = bh / num_heads;
            const int64_t h = bh % num_heads;
            auto q_at = [&](int64_t t, int64_t d) {
              return in[(b * seq_len + t) * in_stride + h * dh + d];
            };
            auto k_at = [&](int64_t t, int64_t d) {
              return in[(b * seq_len + t) * in_stride + hidden + h * dh + d];
            };
            auto v_at = [&](int64_t t, int64_t d) {
              return in[(b * seq_len + t) * in_stride + 2 * hidden + h * dh +
                        d];
            };
            float* p = pr + (bh * seq_len) * seq_len;
            for (int64_t i = 0; i < seq_len; ++i) {
              // Scores over the visible window (causal prefix or full
              // row), then a numerically stable softmax.
              const int64_t limit = causal ? i : seq_len - 1;
              float maxv = -1e30f;
              for (int64_t j = 0; j <= limit; ++j) {
                float s = 0.0f;
                for (int64_t d = 0; d < dh; ++d) s += q_at(i, d) * k_at(j, d);
                s *= scale;
                p[i * seq_len + j] = s;
                maxv = std::max(maxv, s);
              }
              float denom = 0.0f;
              for (int64_t j = 0; j <= limit; ++j) {
                const float e = std::exp(p[i * seq_len + j] - maxv);
                p[i * seq_len + j] = e;
                denom += e;
              }
              for (int64_t j = 0; j <= limit; ++j) p[i * seq_len + j] /= denom;
              // Context = probs . V.
              float* orow = ov + (b * seq_len + i) * hidden + h * dh;
              for (int64_t d = 0; d < dh; ++d) {
                float acc = 0.0f;
                for (int64_t j = 0; j <= limit; ++j) {
                  acc += p[i * seq_len + j] * v_at(j, d);
                }
                orow[d] = acc;
              }
            }
          }
        });
  }

  out->backward_fn = [batch, seq_len, num_heads, hidden, dh, scale,
                      causal, probs](Node& self) {
    Node& nqkv = *self.inputs[0];
    if (!nqkv.requires_grad()) return;
    const int64_t in_stride = 3 * hidden;
    const float* in = nqkv.value.data();
    std::vector<float> din(nqkv.NumElements(), 0.0f);
    const float* pr = probs->data();
    const float* g = self.grad.data();
    float* dinp = din.data();
    // din's q/k/v slices for head h are only written by task (b, h):
    // disjoint across tasks.
    ComputeParallelFor(
        KernelCost::kAttention, 8 * batch * num_heads * seq_len * seq_len * dh,
        0, batch * num_heads, 1, [=](int64_t bh0, int64_t bh1) {
          std::vector<float> dp(seq_len, 0.0f);
          for (int64_t bh = bh0; bh < bh1; ++bh) {
            const int64_t b = bh / num_heads;
            const int64_t h = bh % num_heads;
            auto idx_q = [&](int64_t t, int64_t d) {
              return (b * seq_len + t) * in_stride + h * dh + d;
            };
            auto idx_k = [&](int64_t t, int64_t d) {
              return (b * seq_len + t) * in_stride + hidden + h * dh + d;
            };
            auto idx_v = [&](int64_t t, int64_t d) {
              return (b * seq_len + t) * in_stride + 2 * hidden + h * dh + d;
            };
            const float* p = pr + (bh * seq_len) * seq_len;
            for (int64_t i = 0; i < seq_len; ++i) {
              const int64_t limit = causal ? i : seq_len - 1;
              const float* dout = g + (b * seq_len + i) * hidden + h * dh;
              // dV[j] += p[i][j] * dOut[i]; dP[i][j] = dOut[i] . V[j].
              float dot_dp_p = 0.0f;
              for (int64_t j = 0; j <= limit; ++j) {
                float acc = 0.0f;
                for (int64_t d = 0; d < dh; ++d) {
                  dinp[idx_v(j, d)] += p[i * seq_len + j] * dout[d];
                  acc += dout[d] * in[idx_v(j, d)];
                }
                dp[j] = acc;
                dot_dp_p += acc * p[i * seq_len + j];
              }
              // Softmax backward: dS = P o (dP - sum(dP o P)); then Q/K
              // grads.
              for (int64_t j = 0; j <= limit; ++j) {
                const float ds =
                    p[i * seq_len + j] * (dp[j] - dot_dp_p) * scale;
                if (ds == 0.0f) continue;
                for (int64_t d = 0; d < dh; ++d) {
                  dinp[idx_q(i, d)] += ds * in[idx_k(j, d)];
                  dinp[idx_k(j, d)] += ds * in[idx_q(i, d)];
                }
              }
            }
          }
        });
    nqkv.AccumulateGrad(din.data(), nqkv.NumElements());
  };
  return Variable(out);
}

}  // namespace

Variable CausalSelfAttention(const Variable& qkv, int64_t batch,
                             int64_t seq_len, int64_t num_heads) {
  return SelfAttentionImpl(qkv, batch, seq_len, num_heads, /*causal=*/true);
}

Variable FullSelfAttention(const Variable& qkv, int64_t batch,
                           int64_t seq_len, int64_t num_heads) {
  return SelfAttentionImpl(qkv, batch, seq_len, num_heads, /*causal=*/false);
}

Variable Embedding(const std::vector<int64_t>& ids, const Variable& table) {
  RATEL_CHECK(table.shape().size() == 2);
  const int64_t vocab = table.shape()[0], hidden = table.shape()[1];
  const int64_t n = static_cast<int64_t>(ids.size());
  for (int64_t id : ids) RATEL_CHECK(id >= 0 && id < vocab);
  NodePtr out = MakeOutput({n, hidden}, {table.node()});
  auto ids_copy = std::make_shared<std::vector<int64_t>>(ids);
  {
    const float* tv = table.value().data();
    const int64_t* idp = ids_copy->data();
    float* ov = out->value.data();
    ComputeParallelFor(KernelCost::kElementwise, n * hidden, 0, n, kRowTile,
                       [=](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           const float* row = tv + idp[i] * hidden;
                           std::copy(row, row + hidden, ov + i * hidden);
                         }
                       });
  }
  out->backward_fn = [n, hidden, vocab, ids_copy](Node& self) {
    Node& nt = *self.inputs[0];
    if (!nt.requires_grad()) return;
    std::vector<float> dt(vocab * hidden, 0.0f);
    // Rows sharing a token id scatter into the same table row, so the
    // fan-out is over disjoint column tiles instead; the row index
    // ascends inside each tile for any partition.
    const float* g = self.grad.data();
    const int64_t* idp = ids_copy->data();
    float* dtp = dt.data();
    ComputeParallelFor(KernelCost::kColReduce, n * hidden, 0, hidden, kColTile,
                       [=](int64_t j0, int64_t j1) {
                         for (int64_t i = 0; i < n; ++i) {
                           const float* grow = g + i * hidden;
                           float* trow = dtp + idp[i] * hidden;
                           for (int64_t j = j0; j < j1; ++j) {
                             trow[j] += grow[j];
                           }
                         }
                       });
    nt.AccumulateGrad(dt.data(), vocab * hidden);
  };
  return Variable(out);
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& targets) {
  RATEL_CHECK(logits.shape().size() == 2);
  const int64_t n = logits.shape()[0], vocab = logits.shape()[1];
  RATEL_CHECK(static_cast<int64_t>(targets.size()) == n);
  for (int64_t i = 0; i < n; ++i) {
    RATEL_CHECK(targets[i] >= 0 && targets[i] < vocab);
  }
  NodePtr out = MakeOutput({1}, {logits.node()});
  auto probs = std::make_shared<std::vector<float>>(n * vocab);
  auto targets_copy = std::make_shared<std::vector<int64_t>>(targets);
  // Row-parallel softmax; the scalar loss reduces through fixed
  // per-tile partials summed in tile order.
  const int64_t tiles = (n + kRowTile - 1) / kRowTile;
  std::vector<double> partial(tiles, 0.0);
  {
    const float* lv = logits.value().data();
    const int64_t* tg = targets_copy->data();
    float* pv = probs->data();
    double* pl = partial.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kRowReduce, 8 * n * vocab, 0, n, kRowTile,
                       [=](int64_t i0, int64_t i1) {
                         double local = 0.0;
                         for (int64_t i = i0; i < i1; ++i) {
                           kt->softmax_row(lv + i * vocab, pv + i * vocab,
                                           vocab);
                           local -= std::log(std::max(
                               1e-30,
                               static_cast<double>(pv[i * vocab + tg[i]])));
                         }
                         pl[i0 / kRowTile] = local;
                       });
  }
  double loss = 0.0;
  for (int64_t t = 0; t < tiles; ++t) loss += partial[t];
  out->value[0] = static_cast<float>(loss / n);
  out->backward_fn = [n, vocab, probs, targets_copy](Node& self) {
    Node& nl = *self.inputs[0];
    if (!nl.requires_grad()) return;
    const float g = self.grad[0] / static_cast<float>(n);
    std::vector<float> dl(n * vocab);
    const float* pv = probs->data();
    const int64_t* tg = targets_copy->data();
    float* dlp = dl.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kRowReduce, n * vocab, 0, n, kRowTile,
                       [=](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           kt->ce_grad_row(pv + i * vocab, tg[i], g,
                                           dlp + i * vocab, vocab);
                         }
                       });
    nl.AccumulateGrad(dl.data(), n * vocab);
  };
  return Variable(out);
}

Variable MeanSquaredError(const Variable& pred,
                          const std::vector<float>& targets) {
  const int64_t n = pred.NumElements();
  RATEL_CHECK(static_cast<int64_t>(targets.size()) == n);
  NodePtr out = MakeOutput({1}, {pred.node()});
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - targets[i];
    loss += d * d;
  }
  out->value[0] = static_cast<float>(loss / n);
  auto targets_copy = std::make_shared<std::vector<float>>(targets);
  out->backward_fn = [n, targets_copy](Node& self) {
    Node& np = *self.inputs[0];
    if (!np.requires_grad()) return;
    const float g = self.grad[0] * 2.0f / static_cast<float>(n);
    std::vector<float> dp(n);
    const float* pv = np.value.data();
    const float* tv = targets_copy->data();
    float* dpp = dp.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kElementwise, n, 0, n, kEltTile,
                       [=](int64_t i0, int64_t i1) {
                         kt->diff_scale(pv + i0, tv + i0, g, dpp + i0,
                                        i1 - i0);
                       });
    np.AccumulateGrad(dp.data(), n);
  };
  return Variable(out);
}

Variable Sigmoid(const Variable& a) {
  NodePtr out = MakeOutput(a.shape(), {a.node()});
  const int64_t n = out->NumElements();
  for (int64_t i = 0; i < n; ++i) {
    out->value[i] = 1.0f / (1.0f + std::exp(-a.value()[i]));
  }
  // d sigmoid = y * (1 - y); reuse the forward output.
  auto y = std::make_shared<std::vector<float>>(out->value);
  out->backward_fn = [n, y](Node& self) {
    Node& na = *self.inputs[0];
    if (!na.requires_grad()) return;
    std::vector<float> da(n);
    for (int64_t i = 0; i < n; ++i) {
      da[i] = self.grad[i] * (*y)[i] * (1.0f - (*y)[i]);
    }
    na.AccumulateGrad(da.data(), n);
  };
  return Variable(out);
}

Variable Tanh(const Variable& a) {
  NodePtr out = MakeOutput(a.shape(), {a.node()});
  const int64_t n = out->NumElements();
  for (int64_t i = 0; i < n; ++i) out->value[i] = std::tanh(a.value()[i]);
  auto y = std::make_shared<std::vector<float>>(out->value);
  out->backward_fn = [n, y](Node& self) {
    Node& na = *self.inputs[0];
    if (!na.requires_grad()) return;
    std::vector<float> da(n);
    for (int64_t i = 0; i < n; ++i) {
      da[i] = self.grad[i] * (1.0f - (*y)[i] * (*y)[i]);
    }
    na.AccumulateGrad(da.data(), n);
  };
  return Variable(out);
}

Variable Mean(const Variable& a) {
  NodePtr out = MakeOutput({1}, {a.node()});
  const int64_t n = a.NumElements();
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += a.value()[i];
  out->value[0] = static_cast<float>(sum / n);
  out->backward_fn = [n](Node& self) {
    Node& na = *self.inputs[0];
    if (!na.requires_grad()) return;
    std::vector<float> da(n, self.grad[0] / static_cast<float>(n));
    na.AccumulateGrad(da.data(), n);
  };
  return Variable(out);
}

Variable Dropout(const Variable& a, float rate, uint64_t seed) {
  RATEL_CHECK(rate >= 0.0f && rate < 1.0f) << "dropout rate out of range";
  NodePtr out = MakeOutput(a.shape(), {a.node()});
  const int64_t n = out->NumElements();
  const float keep = 1.0f - rate;
  const float scale = 1.0f / keep;
  auto mask = std::make_shared<std::vector<float>>(n);
  // The mask stream stays serial: it must consume the Rng sequence in
  // element order to be reproducible for a given seed.
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    (*mask)[i] = rng.NextDouble() < keep ? scale : 0.0f;
    out->value[i] = a.value()[i] * (*mask)[i];
  }
  out->backward_fn = [n, mask](Node& self) {
    Node& na = *self.inputs[0];
    if (!na.requires_grad()) return;
    std::vector<float> da(n);
    const float* g = self.grad.data();
    const float* mk = mask->data();
    float* dap = da.data();
    const simd::KernelTable* kt = &simd::Kernels();
    ComputeParallelFor(KernelCost::kElementwise, n, 0, n, kEltTile,
                       [=](int64_t i0, int64_t i1) {
                         kt->mul(g + i0, mk + i0, dap + i0, i1 - i0);
                       });
    na.AccumulateGrad(da.data(), n);
  };
  return Variable(out);
}

double Accuracy(const Variable& logits, const std::vector<int64_t>& targets) {
  RATEL_CHECK(logits.shape().size() == 2);
  const int64_t n = logits.shape()[0], vocab = logits.shape()[1];
  RATEL_CHECK(static_cast<int64_t>(targets.size()) == n);
  int64_t correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits.value().data() + i * vocab;
    int64_t best = 0;
    for (int64_t j = 1; j < vocab; ++j) {
      if (row[j] > row[best]) best = j;
    }
    correct += best == targets[i];
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace ratel::ag
