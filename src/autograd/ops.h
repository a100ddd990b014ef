#ifndef RATEL_AUTOGRAD_OPS_H_
#define RATEL_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/tensor.h"

namespace ratel::ag {

/// Differentiable operators sufficient for decoder-only transformers.
/// All matrices are row-major; sequence/batch dimensions are folded into
/// rows (x is [B*S, H]) except inside the fused attention op, which is the
/// one place the 4-D structure matters.

/// C = A(MxK) * B(KxN).
Variable MatMul(const Variable& a, const Variable& b);

/// C = A(MxK) * B^T, where B is (NxK). Used for the tied LM head
/// (logits = x * E^T with the embedding table E).
Variable MatMulNT(const Variable& a, const Variable& b);

/// Element-wise sum of same-shape tensors (residual connections).
Variable Add(const Variable& a, const Variable& b);

/// Adds a length-N bias row to every row of a (MxN).
Variable AddBias(const Variable& a, const Variable& bias);

/// tanh-approximation GELU.
Variable Gelu(const Variable& a);

/// Row-wise layer normalization with learned gain/bias (both length N).
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);

/// Fused causal multi-head self-attention.
/// `qkv` is [B*S, 3H] (query/key/value concatenated along columns),
/// output is [B*S, H]. Softmax probabilities are kept for backward
/// (fine for the small models the real runtime trains).
Variable CausalSelfAttention(const Variable& qkv, int64_t batch,
                             int64_t seq_len, int64_t num_heads);

/// Bidirectional (non-causal) multi-head self-attention — the DiT
/// variant, where every patch token attends to every other.
Variable FullSelfAttention(const Variable& qkv, int64_t batch,
                           int64_t seq_len, int64_t num_heads);

/// Embedding lookup: ids (length N, values in [0, V)) into table [V, H].
Variable Embedding(const std::vector<int64_t>& ids, const Variable& table);

/// Mean softmax cross-entropy of logits [N, V] against integer targets
/// (length N). Returns a scalar.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& targets);

/// Mean squared error between a [N] tensor and constant targets. Used by
/// the diffusion-style regression examples.
Variable MeanSquaredError(const Variable& pred,
                          const std::vector<float>& targets);

/// Element-wise logistic sigmoid.
Variable Sigmoid(const Variable& a);

/// Element-wise tanh.
Variable Tanh(const Variable& a);

/// Scalar mean over all elements.
Variable Mean(const Variable& a);

/// Inverted dropout with a fixed 64-bit seed: keeps each element with
/// probability (1 - rate), scaling survivors by 1/(1 - rate). The same
/// (seed, shape) pair always produces the same mask, so training runs
/// are reproducible. rate must be in [0, 1).
Variable Dropout(const Variable& a, float rate, uint64_t seed);

/// Evaluation helper (not differentiable): fraction of rows of
/// `logits` [N, V] whose argmax equals the target token.
double Accuracy(const Variable& logits, const std::vector<int64_t>& targets);

}  // namespace ratel::ag

#endif  // RATEL_AUTOGRAD_OPS_H_
