#ifndef HIERGAT_TENSOR_OPS_H_
#define HIERGAT_TENSOR_OPS_H_

#include <span>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace hiergat {

// Differentiable operations over Tensors. Every function returns a new
// tensor whose backward function routes gradients to its inputs. Shapes
// are validated with fatal checks (programming errors, not user errors).

// -- Elementwise arithmetic --------------------------------------------

/// Elementwise sum. If `a` is [r, c] and `b` is rank-1 [c], `b` is
/// broadcast over the rows of `a` (bias addition).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference (same broadcast rule as Add).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product; shapes must match exactly.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Multiplies every element by scalar `s`.
Tensor Scale(const Tensor& a, float s);
/// Elementwise negation.
Tensor Neg(const Tensor& a);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return Scale(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return Scale(a, s); }

// -- Linear algebra ----------------------------------------------------

/// Matrix product of [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);
/// Reinterprets the tensor with a new shape of equal element count.
Tensor Reshape(const Tensor& a, const Shape& shape);
/// Flattens to rank-1.
Tensor Flatten(const Tensor& a);

// -- Structure ---------------------------------------------------------

/// Concatenates rank-2 tensors along rows (dim 0); all must share cols.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Concatenates rank-2 tensors along columns (dim 1); all must share rows.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Rows [begin, end) of a rank-2 tensor as a new [end-begin, c] tensor.
Tensor SliceRows(const Tensor& a, int begin, int end);
/// Single row `r` as a [1, c] tensor.
Tensor Row(const Tensor& a, int r);
/// Gathers rows by index (duplicates allowed); backward scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

// -- Activations -------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float alpha = 0.2f);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
/// GELU: 0.5 * x * (1 + erf(x / sqrt(2))), with erf the polynomial
/// kernels::Erf (off by at most kernels::kTranscendentalMaxError).
Tensor Gelu(const Tensor& a);
Tensor Exp(const Tensor& a);

// -- Reductions --------------------------------------------------------

/// Sum of all elements -> scalar [1].
Tensor Sum(const Tensor& a);
/// Mean of all elements -> scalar [1].
Tensor Mean(const Tensor& a);
/// Column-wise sum over rows of [r, c] -> [1, c].
Tensor SumRows(const Tensor& a);
/// Column-wise mean over rows of [r, c] -> [1, c].
Tensor MeanRows(const Tensor& a);

// -- Neural-net primitives ---------------------------------------------

/// Softmax along the last dimension (per row for rank-2), numerically
/// stabilized by max subtraction.
Tensor Softmax(const Tensor& a);

/// Fused layer normalization per row of [r, c]:
///   y = gamma * (x - mean) / sqrt(var + eps) + beta
/// `gamma` and `beta` are rank-1 [c].
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Fused affine map: x [n, in] * w [in, out] + bias, one graph node
/// instead of MatMul + Add. `bias` is rank-1 [out] broadcast over rows,
/// or an undefined Tensor for no bias. (Named LinearOp because `Linear`
/// is the nn-layer class in this namespace; nn::Linear::Forward calls
/// this.)
Tensor LinearOp(const Tensor& x, const Tensor& w,
                const Tensor& bias = Tensor());

/// Fused attention probabilities: row-softmax(scale * q * k^T + mask)
/// in one graph node instead of MatMul + Transpose + Scale + Add +
/// Softmax. `q` is [Lq, d], `k` is [Lk, d] (untransposed, as projected);
/// `mask` is an optional additive [Lq, Lk] tensor (e.g. -1e9 diagonal
/// for self-attention). Returns the [Lq, Lk] attention distribution.
Tensor AttentionScores(const Tensor& q, const Tensor& k, float scale,
                       const Tensor& mask = Tensor());

/// Packed self-attention probabilities (DESIGN.md §11). `k` is an
/// [n, d] row block holding several sequences: sequence s is rows
/// [segments[s], segments[s + 1]), and `segments` starts at 0. `q`
/// [n, d] holds the sequences' query rows as QueryRows packs them (with
/// an empty `queries`, every row: then `q` is laid out like `k`). Each
/// query row attends only within its sequence, with its own position
/// masked by -1e9 unless the sequence is one row long, and is computed
/// with its sequence's length, so its probabilities carry the bits of
/// AttentionScores over that sequence alone with MultiHeadSelfAttention's
/// diagonal mask. Returns an [n, n] buffer whose first Σ qlen·len floats
/// hold the sequences' [qlen, len] blocks in order. Inference only. A
/// replay takes the tables from graph::Replay, so one graph serves any
/// layout.
Tensor AttentionScores(const Tensor& q, const Tensor& k, float scale,
                       std::span<const int> segments,
                       std::span<const int> queries = {});

/// Packed counterpart of MatMul(attn, v): each sequence's [qlen, len]
/// block of `attn` (the packed AttentionScores above) times its rows of
/// `v` [n, d] -> [n, d] whose query rows are packed as QueryRows packs
/// them. Inference only.
Tensor MatMul(const Tensor& attn, const Tensor& v,
              std::span<const int> segments,
              std::span<const int> queries = {});

/// Packed query-row gather: sequence s's first
/// queries[s + 1] - queries[s] rows of `a` [n, d] (sequence s is rows
/// [segments[s], segments[s + 1])), packed at rows
/// [queries[s], queries[s + 1]) of an [n, d] result whose remaining rows
/// are zero when run eagerly. An empty `queries` takes every row. In a
/// captured graph its result and everything computed from it are on the
/// query side (graph::Replay): a replay runs them over the query rows of
/// its own query table. Inference only.
Tensor QueryRows(const Tensor& a, std::span<const int> segments,
                 std::span<const int> queries = {});

/// Gathers embedding rows: weight [V, F], ids in [0, V) -> [n, F].
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids);

/// Inverted dropout: zeroes entries with probability p and rescales the
/// survivors by 1/(1-p). Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

/// Mean softmax cross-entropy of logits [n, classes] against integer
/// labels. If `probs_out` is non-null it receives the detached softmax
/// probabilities (for metrics).
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels,
                           Tensor* probs_out = nullptr);

}  // namespace hiergat

#endif  // HIERGAT_TENSOR_OPS_H_
