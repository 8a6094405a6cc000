#ifndef HIERGAT_NN_ATTENTION_H_
#define HIERGAT_NN_ATTENTION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace hiergat {

/// Multi-head scaled-dot-product self-attention over one sequence.
///
/// Input is [seq_len, dim]; each head h projects to dim/heads, attends,
/// and the concatenated head outputs pass through an output projection.
/// Padding masks are unnecessary: the library processes one variable-
/// length sequence at a time, or, on the packed inference path, several
/// sequences whose attention stays block-diagonal (`segments`).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int dim, int num_heads, Rng& rng);

  /// Self-attention: queries, keys, and values all come from `x`. With
  /// `segments`, `x` packs several sequences (sequence s is rows
  /// [segments[s], segments[s + 1])) and each attends only within itself
  /// through the packed AttentionScores/MatMul ops (tensor/ops.h);
  /// inference only. With `queries` too, only the query rows attend
  /// (QueryRows picks and packs them) and only they come out; keys and
  /// values still come from every row. `attention`: see below.
  Tensor Forward(const Tensor& x, std::span<const int> segments = {},
                 std::span<const int> queries = {},
                 Tensor* attention = nullptr) const {
    return Forward(x, x, segments, queries, attention);
  }

  /// Cross-attention: queries from `q_input` [Lq, dim], keys/values from
  /// `kv_input` [Lk, dim]. Returns [Lq, dim]. `segments` and `queries`
  /// need self-attention. When `attention` is given and the input is not
  /// packed, it receives the row-stochastic attention matrix [Lq, Lk]
  /// averaged over heads (detached; for attention visualization).
  Tensor Forward(const Tensor& q_input, const Tensor& kv_input,
                 std::span<const int> segments = {},
                 std::span<const int> queries = {},
                 Tensor* attention = nullptr) const;

  void RegisterParameters(NamedParameters* out) const override {
    for (size_t h = 0; h < q_proj_.size(); ++h) {
      const std::string i = std::to_string(h);
      out->AddModule("q" + i, *q_proj_[h]);
      out->AddModule("k" + i, *k_proj_[h]);
      out->AddModule("v" + i, *v_proj_[h]);
    }
    out->AddModule("out", *out_proj_);
  }

  int dim() const { return dim_; }
  int num_heads() const { return num_heads_; }

 private:
  int dim_;
  int num_heads_;
  int head_dim_;
  std::vector<std::unique_ptr<Linear>> q_proj_;  // one per head, dim->head_dim
  std::vector<std::unique_ptr<Linear>> k_proj_;
  std::vector<std::unique_ptr<Linear>> v_proj_;
  std::unique_ptr<Linear> out_proj_;             // dim->dim
};

}  // namespace hiergat

#endif  // HIERGAT_NN_ATTENTION_H_
