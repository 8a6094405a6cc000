#ifndef HIERGAT_ER_GRAPH_ATTENTION_H_
#define HIERGAT_ER_GRAPH_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace hiergat {

/// The vanilla graph-attention pooling operation used throughout the
/// paper (Eq. 1-5): scores each node, softmax-normalizes, and returns
/// the weighted sum of value rows.
///
///   score_i = c^T LeakyReLU(W x_i)        (W optional)
///   h       = softmax(score)
///   out     = sum_i h_i * value_i
///
/// `score_inputs` rows x_i may be plain node embeddings or node
/// embeddings concatenated with a broadcast context (the caller builds
/// the concatenation; see TileRows).
class GraphAttentionPool : public Module {
 public:
  /// `score_dim`: width of score-input rows. If `project` is true a
  /// learnable W maps rows to `proj_dim` before scoring (proj_dim
  /// defaults to score_dim).
  GraphAttentionPool(int score_dim, Rng& rng, bool project = true,
                     int proj_dim = 0);

  /// Pools `values` [n, Dv] with scores from `score_inputs` [n, Ds].
  /// Returns [1, Dv]. `weights`, when given, receives the row-stochastic
  /// weights [1, n] (detached; for introspection).
  Tensor Pool(const Tensor& score_inputs, const Tensor& values,
              Tensor* weights = nullptr) const;

  void RegisterParameters(NamedParameters* out) const override {
    if (w_ != nullptr) out->AddModule("w", *w_);
    out->AddModule("scorer", *scorer_);
  }

 private:
  std::unique_ptr<Linear> w_;       // Optional projection.
  std::unique_ptr<Linear> scorer_;  // The context vector c as a 1-dim map.
};

/// Repeats a [1, d] row `n` times -> [n, d] (differentiable broadcast).
Tensor TileRows(const Tensor& row, int n);

}  // namespace hiergat

#endif  // HIERGAT_ER_GRAPH_ATTENTION_H_
