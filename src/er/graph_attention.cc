#include "er/graph_attention.h"

#include "core/logging.h"
#include "tensor/ops.h"

namespace hiergat {

GraphAttentionPool::GraphAttentionPool(int score_dim, Rng& rng, bool project,
                                       int proj_dim) {
  const int inner = proj_dim > 0 ? proj_dim : score_dim;
  if (project) {
    w_ = std::make_unique<Linear>(score_dim, inner, rng, /*use_bias=*/false);
    scorer_ = std::make_unique<Linear>(inner, 1, rng, /*use_bias=*/false);
  } else {
    scorer_ =
        std::make_unique<Linear>(score_dim, 1, rng, /*use_bias=*/false);
  }
}

Tensor GraphAttentionPool::Pool(const Tensor& score_inputs,
                                const Tensor& values, Tensor* weights) const {
  HG_CHECK_EQ(score_inputs.dim(0), values.dim(0));
  Tensor h = score_inputs;
  if (w_) h = w_->Forward(h);
  Tensor scores = scorer_->Forward(LeakyRelu(h));      // [n, 1]
  Tensor attention = Softmax(Transpose(scores));       // [1, n]
  if (weights != nullptr) *weights = attention.Detach();
  return MatMul(attention, values);                    // [1, Dv]
}

Tensor TileRows(const Tensor& row, int n) {
  HG_CHECK_EQ(row.dim(0), 1);
  return GatherRows(row, std::vector<int>(static_cast<size_t>(n), 0));
}

}  // namespace hiergat
