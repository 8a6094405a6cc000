#include "nn/linear.h"

#include "core/logging.h"

namespace hiergat {

Linear::Linear(int in_features, int out_features, Rng& rng, bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = Tensor::Xavier(in_features, out_features, rng,
                           /*requires_grad=*/true);
  if (use_bias) {
    bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  HG_CHECK_EQ(x.dim(1), in_features_);
  // Fused GEMM + bias: one graph node, no intermediate xW tensor.
  return LinearOp(x, weight_, bias_);
}

}  // namespace hiergat
