#ifndef HIERGAT_NN_LAYER_NORM_H_
#define HIERGAT_NN_LAYER_NORM_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace hiergat {

/// Layer normalization with learnable gain/bias over the last dimension.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int dim)
      : dim_(dim),
        gamma_(Tensor::Full({dim}, 1.0f, /*requires_grad=*/true)),
        beta_(Tensor::Zeros({dim}, /*requires_grad=*/true)) {}

  /// Normalizes each row of a [n, dim] input.
  Tensor Forward(const Tensor& x) const {
    return LayerNorm(x, gamma_, beta_);
  }

  void RegisterParameters(NamedParameters* out) const override {
    (void)out->Add("gamma", gamma_);
    (void)out->Add("beta", beta_);
  }

  int dim() const { return dim_; }

 private:
  int dim_;
  Tensor gamma_;
  Tensor beta_;
};

}  // namespace hiergat

#endif  // HIERGAT_NN_LAYER_NORM_H_
