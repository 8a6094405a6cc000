#ifndef HIERGAT_NN_LINEAR_H_
#define HIERGAT_NN_LINEAR_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace hiergat {

/// Fully connected layer: y = x W + b for x of shape [n, in_features].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool use_bias = true);

  /// Applies the affine map to a [n, in_features] input.
  Tensor Forward(const Tensor& x) const;

  void RegisterParameters(NamedParameters* out) const override {
    (void)out->Add("weight", weight_);
    if (bias_.defined()) (void)out->Add("bias", bias_);
  }

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]; undefined when use_bias is false
};

}  // namespace hiergat

#endif  // HIERGAT_NN_LINEAR_H_
