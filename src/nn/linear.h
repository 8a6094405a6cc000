#ifndef HIERGAT_NN_LINEAR_H_
#define HIERGAT_NN_LINEAR_H_

#include <memory>
#include <vector>

#include "core/quant.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace hiergat {

/// Fully connected layer: y = x W + b for x of shape [n, in_features].
///
/// The weight owns a Q8_0 storage slot (core/quant.h). It only decides
/// how a checkpoint stores the weight: NamedParameters::QuantizeAll and
/// a kQ8_0 load both fill the f32 weight with the dequantized values,
/// and Forward always runs the f32 LinearOp on it.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool use_bias = true);

  /// Applies the affine map to a [n, in_features] input.
  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

  void RegisterParameters(NamedParameters* out) const override {
    (void)out->AddQuantizable("weight", weight_, weight_q8_);
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
  std::shared_ptr<q8::QuantizedTensor> weight_q8_ =
      std::make_shared<q8::QuantizedTensor>();
};

}  // namespace hiergat

#endif  // HIERGAT_NN_LINEAR_H_
