#ifndef HIERGAT_NN_OPTIMIZER_H_
#define HIERGAT_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace hiergat {

/// Adam (Kingma & Ba 2015) over a fixed parameter list — the optimizer
/// the paper uses (§6.1).
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored in the
  /// parameters.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Tensor& p : params_) p.ZeroGrad();
  }

  /// Scales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clipping norm.
  float ClipGradNorm(float max_norm);

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  /// Per-parameter learning-rate multipliers (size must equal the
  /// parameter count). Used to fine-tune pre-trained backbones at a
  /// lower rate than freshly initialized heads (the BERT-style 1e-5
  /// vs 1e-3 split).
  void SetLrMultipliers(std::vector<float> multipliers);

 private:
  std::vector<Tensor> params_;
  float lr_, beta1_, beta2_, eps_;
  int64_t step_count_ = 0;
  std::vector<float> lr_multipliers_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace hiergat

#endif  // HIERGAT_NN_OPTIMIZER_H_
