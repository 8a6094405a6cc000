#ifndef HIERGAT_NN_MLP_H_
#define HIERGAT_NN_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace hiergat {

/// Multi-layer perceptron with ReLU between layers (none after the last).
/// `dims` lists layer widths including input and output, e.g.
/// {96, 64, 2} builds Linear(96,64) -> ReLU -> Linear(64,2).
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  void RegisterParameters(NamedParameters* out) const override {
    for (size_t i = 0; i < layers_.size(); ++i) {
      out->AddModule("fc" + std::to_string(i), *layers_[i]);
    }
  }

  int input_dim() const { return dims_.front(); }
  int output_dim() const { return dims_.back(); }

 private:
  std::vector<int> dims_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Highway layer (Srivastava et al. 2015), used by the DeepMatcher
/// classifier: y = t * relu(W x + b) + (1 - t) * x with transform gate
/// t = sigmoid(Wt x + bt).
class Highway : public Module {
 public:
  Highway(int dim, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("transform", *transform_);
    out->AddModule("gate", *gate_);
  }

 private:
  std::unique_ptr<Linear> transform_;
  std::unique_ptr<Linear> gate_;
};

}  // namespace hiergat

#endif  // HIERGAT_NN_MLP_H_
