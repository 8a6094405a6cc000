#include "nn/mlp.h"

#include "core/logging.h"
#include "tensor/ops.h"

namespace hiergat {

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) : dims_(dims) {
  HG_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = Relu(h);
  }
  return h;
}

Highway::Highway(int dim, Rng& rng) {
  transform_ = std::make_unique<Linear>(dim, dim, rng);
  gate_ = std::make_unique<Linear>(dim, dim, rng);
}

Tensor Highway::Forward(const Tensor& x) const {
  Tensor t = Sigmoid(gate_->Forward(x));
  Tensor h = Relu(transform_->Forward(x));
  Tensor ones = Tensor::Full(t.shape(), 1.0f);
  return Add(Mul(t, h), Mul(Sub(ones, t), x));
}

}  // namespace hiergat
