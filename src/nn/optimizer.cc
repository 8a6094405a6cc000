#include "nn/optimizer.h"

#include <cmath>

namespace hiergat {

float Adam::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (Tensor& p : params_) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Tensor& p : params_) {
      for (float& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].data().size(), 0.0f);
    v_[i].assign(params_[i].data().size(), 0.0f);
  }
}

void Adam::SetLrMultipliers(std::vector<float> multipliers) {
  lr_multipliers_ = std::move(multipliers);
}

void Adam::Step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;
    const float lr =
        i < lr_multipliers_.size() ? lr_ * lr_multipliers_[i] : lr_;
    for (size_t j = 0; j < p.data().size(); ++j) {
      const float g = p.grad()[j];
      m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * g;
      v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * g * g;
      const float mhat = m_[i][j] / bias1;
      const float vhat = v_[i][j] / bias2;
      p.data()[j] -= lr * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace hiergat
