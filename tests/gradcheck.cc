#include "gradcheck.h"

#include <cmath>

#include "core/logging.h"

namespace hiergat {

GradCheckResult CheckGradients(
    const std::function<Tensor(const std::vector<Tensor>&)>& forward,
    std::vector<Tensor>& inputs, float epsilon, float tolerance) {
  GradCheckResult result;

  // Analytic pass.
  for (Tensor& t : inputs) {
    HG_CHECK(t.requires_grad());
    t.ZeroGrad();
  }
  Tensor loss = forward(inputs);
  loss.Backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (Tensor& t : inputs) {
    if (t.grad().empty()) {
      analytic.emplace_back(t.data().size(), 0.0f);
    } else {
      analytic.push_back(t.grad());
    }
  }

  // Numerical pass (central differences).
  result.passed = true;
  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    Tensor& t = inputs[ti];
    for (size_t ei = 0; ei < t.data().size(); ++ei) {
      const float original = t.data()[ei];
      t.data()[ei] = original + epsilon;
      const float up = forward(inputs).item();
      t.data()[ei] = original - epsilon;
      const float down = forward(inputs).item();
      t.data()[ei] = original;
      const float numeric = (up - down) / (2.0f * epsilon);
      const float abs_err = std::fabs(analytic[ti][ei] - numeric);
      const float rel_err = abs_err / std::max(1.0f, std::fabs(numeric));
      if (abs_err > result.max_abs_error) result.max_abs_error = abs_err;
      if (rel_err > result.max_rel_error) {
        result.max_rel_error = rel_err;
        result.worst_input = static_cast<int>(ti);
        result.worst_element = static_cast<int>(ei);
      }
      if (rel_err > tolerance) result.passed = false;
    }
  }
  return result;
}

}  // namespace hiergat
