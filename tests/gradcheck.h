#ifndef HIERGAT_TESTS_GRADCHECK_H_
#define HIERGAT_TESTS_GRADCHECK_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace hiergat {

/// Result of a numerical gradient check.
struct GradCheckResult {
  bool passed = false;
  float max_abs_error = 0.0f;
  float max_rel_error = 0.0f;
  int worst_input = -1;   // Index of the input tensor with the worst error.
  int worst_element = -1; // Flat element index within that input.
};

/// Verifies reverse-mode gradients against central finite differences.
///
/// `forward` must map the given inputs to a scalar tensor, rebuilding the
/// graph on every call (it is invoked O(total elements) times). All inputs
/// must have requires_grad set. `epsilon` is the finite-difference step
/// and `tolerance` the max allowed |analytic - numeric| after dividing by
/// max(1, |numeric|).
GradCheckResult CheckGradients(
    const std::function<Tensor(const std::vector<Tensor>&)>& forward,
    std::vector<Tensor>& inputs, float epsilon = 1e-3f,
    float tolerance = 2e-2f);

}  // namespace hiergat

#endif  // HIERGAT_TESTS_GRADCHECK_H_
