#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hiergat {
namespace kernels {

// Scalar reference instantiation of the shared kernel bodies. This TU
// is compiled at the build's baseline ISA (see src/tensor/CMakeLists
// — no -mavx2), so the symbols here are the portable backend the
// registry falls back to and the yardstick every wide backend must
// match bit-for-bit.
#include "tensor/kernel_body.inc"

// The int8 row dot is exact in any order, so each ISA may bring its own
// body (backend_avx2.cc); this plain loop is the reference.
void DotI8Rows(int dim, const int8_t* q, const int8_t* rows,
               const int32_t* slots, int n, int32_t* out) {
  for (int r = 0; r < n; ++r) {
    const int8_t* row = rows + static_cast<size_t>(slots[r]) * dim;
    int32_t sum = 0;
    for (int i = 0; i < dim; ++i) {
      sum += static_cast<int32_t>(q[i]) * static_cast<int32_t>(row[i]);
    }
    out[r] = sum;
  }
}

}  // namespace kernels
}  // namespace hiergat
