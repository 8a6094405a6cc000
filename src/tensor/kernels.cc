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

}  // namespace kernels
}  // namespace hiergat
