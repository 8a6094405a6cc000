// AVX2 backend: tensor/kernel_body.inc recompiled with -mavx2,
// -ffp-contract=off and -fno-trapping-math (src/tensor/CMakeLists.txt).
// The wider vectors only split the j/column lanes of each kernel's
// inner loop, and with contraction off GCC neither fuses mul+add nor
// reassociates reductions, so every result is bit-identical to the
// scalar reference — quant_test asserts exact equality. This TU is only compiled on
// x86 (the CMakeLists gates it and defines HIERGAT_HAVE_AVX2_TU);
// whether it is *used* is decided at runtime from
// __builtin_cpu_supports("avx2") in backend.cc.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/backend.h"

namespace hiergat {
namespace backend {
namespace {
namespace avx2_impl {

#include "tensor/kernel_body.inc"

}  // namespace avx2_impl
}  // namespace

const Kernels* Avx2Backend() {
  static const Kernels table = {
      "avx2",
      &avx2_impl::GemmNN,
      &avx2_impl::GemmNT,
      &avx2_impl::GemmTN,
      &avx2_impl::Gemv,
      &avx2_impl::Axpy,
      &avx2_impl::Accumulate,
      &avx2_impl::AddInto,
      &avx2_impl::SubInto,
      &avx2_impl::MulInto,
      &avx2_impl::MulAccumulate,
      &avx2_impl::ScaleInto,
      &avx2_impl::GeluInto,
      &avx2_impl::GeluBackwardAccumulate,
      &avx2_impl::AddBiasRows,
      &avx2_impl::ColSumAccumulate,
      &avx2_impl::SoftmaxRows,
      &avx2_impl::SoftmaxBackwardRows,
      &avx2_impl::LayerNormRows,
      &avx2_impl::LayerNormBackwardRows,
  };
  return &table;
}

}  // namespace backend
}  // namespace hiergat
