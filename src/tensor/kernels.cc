#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/threadpool.h"

namespace hiergat {
namespace kernels {

// Scalar reference instantiation of the shared kernel bodies. This TU
// is compiled at the build's baseline ISA (see src/tensor/CMakeLists
// — no -mavx2), so the symbols here are the portable backend the
// registry falls back to and the yardstick every wide backend must
// match bit-for-bit.
#include "tensor/kernel_body.inc"

namespace internal {

bool RunSerial(const ThreadPool* pool, int rows, int64_t work,
               int64_t min_work) {
  return pool == nullptr || pool->num_threads() <= 1 || rows < 2 ||
         work < min_work || ParallelismBanned();
}

int64_t RowGrain(int rows, int lanes, int multiple) {
  const int64_t target =
      (static_cast<int64_t>(rows) + 4 * lanes - 1) / (4 * lanes);
  const int64_t aligned =
      (target + multiple - 1) / multiple * static_cast<int64_t>(multiple);
  return std::max<int64_t>(multiple, aligned);
}

}  // namespace internal

using internal::kMinParallelElems;
using internal::kMinParallelFlops;
using internal::RowGrain;
using internal::RunSerial;

void ParallelGemmNN(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c) {
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (RunSerial(pool, m, flops, kMinParallelFlops)) {
    GemmNN(m, n, k, alpha, a, b, c);
    return;
  }
  pool->ParallelFor(0, m, RowGrain(m, pool->num_threads(), kMR),
                    [=](int64_t r0, int64_t r1) {
                      GemmNN(static_cast<int>(r1 - r0), n, k, alpha,
                             a + r0 * k, b, c + r0 * n);
                    });
}

void ParallelGemmNT(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c) {
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (RunSerial(pool, m, flops, kMinParallelFlops)) {
    GemmNT(m, n, k, alpha, a, b, c);
    return;
  }
  pool->ParallelFor(0, m, RowGrain(m, pool->num_threads(), kMR),
                    [=](int64_t r0, int64_t r1) {
                      GemmNT(static_cast<int>(r1 - r0), n, k, alpha,
                             a + r0 * k, b, c + r0 * n);
                    });
}

void ParallelGemmTN(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c) {
  (void)pool;  // See header: strided A blocks keep this one serial.
  GemmTN(m, n, k, alpha, a, b, c);
}

void ParallelSoftmaxRows(ThreadPool* pool, int rows, int cols, const float* x,
                         float* y) {
  const int64_t elems = static_cast<int64_t>(rows) * cols;
  if (RunSerial(pool, rows, elems, kMinParallelElems)) {
    SoftmaxRows(rows, cols, x, y);
    return;
  }
  pool->ParallelFor(0, rows, RowGrain(rows, pool->num_threads(), 1),
                    [=](int64_t r0, int64_t r1) {
                      SoftmaxRows(static_cast<int>(r1 - r0), cols,
                                  x + r0 * cols, y + r0 * cols);
                    });
}

void ParallelLayerNormRows(ThreadPool* pool, int rows, int cols, float eps,
                           const float* x, const float* gamma,
                           const float* beta, float* y, float* xhat,
                           float* inv_std) {
  const int64_t elems = static_cast<int64_t>(rows) * cols;
  if (RunSerial(pool, rows, elems, kMinParallelElems)) {
    LayerNormRows(rows, cols, eps, x, gamma, beta, y, xhat, inv_std);
    return;
  }
  pool->ParallelFor(0, rows, RowGrain(rows, pool->num_threads(), 1),
                    [=](int64_t r0, int64_t r1) {
                      LayerNormRows(static_cast<int>(r1 - r0), cols, eps,
                                    x + r0 * cols, gamma, beta, y + r0 * cols,
                                    xhat + r0 * cols, inv_std + r0);
                    });
}

}  // namespace kernels
}  // namespace hiergat
