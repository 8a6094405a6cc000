#ifndef HIERGAT_TENSOR_KERNELS_H_
#define HIERGAT_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hiergat {

class ThreadPool;  // tensor/threadpool.h

namespace kernels {

// Raw-pointer compute kernels shared by forward ops and backward
// closures. This layer separates *what* an op computes from *how* the
// bytes move: everything here is plain dense row-major float math with
// no Tensor, shape, or autograd dependency, written so the compiler's
// vectorizer gets contiguous fixed-width inner loops (register-blocked
// GEMM micro-tiles, unrolled reductions).
//
// This namespace is the *scalar reference backend*: the bodies live in
// kernel_body.inc and are compiled here at the build's baseline ISA.
// tensor/backend.{h,cc} re-compiles the same bodies per wide ISA
// (AVX2) and dispatches through a registry resolved at startup; ops.cc
// calls backend::, never kernels:: directly. Tests and backward paths
// that want the reference semantics keep calling kernels::.
//
// Conventions:
//  - GEMM kernels *accumulate*: C += alpha * op(A) * op(B). Callers
//    zero C first when they want assignment (fresh tensor buffers and
//    EnsureGrad() buffers are already zero-filled).
//  - All matrices are dense row-major with no padding (leading
//    dimension == column count).
//  - `rows`/`cols`/`m`/`n`/`k` are int to match Tensor::dim().

// -- GEMM family ---------------------------------------------------------

/// C[m,n] += alpha * A[m,k] * B[k,n].
void GemmNN(int m, int n, int k, float alpha, const float* a, const float* b,
            float* c);

/// C[m,n] += alpha * A[m,k] * B[n,k]^T — the dA = dOut * B^T shape of
/// the MatMul backward pass (and the Q*K^T of attention scores).
void GemmNT(int m, int n, int k, float alpha, const float* a, const float* b,
            float* c);

/// C[m,n] += alpha * A[k,m]^T * B[k,n] — the dB = A^T * dOut shape of
/// the MatMul backward pass.
void GemmTN(int m, int n, int k, float alpha, const float* a, const float* b,
            float* c);

/// y[n] += alpha * x[k] * B[k,n] — single-row GEMM (the sgemv shape of
/// per-pair scoring); shares the GemmNN tiling with m = 1.
void Gemv(int n, int k, float alpha, const float* x, const float* b,
          float* y);

// -- Elementwise ---------------------------------------------------------

/// y[i] += alpha * x[i].
void Axpy(size_t n, float alpha, const float* x, float* y);
/// y[i] += x[i] (gradient accumulation; Axpy with alpha 1 without the
/// multiply).
void Accumulate(size_t n, const float* x, float* y);
/// out[i] = a[i] + b[i].
void AddInto(size_t n, const float* a, const float* b, float* out);
/// out[i] = a[i] - b[i].
void SubInto(size_t n, const float* a, const float* b, float* out);
/// out[i] = a[i] * b[i].
void MulInto(size_t n, const float* a, const float* b, float* out);
/// y[i] += x[i] * w[i] (Hadamard backward: dA += dOut ⊙ B).
void MulAccumulate(size_t n, const float* x, const float* w, float* y);
/// out[i] = s * x[i].
void ScaleInto(size_t n, float s, const float* x, float* out);

// -- Row-structured ------------------------------------------------------

/// inout[r,c] += bias[c] for every row (fused Linear bias).
void AddBiasRows(int rows, int cols, const float* bias, float* inout);
/// dst[c] += sum_r src[r,c] (bias gradient / SumRows backward shape).
void ColSumAccumulate(int rows, int cols, const float* src, float* dst);

/// Row-wise softmax of x[rows,cols] into y, max-subtracted for
/// stability. In-place (y == x) is allowed.
void SoftmaxRows(int rows, int cols, const float* x, float* y);

/// Row-wise softmax backward: gx[r,c] += (gy[r,c] - <gy_r, y_r>) *
/// y[r,c] where y is the forward output.
void SoftmaxBackwardRows(int rows, int cols, const float* y, const float* gy,
                         float* gx);

/// Row-wise layer norm: y = gamma * xhat + beta with
/// xhat = (x - mean_r) * inv_std_r. Writes the per-row inverse stddev
/// and normalized values needed by the backward pass into `inv_std`
/// [rows] and `xhat` [rows*cols].
void LayerNormRows(int rows, int cols, float eps, const float* x,
                   const float* gamma, const float* beta, float* y,
                   float* xhat, float* inv_std);

/// Layer-norm backward from cached xhat/inv_std. Any of gx / ggamma /
/// gbeta may be null to skip that input's gradient.
void LayerNormBackwardRows(int rows, int cols, const float* xhat,
                           const float* inv_std, const float* gamma,
                           const float* gy, float* gx, float* ggamma,
                           float* gbeta);

// -- Intra-op parallel wrappers ------------------------------------------
//
// Row-partitioned versions of the forward kernels above, dispatched
// over a persistent ThreadPool (tensor/threadpool.h). Each wrapper
// falls back to the serial kernel when `pool` is null, the pool has one
// lane, intra-op parallelism is banned on the calling thread, or the
// problem is below the parallel threshold — callers can use them
// unconditionally.
//
// Bit-identity: every kernel here accumulates each output element over
// k (or its row) in ascending order regardless of how rows are blocked,
// and ParallelFor's chunk boundaries depend only on the shape — so the
// parallel wrappers produce bit-identical results to the serial
// kernels at any thread count. GEMM row chunks are still aligned to the
// kMR micro-tile for locality.

/// C[m,n] += alpha * A[m,k] * B[k,n], rows of C partitioned.
void ParallelGemmNN(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c);

/// C[m,n] += alpha * A[m,k] * B[n,k]^T, rows of C partitioned.
void ParallelGemmNT(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c);

/// C[m,n] += alpha * A[k,m]^T * B[k,n]. Runs serial: the transposed-A
/// layout has leading dimension m, so a row block of C is a *strided*
/// column block of A that the dense kernel cannot address. TN only
/// appears on backward passes, which run under autograd rather than
/// the compiled replay path this family exists for.
void ParallelGemmTN(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c);

/// Row-wise softmax, rows partitioned. In-place (y == x) is allowed.
void ParallelSoftmaxRows(ThreadPool* pool, int rows, int cols, const float* x,
                         float* y);

/// Row-wise layer norm, rows partitioned; same outputs as LayerNormRows.
void ParallelLayerNormRows(ThreadPool* pool, int rows, int cols, float eps,
                           const float* x, const float* gamma,
                           const float* beta, float* y, float* xhat,
                           float* inv_std);

// -- Parallel-dispatch policy --------------------------------------------
//
// Shared by the wrappers above and the backend-registry wrappers
// (tensor/backend.cc) so both layers split rows identically — chunk
// boundaries are part of the bit-identity contract.

namespace internal {

// Minimum work before a kernel fans out: below this, dispatch overhead
// (one epoch bump + chunk claims) exceeds the compute being split.
constexpr int64_t kMinParallelFlops = 64 * 1024;  // multiply-adds
constexpr int64_t kMinParallelElems = 8 * 1024;   // row-op elements

// GEMM row chunks stay aligned to the kMR micro-tile height.
constexpr int kGemmRowMultiple = 4;

/// True when a parallel wrapper should just run the serial kernel.
bool RunSerial(const ThreadPool* pool, int rows, int64_t work,
               int64_t min_work);

/// Rows per chunk targeting ~4 chunks per lane, rounded up to
/// `multiple` (the GEMM micro-tile height) with a floor of one
/// multiple.
int64_t RowGrain(int rows, int lanes, int multiple);

}  // namespace internal

}  // namespace kernels
}  // namespace hiergat

#endif  // HIERGAT_TENSOR_KERNELS_H_
