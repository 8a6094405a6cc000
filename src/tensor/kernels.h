#ifndef HIERGAT_TENSOR_KERNELS_H_
#define HIERGAT_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hiergat {

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
// (AVX2) and dispatches through a registry resolved at startup. ops.cc,
// forward bodies and backward closures alike, calls backend::, never
// kernels:: directly. Only the registry's scalar table, tests and
// benches name kernels:: symbols.
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
/// y[i] = GELU(x[i]) = 0.5 * x[i] * (1 + Erf(x[i] / sqrt(2))).
void GeluInto(size_t n, const float* x, float* y);
/// gx[i] += gy[i] * GELU'(x[i]), the derivative of GeluInto's formula:
/// 0.5 * (1 + Erf(x / sqrt(2))) + x * Exp(-x^2 / 2) / sqrt(2 pi).
void GeluBackwardAccumulate(size_t n, const float* x, const float* gy,
                            float* gx);

// -- Transcendentals -----------------------------------------------------
//
// The polynomial erf and exp that GeluInto, GeluBackwardAccumulate and
// SoftmaxRows inline (DESIGN.md §9). Every backend compiles the same
// bodies, so they are bit-identical across backends; against the exact
// functions they are off by at most kTranscendentalMaxError.

/// Bounds |Erf(x) - erf(x)| for every x, and |Exp(x) - exp(x)| / exp(x)
/// for x in [ln(FLT_MIN), ln(FLT_MAX)].
constexpr float kTranscendentalMaxError = 5e-7f;

/// erf(x). Exactly +-1 for |x| >= 4 (and at +-inf); NaN stays NaN.
float Erf(float x);
/// exp(x). Exactly 0 below ln(FLT_MIN) ~ -87.34 (no subnormal results)
/// and at -inf, +inf above ln(FLT_MAX); NaN stays NaN.
float Exp(float x);

// -- Row-structured ------------------------------------------------------

/// inout[r,c] += bias[c] for every row (fused Linear bias).
void AddBiasRows(int rows, int cols, const float* bias, float* inout);
/// dst[c] += sum_r src[r,c] (bias gradient / SumRows backward shape).
void ColSumAccumulate(int rows, int cols, const float* src, float* dst);

/// Row-wise softmax of x[rows,cols] into y, max-subtracted for
/// stability, with Exp; each row's denominator sums in ascending column
/// order. In-place (y == x) is allowed.
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

// -- Blocking ------------------------------------------------------------
//
// The ANN index's dots and the hashed n-gram word vectors
// (DESIGN.md §16).

/// sum_i a[i] * b[i] in one fixed association (16 lane partials folded
/// in halves, kernel_body.inc): the f32 rerank cosine of the ANN index,
/// bit-identical across backends.
float Dot(int dim, const float* a, const float* b);

/// out[r] = sum_i q[i] * rows[slots[r] * dim + i] for r < n: one query
/// against n gathered rows of a row-major int8 table. Exact. Entries
/// must lie in [-127, 127]; the AVX2 body relies on that, and the ANN
/// index's quantizer guarantees it. This reference is a plain loop in
/// kernels.cc; the AVX2 backend has its own body (backend_avx2.cc).
void DotI8Rows(int dim, const int8_t* q, const int8_t* rows,
               const int32_t* slots, int n, int32_t* out);

/// acc[d] += the d-th component of the hashed ~N(0, 1) vector of one
/// character n-gram (HashedEmbeddings): splitmix64 output d + 1 of the
/// stream seeded at `hash`, mapped through an Irwin-Hall sum of its four
/// 16-bit fields.
void HashedNgramAccumulate(uint64_t hash, int dim, float* acc);

}  // namespace kernels
}  // namespace hiergat

#endif  // HIERGAT_TENSOR_KERNELS_H_
