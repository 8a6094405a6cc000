#ifndef HIERGAT_TENSOR_BACKEND_H_
#define HIERGAT_TENSOR_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hiergat {
namespace backend {

// Backend registry: every compute kernel the op layer uses, behind a
// dispatch table of function pointers resolved once at startup.
//
// Each registered backend compiles the *same* bodies
// (tensor/kernel_body.inc) at a different ISA:
//   - "scalar": tensor/kernels.cc at the build's baseline flags — the
//     portable reference, always registered.
//   - "avx2":   tensor/backend_avx2.cc, -mavx2 -ffp-contract=off,
//     registered on x86 when the running CPU reports AVX2.
//   - "neon":   on aarch64 the baseline ISA already includes NEON, so
//     the reference TU doubles as the native backend under its own
//     name.
// Because the source is shared, every kernel accumulates in the same
// per-element order and contraction is off, so all backends are
// bit-identical — golden fixtures and the HIERGAT_BACKEND=scalar CI
// leg depend on that, and kernels_test's parity suites assert it with
// exact equality. The one per-ISA body, dot_i8_rows,
// sums integers, which are exact in any order.
//
// Selection: the best native backend wins by default; the environment
// variable HIERGAT_BACKEND overrides it ("scalar", "native", or an
// exact backend name). Read once — changing the variable after the
// first kernel call has no effect.
//
// This is the seam later accelerator bridges (BLAS, GPU) plug into:
// implement the table, register it, and every op routes through.

/// One compute backend's dispatch table. Signatures mirror
/// tensor/kernels.h one-for-one.
struct Kernels {
  const char* name;

  // GEMM family.
  void (*gemm_nn)(int m, int n, int k, float alpha, const float* a,
                  const float* b, float* c);
  void (*gemm_nt)(int m, int n, int k, float alpha, const float* a,
                  const float* b, float* c);
  void (*gemm_tn)(int m, int n, int k, float alpha, const float* a,
                  const float* b, float* c);
  void (*gemv)(int n, int k, float alpha, const float* x, const float* b,
               float* y);

  // Elementwise.
  void (*axpy)(size_t n, float alpha, const float* x, float* y);
  void (*accumulate)(size_t n, const float* x, float* y);
  void (*add_into)(size_t n, const float* a, const float* b, float* out);
  void (*sub_into)(size_t n, const float* a, const float* b, float* out);
  void (*mul_into)(size_t n, const float* a, const float* b, float* out);
  void (*mul_accumulate)(size_t n, const float* x, const float* w, float* y);
  void (*scale_into)(size_t n, float s, const float* x, float* out);
  void (*gelu_into)(size_t n, const float* x, float* y);
  void (*gelu_backward_accumulate)(size_t n, const float* x,
                                   const float* gy, float* gx);

  // Row-structured.
  void (*add_bias_rows)(int rows, int cols, const float* bias, float* inout);
  void (*col_sum_accumulate)(int rows, int cols, const float* src,
                             float* dst);
  void (*softmax_rows)(int rows, int cols, const float* x, float* y);
  void (*softmax_backward_rows)(int rows, int cols, const float* y,
                                const float* gy, float* gx);
  void (*layer_norm_rows)(int rows, int cols, float eps, const float* x,
                          const float* gamma, const float* beta, float* y,
                          float* xhat, float* inv_std);
  void (*layer_norm_backward_rows)(int rows, int cols, const float* xhat,
                                   const float* inv_std, const float* gamma,
                                   const float* gy, float* gx, float* ggamma,
                                   float* gbeta);

  // Blocking (blocking/ann_index.cc, text/hashed_embeddings.cc).
  float (*dot)(int dim, const float* a, const float* b);
  void (*dot_i8_rows)(int dim, const int8_t* q, const int8_t* rows,
                      const int32_t* slots, int n, int32_t* out);
  void (*hashed_ngram_accumulate)(uint64_t hash, int dim, float* acc);
};

/// The selected backend (env override or best native). Resolved on
/// first use, constant afterwards.
const Kernels& Active();

/// Name of the selected backend ("scalar", "avx2", "neon").
const char* ActiveName();

/// Every backend usable on this machine, scalar first. Parity tests
/// iterate this and compare each entry against the scalar reference.
const std::vector<const Kernels*>& Registered();

// -- Dispatch wrappers ---------------------------------------------------
//
// Call-site sugar: backend::GemmNN(...) == Active().gemm_nn(...).

inline void GemmNN(int m, int n, int k, float alpha, const float* a,
                   const float* b, float* c) {
  Active().gemm_nn(m, n, k, alpha, a, b, c);
}
inline void GemmNT(int m, int n, int k, float alpha, const float* a,
                   const float* b, float* c) {
  Active().gemm_nt(m, n, k, alpha, a, b, c);
}
inline void GemmTN(int m, int n, int k, float alpha, const float* a,
                   const float* b, float* c) {
  Active().gemm_tn(m, n, k, alpha, a, b, c);
}
inline void Gemv(int n, int k, float alpha, const float* x, const float* b,
                 float* y) {
  Active().gemv(n, k, alpha, x, b, y);
}
inline void Axpy(size_t n, float alpha, const float* x, float* y) {
  Active().axpy(n, alpha, x, y);
}
inline void Accumulate(size_t n, const float* x, float* y) {
  Active().accumulate(n, x, y);
}
inline void AddInto(size_t n, const float* a, const float* b, float* out) {
  Active().add_into(n, a, b, out);
}
inline void SubInto(size_t n, const float* a, const float* b, float* out) {
  Active().sub_into(n, a, b, out);
}
inline void MulInto(size_t n, const float* a, const float* b, float* out) {
  Active().mul_into(n, a, b, out);
}
inline void MulAccumulate(size_t n, const float* x, const float* w,
                          float* y) {
  Active().mul_accumulate(n, x, w, y);
}
inline void ScaleInto(size_t n, float s, const float* x, float* out) {
  Active().scale_into(n, s, x, out);
}
inline void GeluInto(size_t n, const float* x, float* y) {
  Active().gelu_into(n, x, y);
}
inline void GeluBackwardAccumulate(size_t n, const float* x, const float* gy,
                                   float* gx) {
  Active().gelu_backward_accumulate(n, x, gy, gx);
}
inline void AddBiasRows(int rows, int cols, const float* bias,
                        float* inout) {
  Active().add_bias_rows(rows, cols, bias, inout);
}
inline void ColSumAccumulate(int rows, int cols, const float* src,
                             float* dst) {
  Active().col_sum_accumulate(rows, cols, src, dst);
}
inline void SoftmaxRows(int rows, int cols, const float* x, float* y) {
  Active().softmax_rows(rows, cols, x, y);
}
inline void SoftmaxBackwardRows(int rows, int cols, const float* y,
                                const float* gy, float* gx) {
  Active().softmax_backward_rows(rows, cols, y, gy, gx);
}
inline void LayerNormRows(int rows, int cols, float eps, const float* x,
                          const float* gamma, const float* beta, float* y,
                          float* xhat, float* inv_std) {
  Active().layer_norm_rows(rows, cols, eps, x, gamma, beta, y, xhat,
                           inv_std);
}
inline void LayerNormBackwardRows(int rows, int cols, const float* xhat,
                                  const float* inv_std, const float* gamma,
                                  const float* gy, float* gx, float* ggamma,
                                  float* gbeta) {
  Active().layer_norm_backward_rows(rows, cols, xhat, inv_std, gamma, gy, gx,
                                    ggamma, gbeta);
}

inline float Dot(int dim, const float* a, const float* b) {
  return Active().dot(dim, a, b);
}
inline void DotI8Rows(int dim, const int8_t* q, const int8_t* rows,
                      const int32_t* slots, int n, int32_t* out) {
  Active().dot_i8_rows(dim, q, rows, slots, n, out);
}
inline void HashedNgramAccumulate(uint64_t hash, int dim, float* acc) {
  Active().hashed_ngram_accumulate(hash, dim, acc);
}

}  // namespace backend
}  // namespace hiergat

#endif  // HIERGAT_TENSOR_BACKEND_H_
