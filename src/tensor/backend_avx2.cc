// AVX2 backend: tensor/kernel_body.inc recompiled with -mavx2,
// -ffp-contract=off and -fno-trapping-math (src/tensor/CMakeLists.txt).
// The wider vectors only split the j/column lanes of each kernel's
// inner loop, and with contraction off GCC neither fuses mul+add nor
// reassociates reductions, so every result is bit-identical to the
// scalar reference — kernels_test asserts exact equality.
// The int8 row dot is the one hand-written body: integer sums are exact
// in any order, so it needs no shared source to match. This TU is only
// compiled on x86 (the CMakeLists gates it and defines
// HIERGAT_HAVE_AVX2_TU); whether it is *used* is decided at runtime from
// __builtin_cpu_supports("avx2") in backend.cc.

#include <immintrin.h>

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

/// Row-group width of DotI8Rows: one hadd tree reduces four rows.
constexpr int kDotRows = 4;

/// Products of one 32-byte chunk as eight int32 partials, the int8 dot
/// of ggml (SNIPPETS.md snippet 3): maddubs multiplies unsigned by
/// signed bytes, so |q| meets the row with q's sign moved onto it. Each
/// int16 pair sum is at most 2 * 127 * 127 < 2^15, so nothing saturates
/// as long as no byte is -128 (whose negation and absolute value do not
/// fit in int8).
[[gnu::always_inline]] inline __m256i ChunkDot(__m256i q_abs, __m256i q,
                                               const int8_t* row) {
  const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
  const __m256i pairs = _mm256_maddubs_epi16(q_abs, _mm256_sign_epi8(r, q));
  return _mm256_madd_epi16(pairs, _mm256_set1_epi16(1));
}

/// DotI8Rows over groups of kDotRows rows. With kChunks > 0 (dim / 32 is
/// known) the query's chunks stay in registers across all groups;
/// kChunks == 0 reloads them per group. A short last group aliases its
/// missing rows to its last real row and stores only the real ones.
template <int kChunks>
void DotI8RowsBody(int dim, const int8_t* q, const int8_t* rows,
                   const int32_t* slots, int n, int32_t* out) {
  const int chunks = kChunks > 0 ? kChunks : dim / 32;
  const int body = 32 * chunks;
  __m256i q_held[kChunks > 0 ? kChunks : 1];
  __m256i q_abs_held[kChunks > 0 ? kChunks : 1];
  if constexpr (kChunks > 0) {
    for (int c = 0; c < kChunks; ++c) {
      q_held[c] =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 32 * c));
      q_abs_held[c] = _mm256_abs_epi8(q_held[c]);
    }
  }
  for (int r0 = 0; r0 < n; r0 += kDotRows) {
    const int live = std::min(kDotRows, n - r0);
    const int8_t* row[kDotRows];
    for (int r = 0; r < kDotRows; ++r) {
      row[r] = rows + static_cast<size_t>(slots[r0 + std::min(r, live - 1)]) *
                          static_cast<size_t>(dim);
    }
    __m256i acc[kDotRows];
    for (int r = 0; r < kDotRows; ++r) acc[r] = _mm256_setzero_si256();
    for (int c = 0; c < chunks; ++c) {
      __m256i qv, qa;
      if constexpr (kChunks > 0) {
        qv = q_held[c];
        qa = q_abs_held[c];
      } else {
        qv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 32 * c));
        qa = _mm256_abs_epi8(qv);
      }
      for (int r = 0; r < kDotRows; ++r) {
        acc[r] = _mm256_add_epi32(acc[r], ChunkDot(qa, qv, row[r] + 32 * c));
      }
    }
    // hadd(hadd(a0, a1), hadd(a2, a3)) leaves row r's partial sums in
    // lane r of both 128-bit halves.
    const __m256i sums = _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                                           _mm256_hadd_epi32(acc[2], acc[3]));
    alignas(16) int32_t lane[kDotRows];
    _mm_store_si128(reinterpret_cast<__m128i*>(lane),
                    _mm_add_epi32(_mm256_castsi256_si128(sums),
                                  _mm256_extracti128_si256(sums, 1)));
    for (int r = 0; r < live; ++r) {
      int32_t sum = lane[r];
      for (int i = body; i < dim; ++i) {
        sum += static_cast<int32_t>(q[i]) * static_cast<int32_t>(row[r][i]);
      }
      out[r0 + r] = sum;
    }
  }
}

void DotI8Rows(int dim, const int8_t* q, const int8_t* rows,
               const int32_t* slots, int n, int32_t* out) {
  // At the bench index's dim 128 the query stays in registers: 10-13%
  // less time per row than reloading it per group, in an interleaved
  // ablation over lists of 24 and 48 gathered rows (CHANGES.md).
  if (dim / 32 == 4) return DotI8RowsBody<4>(dim, q, rows, slots, n, out);
  DotI8RowsBody<0>(dim, q, rows, slots, n, out);
}

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
      &avx2_impl::Dot,
      &avx2_impl::DotI8Rows,
      &avx2_impl::HashedNgramAccumulate,
  };
  return &table;
}

}  // namespace backend
}  // namespace hiergat
