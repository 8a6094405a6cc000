// Parity tests for the raw-pointer kernel layer against naive
// references, across the shapes that stress the blocking/unrolling
// (1x1, single row/col, tall/skinny, non-multiple-of-block), and of
// every registered backend against the scalar reference at the same
// shapes, bit for bit; exact-order tests that pin every registered
// backend's GEMM family to the accumulation order written out in frozen
// reference loops; accuracy and edge-case tests of the polynomial
// erf/exp against the double-precision functions; plus lifecycle tests
// for the pooled storage behind TensorImpl.

#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// Naive references: straightforward triple loops, no blocking.
void NaiveGemmNN(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(i) * k + kk] *
               b[static_cast<size_t>(kk) * n + j];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

void NaiveGemmNT(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(i) * k + kk] *
               b[static_cast<size_t>(j) * k + kk];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

void NaiveGemmTN(int m, int n, int k, float alpha, const float* a,
                 const float* b, float* c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        sum += a[static_cast<size_t>(kk) * m + i] *
               b[static_cast<size_t>(kk) * n + j];
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
}

struct GemmShape {
  int m, n, k;
};

// Odd shapes: unit, single row/column, tall/skinny, and sizes that are
// deliberately not multiples of the 4x16 micro-tile or the unroll-by-8
// dot-product width.
const GemmShape kShapes[] = {
    {1, 1, 1},  {1, 17, 1}, {1, 1, 9},   {5, 1, 7},   {1, 33, 12},
    {7, 5, 3},  {4, 16, 8}, {64, 3, 64}, {3, 64, 64}, {13, 31, 23},
    {33, 47, 19}, {17, 64, 5},
};

class GemmParity : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmParity, NNMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 1);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 2);
  std::vector<float> got(static_cast<size_t>(m) * n, 0.5f);
  std::vector<float> want = got;  // Same non-zero start: += semantics.
  kernels::GemmNN(m, n, k, 1.3f, a.data(), b.data(), got.data());
  NaiveGemmNN(m, n, k, 1.3f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

TEST_P(GemmParity, NTMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 3);
  const auto b = RandomVec(static_cast<size_t>(n) * k, 4);
  std::vector<float> got(static_cast<size_t>(m) * n, -0.25f);
  std::vector<float> want = got;
  kernels::GemmNT(m, n, k, 0.7f, a.data(), b.data(), got.data());
  NaiveGemmNT(m, n, k, 0.7f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

TEST_P(GemmParity, TNMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(k) * m, 5);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 6);
  std::vector<float> got(static_cast<size_t>(m) * n, 1.0f);
  std::vector<float> want = got;
  kernels::GemmTN(m, n, k, -1.1f, a.data(), b.data(), got.data());
  NaiveGemmTN(m, n, k, -1.1f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "element " << i;
}

// Every registered backend vs the scalar reference, exact equality:
// the backends compile one kernel body, and golden-fixture bit identity
// depends on it.
TEST_P(GemmParity, BackendsGemmFamilyBitIdentical) {
  const auto [m, n, k] = GetParam();
  const auto a = RandomVec(static_cast<size_t>(m) * k, 61);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 67);
  const auto bt = RandomVec(static_cast<size_t>(n) * k, 71);
  const auto at = RandomVec(static_cast<size_t>(k) * m, 73);
  const size_t out_size = static_cast<size_t>(m) * n;

  std::vector<float> want_nn(out_size, 0.5f), want_nt(out_size, 0.5f);
  std::vector<float> want_tn(out_size, 0.5f);
  kernels::GemmNN(m, n, k, 1.3f, a.data(), b.data(), want_nn.data());
  kernels::GemmNT(m, n, k, 0.7f, a.data(), bt.data(), want_nt.data());
  kernels::GemmTN(m, n, k, -1.1f, at.data(), b.data(), want_tn.data());

  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(out_size, 0.5f);
    kr->gemm_nn(m, n, k, 1.3f, a.data(), b.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_nn[i]) << kr->name << " gemm_nn element " << i;

    got.assign(out_size, 0.5f);
    kr->gemm_nt(m, n, k, 0.7f, a.data(), bt.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_nt[i]) << kr->name << " gemm_nt element " << i;

    got.assign(out_size, 0.5f);
    kr->gemm_tn(m, n, k, -1.1f, at.data(), b.data(), got.data());
    for (size_t i = 0; i < out_size; ++i)
      ASSERT_EQ(got[i], want_tn[i]) << kr->name << " gemm_tn element " << i;
  }
}

TEST_P(GemmParity, BackendsGemvBitIdentical) {
  const auto [m, n, k] = GetParam();
  (void)m;
  const auto x = RandomVec(static_cast<size_t>(k), 79);
  const auto b = RandomVec(static_cast<size_t>(k) * n, 83);
  std::vector<float> want(static_cast<size_t>(n), 0.25f);
  kernels::Gemv(n, k, 2.0f, x.data(), b.data(), want.data());
  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(static_cast<size_t>(n), 0.25f);
    kr->gemv(n, k, 2.0f, x.data(), b.data(), got.data());
    for (size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << kr->name << " gemv element " << i;
  }
}

TEST_P(GemmParity, BackendsSoftmaxAndLayerNormBitIdentical) {
  const auto [m, n, k] = GetParam();
  (void)k;
  const auto x = RandomVec(static_cast<size_t>(m) * n, 89);
  const auto gamma = RandomVec(static_cast<size_t>(n), 97);
  const auto beta = RandomVec(static_cast<size_t>(n), 101);
  const size_t size = x.size();

  std::vector<float> want_sm(size);
  kernels::SoftmaxRows(m, n, x.data(), want_sm.data());
  std::vector<float> want_ln(size), want_xhat(size);
  std::vector<float> want_inv(static_cast<size_t>(m));
  kernels::LayerNormRows(m, n, 1e-5f, x.data(), gamma.data(), beta.data(),
                         want_ln.data(), want_xhat.data(), want_inv.data());

  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(size);
    kr->softmax_rows(m, n, x.data(), got.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(got[i], want_sm[i]) << kr->name << " softmax element " << i;

    std::vector<float> ln(size), xhat(size), inv(static_cast<size_t>(m));
    kr->layer_norm_rows(m, n, 1e-5f, x.data(), gamma.data(), beta.data(),
                        ln.data(), xhat.data(), inv.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(ln[i], want_ln[i]) << kr->name << " layernorm element " << i;
    for (size_t i = 0; i < inv.size(); ++i)
      ASSERT_EQ(inv[i], want_inv[i]) << kr->name << " inv_std row " << i;
  }
}

// The polynomial erf/exp kernels: GELU forward and backward over a wide
// input range (|x| up to ~18, past erf's saturation and exp's zero), and
// softmax rows carrying a -1e9 diagonal mask.
TEST_P(GemmParity, BackendsGeluAndMaskedSoftmaxBitIdentical) {
  const auto [m, n, k] = GetParam();
  (void)k;
  auto x = RandomVec(static_cast<size_t>(m) * n, 103);
  for (float& v : x) v *= 6.0f;
  const auto gy = RandomVec(x.size(), 107);
  const size_t size = x.size();

  std::vector<float> want_gelu(size), want_grad(size, 0.5f);
  kernels::GeluInto(size, x.data(), want_gelu.data());
  kernels::GeluBackwardAccumulate(size, x.data(), gy.data(),
                                  want_grad.data());
  std::vector<float> masked = x;
  for (int r = 0; r < std::min(m, n); ++r) {
    masked[static_cast<size_t>(r) * n + r] = -1e9f;
  }
  std::vector<float> want_sm(size);
  kernels::SoftmaxRows(m, n, masked.data(), want_sm.data());

  for (const backend::Kernels* kr : backend::Registered()) {
    std::vector<float> got(size);
    kr->gelu_into(size, x.data(), got.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(got[i], want_gelu[i]) << kr->name << " gelu element " << i;

    got.assign(size, 0.5f);
    kr->gelu_backward_accumulate(size, x.data(), gy.data(), got.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(got[i], want_grad[i])
          << kr->name << " gelu backward element " << i;

    kr->softmax_rows(m, n, masked.data(), got.data());
    for (size_t i = 0; i < size; ++i)
      ASSERT_EQ(got[i], want_sm[i])
          << kr->name << " masked softmax element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, GemmParity,
                         ::testing::ValuesIn(kShapes));

// -- Backend registry ---------------------------------------------------

TEST(BackendRegistryTest, ScalarIsAlwaysRegisteredFirst) {
  const auto& backends = backend::Registered();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  // The name plus 22 kernels: a new table entry fails this until it is
  // listed below, so no entry goes unchecked.
  static_assert(sizeof(backend::Kernels) == 23 * sizeof(void*));
  for (const backend::Kernels* kr : backends) {
    ASSERT_NE(kr, nullptr);
    // A null entry would crash on its first call.
    const void* entries[] = {
        reinterpret_cast<const void*>(kr->gemm_nn),
        reinterpret_cast<const void*>(kr->gemm_nt),
        reinterpret_cast<const void*>(kr->gemm_tn),
        reinterpret_cast<const void*>(kr->gemv),
        reinterpret_cast<const void*>(kr->axpy),
        reinterpret_cast<const void*>(kr->accumulate),
        reinterpret_cast<const void*>(kr->add_into),
        reinterpret_cast<const void*>(kr->sub_into),
        reinterpret_cast<const void*>(kr->mul_into),
        reinterpret_cast<const void*>(kr->mul_accumulate),
        reinterpret_cast<const void*>(kr->scale_into),
        reinterpret_cast<const void*>(kr->gelu_into),
        reinterpret_cast<const void*>(kr->gelu_backward_accumulate),
        reinterpret_cast<const void*>(kr->add_bias_rows),
        reinterpret_cast<const void*>(kr->col_sum_accumulate),
        reinterpret_cast<const void*>(kr->softmax_rows),
        reinterpret_cast<const void*>(kr->softmax_backward_rows),
        reinterpret_cast<const void*>(kr->layer_norm_rows),
        reinterpret_cast<const void*>(kr->layer_norm_backward_rows),
        reinterpret_cast<const void*>(kr->dot),
        reinterpret_cast<const void*>(kr->dot_i8_rows),
        reinterpret_cast<const void*>(kr->hashed_ngram_accumulate),
    };
    for (size_t i = 0; i < std::size(entries); ++i) {
      EXPECT_NE(entries[i], nullptr) << kr->name << " kernel entry " << i;
    }
  }
}

TEST(BackendRegistryTest, ActiveBackendIsRegistered) {
  const backend::Kernels& active = backend::Active();
  bool found = false;
  for (const backend::Kernels* kr : backend::Registered()) {
    if (kr == &active) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_STREQ(backend::ActiveName(), active.name);
}

// -- Exact accumulation order -------------------------------------------
//
// The naive references above only agree to 1e-4, and backend parity
// compares backends compiled from one body, so neither catches a
// kernel change that reorders a sum. These frozen loops spell out the
// per-element order every GEMM kernel must keep (DESIGN.md §9) and are
// compared bit for bit. They compute one output element at a time, so
// they share no tiling with the kernels. This TU is built with
// -ffp-contract=off (tests/CMakeLists.txt) so that no multiply-add here
// is fused.

// Columns [0, n - n % 16) are micro-tile columns, the rest the column
// tail; 4-column NT blocks cover [0, n - n % 4); NT lanes are 8 wide.
constexpr int kTileCols = 16;
constexpr int kNtBlockCols = 4;
constexpr int kNtLanes = 8;

// NN (kTransA = false, A [m, k]) and TN (kTransA = true, A [k, m]).
// A tile column sums (alpha * a) * b in ascending kk from zero and adds
// the sum to c once; a tail column adds each product to c directly.
template <bool kTransA>
void OrderedGemmNNTN(int m, int n, int k, float alpha, const float* a,
                     const float* b, float* c) {
  const int tile_cols = n - n % kTileCols;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& out = c[static_cast<size_t>(i) * n + j];
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = kTransA ? a[static_cast<size_t>(kk) * m + i]
                                 : a[static_cast<size_t>(i) * k + kk];
        const float term = (alpha * av) * b[static_cast<size_t>(kk) * n + j];
        if (j < tile_cols) {
          acc += term;
        } else {
          out += term;
        }
      }
      if (j < tile_cols) out += acc;
    }
  }
}

// NT: eight lane partials, lane kk % 8, over the first k - k % 8 terms.
// In a 4-column block the kk tail joins lane 0 before the lanes are
// summed (lane 0 first); in a tail column it is added after the sum.
void OrderedGemmNT(int m, int n, int k, float alpha, const float* a,
                   const float* b, float* c) {
  const int block_cols = n - n % kNtBlockCols;
  const int lane_k = k - k % kNtLanes;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float* arow = a + static_cast<size_t>(i) * k;
      const float* brow = b + static_cast<size_t>(j) * k;
      float lane[kNtLanes] = {};
      for (int kk = 0; kk < lane_k; ++kk) {
        lane[kk % kNtLanes] += arow[kk] * brow[kk];
      }
      float sum = 0.0f;
      if (j < block_cols) {
        for (int kk = lane_k; kk < k; ++kk) lane[0] += arow[kk] * brow[kk];
        for (float partial : lane) sum += partial;
      } else {
        for (float partial : lane) sum += partial;
        for (int kk = lane_k; kk < k; ++kk) sum += arow[kk] * brow[kk];
      }
      c[static_cast<size_t>(i) * n + j] += alpha * sum;
    }
  }
}

using GemmFn = void (*)(int, int, int, float, const float*, const float*,
                        float*);

// Runs `kernel` and `reference` on the same inputs (a non-zero C start
// checks the += contract) and compares bit patterns, so -0.0 vs 0.0 and
// NaN payloads count as differences too.
void ExpectSameBits(GemmFn kernel, GemmFn reference, int m, int n, int k,
                    const std::string& what) {
  SCOPED_TRACE(what + " m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k));
  const uint64_t seed = static_cast<uint64_t>(m) * 1000003 + n * 1009 + k;
  // A is [m, k] or [k, m] and B is [k, n] or [n, k]: one size each.
  const auto a = RandomVec(static_cast<size_t>(m) * k, seed);
  const auto b = RandomVec(static_cast<size_t>(n) * k, seed + 1);
  auto got = RandomVec(static_cast<size_t>(m) * n, seed + 2);
  auto want = got;
  kernel(m, n, k, 0.37f, a.data(), b.data(), got.data());
  reference(m, n, k, 0.37f, a.data(), b.data(), want.data());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
              std::bit_cast<uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

void ExpectGemmFamilyOrder(int m, int n, int k) {
  for (const backend::Kernels* kr : backend::Registered()) {
    const std::string name = kr->name;
    ExpectSameBits(kr->gemm_nn, OrderedGemmNNTN<false>, m, n, k,
                   name + " gemm_nn");
    ExpectSameBits(kr->gemm_tn, OrderedGemmNNTN<true>, m, n, k,
                   name + " gemm_tn");
    ExpectSameBits(kr->gemm_nt, OrderedGemmNT, m, n, k, name + " gemm_nt");
  }
}

// Every row count 1..13 (each 4-row split and 1..3-row remainder) at
// the scoring shapes of the small LM: k and n over its widths.
TEST(GemmExactOrder, ScoringShapesEveryRowCount) {
  for (int m = 1; m <= 13; ++m) {
    for (int k : {16, 32, 64, 96}) {
      for (int n : {16, 32, 48, 64, 96}) {
        ExpectGemmFamilyOrder(m, n, k);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Attention scores: L x L x 16 through the NT kernel.
TEST(GemmExactOrder, AttentionScoreBlocks) {
  for (int len = 2; len <= 13; ++len) {
    for (const backend::Kernels* kr : backend::Registered()) {
      ExpectSameBits(kr->gemm_nt, OrderedGemmNT, len, len, 16,
                     std::string(kr->name) + " gemm_nt");
      if (HasFatalFailure()) return;
    }
  }
}

// The tails the scoring shapes never reach: column tails (n % 16,
// n % 4), the NT kk tail (k % 8), empty m or k, and long k (up to 600)
// under a row remainder.
TEST(GemmExactOrder, TailsAndLongK) {
  const GemmShape shapes[] = {
      {1, 1, 1},    {2, 3, 5},    {3, 17, 9},   {5, 7, 13},  {6, 33, 23},
      {7, 50, 31},  {9, 18, 2},   {3, 16, 255}, {2, 16, 256}, {1, 32, 257},
      {3, 48, 600}, {6, 20, 513}, {5, 96, 300}, {0, 16, 8},  {4, 16, 0},
  };
  for (const GemmShape& shape : shapes) {
    ExpectGemmFamilyOrder(shape.m, shape.n, shape.k);
    if (HasFatalFailure()) return;
  }
}

TEST(KernelsTest, BackwardVariantsMatchMatMulGradients) {
  // The NT/TN kernels are exactly the two MatMul backward shapes:
  // dA = dOut * B^T and dB = A^T * dOut. Check against autograd.
  Tensor a = Tensor::FromVector({3, 5}, RandomVec(15, 7), true);
  Tensor b = Tensor::FromVector({5, 4}, RandomVec(20, 8), true);
  Tensor loss = Sum(MatMul(a, b));
  loss.Backward();

  std::vector<float> ones(12, 1.0f);  // dOut of Sum is all ones.
  std::vector<float> da(15, 0.0f), db(20, 0.0f);
  kernels::GemmNT(3, 5, 4, 1.0f, ones.data(), b.data().data(), da.data());
  kernels::GemmTN(5, 4, 3, 1.0f, a.data().data(), ones.data(), db.data());
  for (size_t i = 0; i < da.size(); ++i)
    EXPECT_NEAR(da[i], a.grad()[i], 1e-4f);
  for (size_t i = 0; i < db.size(); ++i)
    EXPECT_NEAR(db[i], b.grad()[i], 1e-4f);
}

TEST(KernelsTest, SoftmaxRowsMatchesOp) {
  const auto x = RandomVec(3 * 7, 9);
  std::vector<float> y(x.size());
  kernels::SoftmaxRows(3, 7, x.data(), y.data());
  Tensor ref = Softmax(Tensor::FromVector({3, 7}, x));
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref.data()[i]);
  // In-place application is allowed.
  std::vector<float> inplace = x;
  kernels::SoftmaxRows(3, 7, inplace.data(), inplace.data());
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(inplace[i], y[i]);
}

// -- Polynomial erf/exp ----------------------------------------------------

// Erf against the double-precision erf over a dense sweep of [-8, 8]
// (every 2^-12), which covers the rational approximation's whole range
// and its clamp.
TEST(TranscendentalTest, ErfWithinBoundOfDoubleReference) {
  double worst = 0.0;
  for (int i = -8 * 4096; i <= 8 * 4096; ++i) {
    const float x = static_cast<float>(i) / 4096.0f;
    const double err = std::fabs(static_cast<double>(kernels::Erf(x)) -
                                 std::erf(static_cast<double>(x)));
    worst = std::max(worst, err);
    ASSERT_LE(err, kernels::kTranscendentalMaxError) << "x = " << x;
  }
  EXPECT_GT(worst, 0.0);  // The sweep really compares an approximation.
}

// Exp's relative error against the double-precision exp over its whole
// normal-result range, [ln(FLT_MIN), ln(FLT_MAX)], every 2^-10.
TEST(TranscendentalTest, ExpWithinBoundOfDoubleReference) {
  for (int i = -87 * 1024; i <= 88 * 1024; ++i) {
    const float x = static_cast<float>(i) / 1024.0f;
    const double want = std::exp(static_cast<double>(x));
    const double err =
        std::fabs(static_cast<double>(kernels::Exp(x)) - want) / want;
    ASSERT_LE(err, kernels::kTranscendentalMaxError) << "x = " << x;
  }
}

TEST(TranscendentalTest, ErfSaturatesToExactlyOne) {
  for (float x = 4.0f; x < 1e30f; x *= 1.37f) {
    ASSERT_EQ(kernels::Erf(x), 1.0f) << "x = " << x;
    ASSERT_EQ(kernels::Erf(-x), -1.0f) << "x = " << -x;
  }
  // Never past +-1, also where the quotient alone would overshoot.
  for (float x = 3.0f; x < 4.0f; x = std::nextafter(x, 5.0f)) {
    ASSERT_LE(kernels::Erf(x), 1.0f) << "x = " << x;
    ASSERT_GE(kernels::Erf(-x), -1.0f) << "x = " << -x;
  }
}

// NaN, the infinities and signed zeros come out as std::erf/std::exp
// give them.
TEST(TranscendentalTest, SpecialValuesMatchStd) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(kernels::Erf(nan)));
  EXPECT_TRUE(std::isnan(kernels::Exp(nan)));
  for (float x : {inf, -inf, 0.0f, -0.0f}) {
    SCOPED_TRACE(x);
    EXPECT_EQ(std::bit_cast<uint32_t>(kernels::Erf(x)),
              std::bit_cast<uint32_t>(std::erf(x)));
    EXPECT_EQ(std::bit_cast<uint32_t>(kernels::Exp(x)),
              std::bit_cast<uint32_t>(std::exp(x)));
  }
  // Below ln(FLT_MIN) the result is exactly zero, not a subnormal.
  EXPECT_EQ(kernels::Exp(-87.4f), 0.0f);
  EXPECT_EQ(kernels::Exp(-1e9f), 0.0f);
  EXPECT_GT(kernels::Exp(-87.3f), 0.0f);
}

// The -1e9 diagonal mask of self-attention gets exactly zero
// probability, and every row still sums to one.
TEST(TranscendentalTest, SoftmaxGivesMaskedEntriesExactlyZero) {
  constexpr int kN = 9;
  auto x = RandomVec(kN * kN, 13);
  for (int r = 0; r < kN; ++r) x[static_cast<size_t>(r) * kN + r] += -1e9f;
  std::vector<float> y(x.size());
  kernels::SoftmaxRows(kN, kN, x.data(), y.data());
  for (int r = 0; r < kN; ++r) {
    double sum = 0.0;
    for (int c = 0; c < kN; ++c) {
      const float p = y[static_cast<size_t>(r) * kN + c];
      if (c == r) {
        EXPECT_EQ(p, 0.0f) << "row " << r;
      } else {
        EXPECT_GT(p, 0.0f);
      }
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << "row " << r;
  }
}

// GeluInto is the op's forward and within the erf bound of the exact
// GELU: |0.5 x (erf' - erf)| <= 0.5 |x| kTranscendentalMaxError, plus a
// few float roundings.
// SoftmaxRows takes its row max over lane partials. A max rounds
// nothing, so every backend must give the bits of a serial-max softmax
// (max in ascending order, then PolyExp, the ascending denominator and
// the divide) on hostile rows too: NaN at the front, inside the lanes
// and in the tail, infinities, +-0 ties for the max, and one column.
TEST(TranscendentalTest, SoftmaxRowsLaneMaxMatchesSerialMax) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  auto serial = [](const std::vector<float>& in) {
    float mx = in[0];
    for (float v : in) mx = std::max(mx, v);
    std::vector<float> out(in.size());
    float denom = 0.0f;
    for (size_t c = 0; c < in.size(); ++c) {
      out[c] = kernels::Exp(in[c] - mx);
      denom += out[c];
    }
    for (float& v : out) v /= denom;
    return out;
  };
  Rng rng(61);
  std::vector<std::vector<float>> rows = {{2.5f}, {nan}, {-inf}, {-0.0f},
                                          {inf}};
  for (int cols : {2, 3, 4, 7, 8, 9, 12, 15, 16, 17, 33}) {
    std::vector<float> base(static_cast<size_t>(cols));
    for (float& v : base) v = rng.NextGaussian() * 3.0f;
    rows.push_back(base);
    for (int at : {0, 1, cols / 2, cols - 1}) {
      for (float special : {nan, -inf, inf}) {
        std::vector<float> row = base;
        row[static_cast<size_t>(at)] = special;
        rows.push_back(row);
      }
    }
    // Zeros of both signs tie for the max, in either order.
    for (float first_zero : {0.0f, -0.0f}) {
      std::vector<float> row(static_cast<size_t>(cols));
      for (int c = 0; c < cols; ++c) {
        row[static_cast<size_t>(c)] =
            c % 3 == 0 ? (c % 2 == 0 ? first_zero : -first_zero)
                       : -1.0f - static_cast<float>(c);
      }
      rows.push_back(row);
    }
    rows.push_back(std::vector<float>(static_cast<size_t>(cols), -inf));
  }
  for (const backend::Kernels* kr : backend::Registered()) {
    SCOPED_TRACE(kr->name);
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::vector<float>& in = rows[r];
      const std::vector<float> want = serial(in);
      std::vector<float> got(in.size(), 7.0f);
      kr->softmax_rows(1, static_cast<int>(in.size()), in.data(), got.data());
      for (size_t c = 0; c < in.size(); ++c) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got[c]),
                  std::bit_cast<uint32_t>(want[c]))
            << "row " << r << " (" << in.size() << " columns), column " << c;
      }
    }
  }
}

TEST(TranscendentalTest, GeluIntoMatchesOpAndDoubleReference) {
  std::vector<float> x;
  for (int i = -10 * 256; i <= 10 * 256; ++i) {
    x.push_back(static_cast<float>(i) / 256.0f);
  }
  std::vector<float> y(x.size());
  kernels::GeluInto(x.size(), x.data(), y.data());
  const Tensor op = Gelu(Tensor::FromVector({static_cast<int>(x.size())}, x));
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(y[i], op.data()[i]) << "x = " << x[i];
    const double xd = x[i];
    const double want = 0.5 * xd * (1.0 + std::erf(xd / std::sqrt(2.0)));
    const double bound =
        std::fabs(xd) * (0.5 * kernels::kTranscendentalMaxError +
                         4.0 * std::numeric_limits<float>::epsilon());
    ASSERT_NEAR(y[i], want, bound) << "x = " << x[i];
  }
}

TEST(KernelsTest, LayerNormRowsMatchesOp) {
  const auto x = RandomVec(4 * 6, 10);
  const auto gamma = RandomVec(6, 11);
  const auto beta = RandomVec(6, 12);
  std::vector<float> y(x.size()), xhat(x.size()), inv_std(4);
  kernels::LayerNormRows(4, 6, 1e-5f, x.data(), gamma.data(), beta.data(),
                         y.data(), xhat.data(), inv_std.data());
  Tensor ref = LayerNorm(Tensor::FromVector({4, 6}, x),
                         Tensor::FromVector({6}, gamma),
                         Tensor::FromVector({6}, beta));
  for (size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], ref.data()[i], 1e-5f);
}

// -- Blocking kernels -----------------------------------------------------
//
// The ANN index's dots and the hashed n-gram generator. Dims around the
// AVX2 int8 body's 32-byte chunks and the f32 dot's 16 lanes; row counts
// 0..9 run whole four-row groups, short groups and both together.

constexpr int kBlockingDims[] = {1, 31, 32, 33, 100, 128, 257};

/// int8 entries in [-127, 127] (the quantizer's range), uniform.
std::vector<int8_t> RandomI8(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.NextUint64(255)) - 127);
  }
  return v;
}

TEST(BlockingKernelsTest, DotI8RowsMatchesScalarOnEveryBackend) {
  constexpr int kTableRows = 12;
  // Repeats and out-of-order slots, as a beam's gathered neighbours.
  const int32_t slots[] = {5, 0, 11, 1, 3, 3, 7, 2, 10};
  for (const int dim : kBlockingDims) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const size_t d = static_cast<size_t>(dim);
    std::vector<int8_t> table = RandomI8(kTableRows * d, 100 + d);
    // Rows 0 and 1 sit at the extremes, row 2 alternates them.
    for (size_t i = 0; i < d; ++i) {
      table[i] = 127;
      table[d + i] = -127;
      table[2 * d + i] = i % 2 ? 127 : -127;
    }
    std::vector<std::vector<int8_t>> queries = {
        RandomI8(d, 200 + d), std::vector<int8_t>(d, 127),
        std::vector<int8_t>(d, -127), std::vector<int8_t>(d, 0)};
    for (const std::vector<int8_t>& q : queries) {
      for (int n = 0; n <= 9; ++n) {
        std::vector<int32_t> want(10, -7);
        for (int r = 0; r < n; ++r) {
          const int8_t* row = table.data() + slots[r] * d;
          int64_t sum = 0;
          for (size_t i = 0; i < d; ++i) sum += int64_t{q[i]} * row[i];
          want[static_cast<size_t>(r)] = static_cast<int32_t>(sum);
        }
        std::vector<int32_t> scalar(10, -7);
        kernels::DotI8Rows(dim, q.data(), table.data(), slots, n,
                           scalar.data());
        ASSERT_EQ(scalar, want) << "n " << n;
        for (const backend::Kernels* kr : backend::Registered()) {
          std::vector<int32_t> got(10, -7);
          kr->dot_i8_rows(dim, q.data(), table.data(), slots, n, got.data());
          ASSERT_EQ(got, scalar) << kr->name << " n " << n;
        }
      }
    }
  }
}

TEST(BlockingKernelsTest, DotBitIdenticalAcrossBackends) {
  for (const int dim : {1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 100, 128,
                        257}) {
    const auto a = RandomVec(static_cast<size_t>(dim), 300 + dim);
    const auto b = RandomVec(static_cast<size_t>(dim), 400 + dim);
    const float scalar = kernels::Dot(dim, a.data(), b.data());
    double exact = 0.0;
    for (int i = 0; i < dim; ++i) exact += double{a[i]} * b[i];
    EXPECT_NEAR(scalar, exact, 1e-5 * dim) << "dim " << dim;
    for (const backend::Kernels* kr : backend::Registered()) {
      EXPECT_EQ(std::bit_cast<uint32_t>(kr->dot(dim, a.data(), b.data())),
                std::bit_cast<uint32_t>(scalar))
          << kr->name << " dim " << dim;
    }
  }
}

/// The sequential generator the counter form replaced: one splitmix64
/// step per component, each mapped through the Irwin-Hall sum.
void SequentialNgram(uint64_t hash, int dim, float* acc) {
  uint64_t state = hash;
  for (int d = 0; d < dim; ++d) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    float sum = 0.0f;
    for (int i = 0; i < 4; ++i) {
      sum += static_cast<float>((z >> (i * 16)) & 0xffff) / 65536.0f;
    }
    acc[d] += (sum - 2.0f) * 1.732f;
  }
}

TEST(BlockingKernelsTest, HashedNgramAccumulateIsTheSequentialStream) {
  const uint64_t hashes[] = {0, 1, 0x9e3779b97f4a7c15ULL,
                             ~uint64_t{0}, 0x5eedf00dULL, 0xcbf29ce484222325ULL};
  for (const int dim : kBlockingDims) {
    for (const uint64_t hash : hashes) {
      // A running sum, as the word vector accumulates its n-grams.
      const auto start = RandomVec(static_cast<size_t>(dim), 500 + dim);
      std::vector<float> want = start;
      SequentialNgram(hash, dim, want.data());
      for (const backend::Kernels* kr : backend::Registered()) {
        std::vector<float> got = start;
        kr->hashed_ngram_accumulate(hash, dim, got.data());
        for (int i = 0; i < dim; ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(got[static_cast<size_t>(i)]),
                    std::bit_cast<uint32_t>(want[static_cast<size_t>(i)]))
              << kr->name << " dim " << dim << " hash " << hash << " at "
              << i;
        }
      }
    }
  }
}

// -- BufferPool lifecycle -------------------------------------------------

using internal_tensor::BufferPool;

TEST(BufferPoolTest, RecyclesBySizeClassAndZeroFills) {
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  const auto before = pool.stats();

  std::vector<float> buf = pool.Acquire(100);
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_GE(buf.capacity(), 128u);  // Rounded up to the class capacity.
  for (float v : buf) EXPECT_EQ(v, 0.0f);
  buf.assign(buf.size(), 3.5f);  // Dirty it before returning.
  const float* prev_ptr = buf.data();
  pool.Release(std::move(buf));
  EXPECT_GT(pool.retained_bytes(), 0u);

  // Same size class: served from the recycled buffer, zero-filled.
  std::vector<float> again = pool.Acquire(120);
  EXPECT_EQ(again.data(), prev_ptr);
  for (float v : again) EXPECT_EQ(v, 0.0f);

  const auto after = pool.stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.bytes_reused - before.bytes_reused,
            static_cast<int64_t>(120 * sizeof(float)));
  pool.Trim();
  EXPECT_EQ(pool.retained_bytes(), 0u);
}

TEST(BufferPoolTest, LargerClassServesSmallerRequest) {
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  std::vector<float> big = pool.Acquire(4096);
  const float* big_ptr = big.data();
  pool.Release(std::move(big));
  // A much smaller request may still reuse the big buffer rather than
  // allocating.
  const auto before = pool.stats();
  std::vector<float> small = pool.Acquire(64);
  EXPECT_EQ(small.data(), big_ptr);
  EXPECT_EQ(pool.stats().hits - before.hits, 1);
  pool.Trim();
}

TEST(BufferPoolTest, TensorChurnUnderNoGradHitsPool) {
  NoGradGuard guard;
  BufferPool& pool = BufferPool::ThreadLocal();
  pool.Trim();
  Rng rng(13);
  Tensor w = Tensor::Randn({32, 32}, rng);
  const auto before = pool.stats();
  for (int i = 0; i < 10; ++i) {
    Tensor x = Tensor::Randn({8, 32}, rng);
    Tensor y = LinearOp(Relu(MatMul(x, w)), w);
    ASSERT_EQ(y.dim(1), 32);
    // The iteration's intermediates die here and return their buffers.
  }
  const auto after = pool.stats();
  EXPECT_GT(after.hits - before.hits, 0)
      << "inference-style churn must recycle buffers";
}

TEST(BufferPoolTest, ReshapeAliasesParentStorage) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  Tensor f = Flatten(a);
  // Same underlying buffer: no copies on the view path.
  EXPECT_EQ(r.data().data(), a.data().data());
  EXPECT_EQ(f.data().data(), a.data().data());
  // A write through the view is visible in the parent (shared storage).
  r.set(0, 0, 42.0f);
  EXPECT_EQ(a.at(0, 0), 42.0f);
}

TEST(BufferPoolTest, ReshapeGradientsStaySeparate) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, true);
  Tensor r = Reshape(a, {4});
  Tensor loss = Sum(Mul(r, r));
  loss.Backward();
  ASSERT_EQ(a.grad().size(), 4u);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[3], 8.0f);
}

}  // namespace
}  // namespace hiergat
