// Q8_0 codec tests, the storage-only contract (a quantized nn::Linear /
// nn::Embedding computes exactly the f32 ops on its dequantized
// weights), and backend-registry parity: every registered
// backend (scalar, avx2/neon where compiled) must produce *bit-
// identical* results for the dispatched kernels — the backends compile
// the same kernel bodies (tensor/kernel_body.inc) with vectorization
// confined to reassociation-free lanes, and golden-fixture bitwise
// identity depends on it.

#include "core/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/serialize.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "tensor/backend.h"
#include "tensor/graph.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// -- Q8_0 codec ---------------------------------------------------------

TEST(QuantCodecTest, RoundTripErrorBoundedByHalfScale) {
  for (int cols : {1, 7, 32, 33, 64, 100}) {
    const auto x = RandomVec(static_cast<size_t>(cols), 17);
    std::vector<q8::Block> blocks(q8::BlocksPerRow(cols));
    q8::QuantizeRow(x.data(), cols, blocks.data());
    std::vector<float> dq(static_cast<size_t>(cols));
    q8::DequantizeRow(blocks.data(), cols, dq.data());
    for (int j = 0; j < cols; ++j) {
      const float scale = blocks[static_cast<size_t>(j) / q8::kBlockSize].scale;
      EXPECT_LE(std::abs(dq[static_cast<size_t>(j)] -
                         x[static_cast<size_t>(j)]),
                scale * 0.5f + 1e-7f)
          << "cols=" << cols << " j=" << j;
    }
  }
}

TEST(QuantCodecTest, AllZeroBlockStoresZeroScale) {
  std::vector<float> x(40, 0.0f);
  std::vector<q8::Block> blocks(q8::BlocksPerRow(40));
  q8::QuantizeRow(x.data(), 40, blocks.data());
  for (const q8::Block& b : blocks) {
    EXPECT_EQ(b.scale, 0.0f);
    for (int8_t q : b.q) EXPECT_EQ(q, 0);
  }
  std::vector<float> dq(40, 1.0f);
  q8::DequantizeRow(blocks.data(), 40, dq.data());
  for (float v : dq) EXPECT_EQ(v, 0.0f);
}

TEST(QuantCodecTest, ExtremaQuantizeToPlusMinus127) {
  std::vector<float> x(32, 0.25f);
  x[3] = 8.0f;    // Block amax.
  x[21] = -8.0f;  // Symmetric negative extremum.
  q8::Block block;
  q8::QuantizeRow(x.data(), 32, &block);
  EXPECT_FLOAT_EQ(block.scale, 8.0f / 127.0f);
  EXPECT_EQ(block.q[3], 127);
  EXPECT_EQ(block.q[21], -127);
}

TEST(QuantCodecTest, PartialBlockPaddingLanesAreZero) {
  // cols=35: the second block has 3 live lanes and 29 padding lanes,
  // which must be zeroed for a deterministic wire image.
  const auto x = RandomVec(35, 23);
  std::vector<q8::Block> blocks(q8::BlocksPerRow(35), q8::Block{1.0f, {}});
  for (auto& b : blocks) std::memset(b.q, 0x7f, sizeof(b.q));  // Dirty.
  q8::QuantizeRow(x.data(), 35, blocks.data());
  for (int lane = 3; lane < q8::kBlockSize; ++lane) {
    EXPECT_EQ(blocks[1].q[lane], 0) << "padding lane " << lane;
  }
}

TEST(QuantCodecTest, QuantizedTensorLifecycle) {
  q8::QuantizedTensor q;
  EXPECT_FALSE(q.active());
  const auto x = RandomVec(5 * 40, 29);
  q.QuantizeFrom(x.data(), 5, 40);
  EXPECT_TRUE(q.active());
  EXPECT_EQ(q.rows(), 5);
  EXPECT_EQ(q.cols(), 40);
  EXPECT_EQ(q.blocks_per_row(), 2);
  EXPECT_EQ(q.wire_bytes(), 5u * 2u * q8::kWireBytes);
  // 4x reduction in stored f32 bytes bound: 360 wire vs 800 dense.
  EXPECT_LT(q.wire_bytes(), 5u * 40u * sizeof(float));

  std::vector<float> dq(5 * 40);
  q.DequantizeTo(dq.data());
  // Row-independence: row 2 dequantizes identically via the row codec.
  std::vector<q8::Block> row(q8::BlocksPerRow(40));
  q8::QuantizeRow(x.data() + 2 * 40, 40, row.data());
  std::vector<float> row_dq(40);
  q8::DequantizeRow(row.data(), 40, row_dq.data());
  for (int j = 0; j < 40; ++j) {
    EXPECT_EQ(dq[static_cast<size_t>(2 * 40 + j)],
              row_dq[static_cast<size_t>(j)]);
  }

  q.Clear();
  EXPECT_FALSE(q.active());
  EXPECT_EQ(q.blocks().size(), 0u);
}

// -- Q8_0 storage: quantized layers compute in f32 ----------------------
//
// QuantizeAll rounds each weight through Q8_0 and writes the
// dequantized values back into the f32 tensor; from then on the layers
// must be exactly the f32 ops on those values, eagerly and replayed.

/// Captures `build` over one input shaped like `x` (traced on a
/// different probe, so the replay really reads `x`), replays it on `x`
/// and returns the output.
std::vector<float> ReplayOn(const Tensor& x,
                            const std::function<Tensor(const Tensor&)>& build) {
  Tensor probe = Tensor::FromVector(
      x.shape(), std::vector<float>(x.data().size(), 0.5f));
  graph::GraphCapture capture;
  capture.MarkInput(probe);
  const Tensor y = build(probe);
  capture.MarkOutput(y);
  auto compiled_or = capture.Finish();
  EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  if (!compiled_or.ok()) return {};
  const graph::CompiledGraph& compiled = *compiled_or.value();
  std::vector<float> out(static_cast<size_t>(compiled.output_size(0)));
  const float* in[] = {x.data().data()};
  float* outs[] = {out.data()};
  compiled.Run(in, outs, nullptr);
  return out;
}

/// The scalar codec's round trip of `t`: what QuantizeAll must leave.
std::vector<float> Dequantized(const Tensor& t, int rows, int cols) {
  q8::QuantizedTensor q;
  q.QuantizeFrom(t.data().data(), rows, cols);
  std::vector<float> out(t.data().size());
  q.DequantizeTo(out.data());
  return out;
}

TEST(QuantStorageTest, QuantizedLinearIsF32LinearOpOnDequantizedWeight) {
  NoGradGuard no_grad;
  Rng rng(131);
  // 40 output columns: one full block and a partial one per weight row.
  Linear layer(24, 40, rng);
  Tensor bias = layer.bias();  // Shared handle: make the bias non-zero.
  for (float& b : bias.data()) b = rng.NextGaussian();
  const std::vector<float> want_weight = Dequantized(layer.weight(), 24, 40);

  NamedParameters params;
  params.AddModule("fc", layer);
  ASSERT_TRUE(params.QuantizeAll().ok());
  EXPECT_EQ(layer.weight().data(), want_weight);

  // 5 rows: one 4-row GEMM tile plus a remainder row.
  Tensor x = Tensor::Randn({5, 24}, rng);
  const Tensor want = LinearOp(x, layer.weight(), layer.bias());
  const Tensor got = layer.Forward(x);
  ASSERT_EQ(got.shape(), want.shape());
  for (size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "eager element " << i;
  }
  const std::vector<float> replayed =
      ReplayOn(x, [&](const Tensor& in) { return layer.Forward(in); });
  ASSERT_EQ(replayed.size(), want.data().size());
  for (size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_EQ(replayed[i], want.data()[i]) << "replayed element " << i;
  }
}

TEST(QuantStorageTest, QuantizedEmbeddingIsF32LookupOnDequantizedTable) {
  NoGradGuard no_grad;
  Rng rng(137);
  Embedding embedding(9, 40, rng);
  const std::vector<float> want_table =
      Dequantized(embedding.table(), 9, 40);

  NamedParameters params;
  params.AddModule("emb", embedding);
  ASSERT_TRUE(params.QuantizeAll().ok());
  EXPECT_EQ(embedding.table().data(), want_table);

  const std::vector<int> ids = {3, 0, 8, 3};
  const Tensor want = EmbeddingLookup(embedding.table(), ids);
  const Tensor got = embedding.Forward(ids);
  ASSERT_EQ(got.shape(), want.shape());
  for (size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "eager element " << i;
  }
  // A lookup in a fixed table folds to a constant at capture; adding it
  // to a replayed zero input sends the folded rows through a real node.
  const Tensor zeros = Tensor::Zeros({4, 40});
  const std::vector<float> replayed = ReplayOn(zeros, [&](const Tensor& in) {
    return Add(in, embedding.Forward(ids));
  });
  ASSERT_EQ(replayed.size(), want.data().size());
  for (size_t i = 0; i < want.data().size(); ++i) {
    EXPECT_EQ(replayed[i], want.data()[i]) << "replayed element " << i;
  }
}

// -- Backend registry ---------------------------------------------------

TEST(BackendRegistryTest, ScalarIsAlwaysRegisteredFirst) {
  const auto& backends = backend::Registered();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  for (const backend::Kernels* kr : backends) {
    ASSERT_NE(kr, nullptr);
    // Every entry of the dispatch table must be populated.
    EXPECT_NE(kr->gemm_nn, nullptr);
    EXPECT_NE(kr->gemm_nt, nullptr);
    EXPECT_NE(kr->gemm_tn, nullptr);
    EXPECT_NE(kr->gemv, nullptr);
    EXPECT_NE(kr->softmax_rows, nullptr);
    EXPECT_NE(kr->layer_norm_rows, nullptr);
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

struct GemmShape {
  int m, n, k;
};

// Mirrors the kernels_test odd-shape list: unit, single row/column,
// tall/skinny, and non-multiples of the micro-tile and unroll widths.
const GemmShape kShapes[] = {
    {1, 1, 1},  {1, 17, 1}, {1, 1, 9},   {5, 1, 7},   {1, 33, 12},
    {7, 5, 3},  {4, 16, 8}, {64, 3, 64}, {3, 64, 64}, {13, 31, 23},
    {33, 47, 19}, {17, 64, 5},
};

class BackendParity : public ::testing::TestWithParam<GemmShape> {};

// Every registered backend vs the scalar reference, exact equality.
TEST_P(BackendParity, GemmFamilyBitIdentical) {
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

TEST_P(BackendParity, GemvBitIdentical) {
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

TEST_P(BackendParity, SoftmaxAndLayerNormBitIdentical) {
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
TEST_P(BackendParity, GeluAndMaskedSoftmaxBitIdentical) {
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

INSTANTIATE_TEST_SUITE_P(OddShapes, BackendParity,
                         ::testing::ValuesIn(kShapes));

}  // namespace
}  // namespace hiergat
