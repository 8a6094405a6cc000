#include <cmath>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "tensor/ops.h"

namespace hiergat {
namespace {

TEST(LinearTest, ShapeAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::Randn({2, 4}, rng);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  Linear no_bias(4, 3, rng, /*use_bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(EmbeddingTest, LookupAndSetRow) {
  Rng rng(2);
  Embedding table(10, 4, rng);
  table.SetRow(3, {1, 2, 3, 4});
  Tensor out = table.Forward({3, 3, 0});
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 3), 4.0f);
}

TEST(EmbeddingTest, GradientFlowsToUsedRowsOnly) {
  Rng rng(3);
  Embedding table(5, 2, rng);
  Tensor out = table.Forward({1, 1});
  Sum(out).Backward();
  const Tensor& t = table.table();
  EXPECT_FLOAT_EQ(t.grad()[2], 2.0f);  // Row 1, col 0: two lookups.
  EXPECT_FLOAT_EQ(t.grad()[0], 0.0f);  // Row 0 untouched.
}

TEST(LayerNormLayerTest, Parameters) {
  LayerNormLayer norm(8);
  EXPECT_EQ(norm.Parameters().size(), 2u);
  Rng rng(4);
  Tensor x = Tensor::Randn({3, 8}, rng);
  Tensor y = norm.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(AttentionTest, OutputShapeAndWeights) {
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::Randn({5, 8}, rng);
  Tensor weights;
  Tensor y = attn.Forward(x, {}, {}, &weights);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
  // Asking for the weights leaves the output bit-identical.
  EXPECT_EQ(attn.Forward(x).data(), y.data());
  EXPECT_EQ(weights.dim(0), 5);
  EXPECT_EQ(weights.dim(1), 5);
  for (int r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) sum += weights.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(AttentionTest, CrossAttentionShapes) {
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, rng);
  Tensor q = Tensor::Randn({3, 8}, rng);
  Tensor kv = Tensor::Randn({7, 8}, rng);
  Tensor weights;
  Tensor y = attn.Forward(q, kv, {}, {}, &weights);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(weights.dim(1), 7);
  EXPECT_EQ(attn.Forward(q, kv).data(), y.data());
}

TEST(TransformerTest, EncoderShapesAndVariableLength) {
  Rng rng(7);
  TransformerConfig config;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 32;
  TransformerEncoder encoder(config, rng);
  for (int len : {1, 4, 9}) {
    Tensor x = Tensor::Randn({len, 16}, rng);
    Tensor y = encoder.Forward(x, /*training=*/false, rng);
    EXPECT_EQ(y.dim(0), len);
    EXPECT_EQ(y.dim(1), 16);
  }
}

TEST(TransformerTest, PositionalEncodingChangesOrderSensitivity) {
  Rng rng(8);
  TransformerConfig config;
  config.dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  TransformerEncoder encoder(config, rng);
  Tensor a = Tensor::Randn({1, 16}, rng);
  Tensor b = Tensor::Randn({1, 16}, rng);
  Tensor ab = encoder.Forward(ConcatRows({a, b}), false, rng);
  Tensor ba = encoder.Forward(ConcatRows({b, a}), false, rng);
  // With positions, "a b" != "b a" (compare a's encoding in both).
  float diff = 0.0f;
  for (int c = 0; c < 16; ++c) {
    diff += std::abs(ab.at(0, c) - ba.at(1, c));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(SinusoidalPositionsTest, ValuesBounded) {
  Tensor pos = SinusoidalPositions(10, 8);
  EXPECT_EQ(pos.dim(0), 10);
  for (float v : pos.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(GruTest, ShapesAndReverse) {
  Rng rng(9);
  Gru gru(6, 4, rng);
  Tensor x = Tensor::Randn({5, 6}, rng);
  Tensor fwd = gru.Forward(x);
  EXPECT_EQ(fwd.dim(0), 5);
  EXPECT_EQ(fwd.dim(1), 4);
  Tensor bwd = gru.Forward(x, /*reverse=*/true);
  EXPECT_EQ(bwd.shape(), fwd.shape());
  // Forward's first state only saw x0, reverse's first state saw all.
  EXPECT_NE(fwd.data(), bwd.data());

  BiGru bi(6, 4, rng);
  Tensor both = bi.Forward(x);
  EXPECT_EQ(both.dim(1), 8);
}

TEST(MlpTest, ForwardAndParams) {
  Rng rng(10);
  Mlp mlp({6, 8, 2}, rng);
  Tensor x = Tensor::Randn({3, 6}, rng);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

TEST(HighwayTest, GateInterpolates) {
  Rng rng(11);
  Highway highway(4, rng);
  Tensor x = Tensor::Randn({2, 4}, rng);
  Tensor y = highway.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(OptimizerTest, AdamFitsLinearRegression) {
  Rng rng(12);
  Linear layer(3, 1, rng);
  // Data: y = 2*x0 - x1 + 0.5*x2 + 1.
  std::vector<Tensor> xs, ys;
  for (int i = 0; i < 64; ++i) {
    Tensor x = Tensor::Randn({1, 3}, rng);
    const float y = 2 * x.at(0, 0) - x.at(0, 1) + 0.5f * x.at(0, 2) + 1.0f;
    xs.push_back(x);
    ys.push_back(Tensor::FromVector({1, 1}, {y}));
  }
  Adam adam(layer.Parameters(), 0.05f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 150; ++epoch) {
    float total = 0.0f;
    for (size_t i = 0; i < xs.size(); ++i) {
      adam.ZeroGrad();
      Tensor diff = Sub(layer.Forward(xs[i]), ys[i]);
      Tensor loss = Sum(Mul(diff, diff));
      loss.Backward();
      adam.Step();
      total += loss.item();
    }
    final_loss = total / static_cast<float>(xs.size());
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(OptimizerTest, ClipGradNormScalesLargeGradients) {
  Tensor w = Tensor::FromVector({2}, {0, 0}, true);
  Tensor big = Tensor::FromVector({2}, {300, 400});
  Sum(Mul(w, big)).Backward();
  Adam adam({w});
  const float norm = adam.ClipGradNorm(5.0f);
  EXPECT_NEAR(norm, 500.0f, 1e-2f);
  const float clipped =
      std::sqrt(w.grad()[0] * w.grad()[0] + w.grad()[1] * w.grad()[1]);
  EXPECT_NEAR(clipped, 5.0f, 1e-3f);
}

}  // namespace
}  // namespace hiergat
