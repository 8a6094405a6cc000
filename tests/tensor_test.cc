#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace hiergat {
namespace {

TEST(TensorTest, FactoriesAndShape) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rank(), 2);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(1), 3);
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor from = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(from.at(0, 0), 1.0f);
  EXPECT_EQ(from.at(1, 1), 4.0f);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng rng1(5), rng2(5), rng3(6);
  Tensor a = Tensor::Randn({3, 3}, rng1);
  Tensor b = Tensor::Randn({3, 3}, rng2);
  Tensor c = Tensor::Randn({3, 3}, rng3);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
}

TEST(TensorTest, ItemRequiresScalar) {
  Tensor s = Tensor::Full({1}, 3.0f);
  EXPECT_FLOAT_EQ(s.item(), 3.0f);
}

TEST(TensorTest, DetachSharesNothing) {
  Tensor a = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.set(0, 9.0f);
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(OpsTest, AddSubMulScale) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  Tensor sum = Add(a, b);
  EXPECT_EQ(sum.at(1, 1), 44.0f);
  Tensor diff = Sub(b, a);
  EXPECT_EQ(diff.at(0, 0), 9.0f);
  Tensor prod = Mul(a, b);
  EXPECT_EQ(prod.at(0, 1), 40.0f);
  Tensor scaled = Scale(a, 0.5f);
  EXPECT_EQ(scaled.at(1, 0), 1.5f);
}

TEST(OpsTest, BiasBroadcastAdd) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector({3}, {10, 20, 30});
  Tensor out = Add(a, bias);
  EXPECT_EQ(out.at(0, 0), 11.0f);
  EXPECT_EQ(out.at(1, 2), 36.0f);
}

TEST(OpsTest, MatMulCorrectness) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.dim(0), 2);
  EXPECT_EQ(c.dim(1), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, TransposeReshapeFlatten) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.at(2, 1), 6.0f);
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  Tensor f = Flatten(a);
  EXPECT_EQ(f.rank(), 1);
  EXPECT_EQ(f.dim(0), 6);
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor rows = ConcatRows({a, b});
  EXPECT_EQ(rows.dim(0), 3);
  EXPECT_EQ(rows.at(2, 1), 6.0f);

  Tensor c = Tensor::FromVector({2, 1}, {7, 8});
  Tensor cols = ConcatCols({b, c});
  EXPECT_EQ(cols.dim(1), 3);
  EXPECT_EQ(cols.at(1, 2), 8.0f);

  Tensor sliced = SliceRows(rows, 1, 3);
  EXPECT_EQ(sliced.dim(0), 2);
  EXPECT_EQ(sliced.at(0, 0), 3.0f);

  Tensor cols_row = SliceRows(cols, 1, 2);
  EXPECT_EQ(cols_row.dim(1), 3);
  EXPECT_EQ(cols_row.at(0, 2), 8.0f);

  Tensor row = Row(rows, 0);
  EXPECT_EQ(row.dim(0), 1);
  EXPECT_EQ(row.at(0, 1), 2.0f);
}

TEST(OpsTest, GatherRowsWithDuplicates) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.dim(0), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 0), 5.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += s.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Monotone in the logits.
  EXPECT_GT(s.at(0, 2), s.at(0, 0));
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a = Tensor::FromVector({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor s = Softmax(a);
  EXPECT_FALSE(std::isnan(s.at(0, 0)));
  Tensor b = Tensor::FromVector({1, 3}, {0.0f, 1.0f, 2.0f});
  Tensor sb = Softmax(b);
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(s.at(0, c), sb.at(0, c), 1e-5f);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  Tensor sr = SumRows(a);
  EXPECT_EQ(sr.dim(0), 1);
  EXPECT_FLOAT_EQ(sr.at(0, 0), 5.0f);
  Tensor mr = MeanRows(a);
  EXPECT_FLOAT_EQ(mr.at(0, 2), 4.5f);
}

TEST(OpsTest, Activations) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0.5, 2});
  Tensor relu = Relu(a);
  EXPECT_EQ(relu.at(0), 0.0f);
  EXPECT_EQ(relu.at(3), 2.0f);
  Tensor leaky = LeakyRelu(a, 0.1f);
  EXPECT_FLOAT_EQ(leaky.at(0), -0.2f);
  Tensor sig = Sigmoid(Tensor::FromVector({1}, {0.0f}));
  EXPECT_NEAR(sig.at(0), 0.5f, 1e-6f);
  Tensor th = Tanh(Tensor::FromVector({1}, {0.0f}));
  EXPECT_NEAR(th.at(0), 0.0f, 1e-6f);
  Tensor gelu = Gelu(Tensor::FromVector({1}, {0.0f}));
  EXPECT_NEAR(gelu.at(0), 0.0f, 1e-6f);
  // GELU approaches identity for large positive inputs.
  EXPECT_NEAR(Gelu(Tensor::FromVector({1}, {10.0f})).at(0), 10.0f, 1e-3f);
}

TEST(OpsTest, LayerNormNormalizesRows) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int c = 0; c < 4; ++c) mean += y.at(r, c);
    mean /= 4.0f;
    for (int c = 0; c < 4; ++c) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(OpsTest, DropoutTrainingAndEval) {
  Rng rng(3);
  Tensor a = Tensor::Full({100, 10}, 1.0f);
  Tensor eval = Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(eval.data(), a.data());
  Tensor train = Dropout(a, 0.5f, rng, /*training=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (float v : train.data()) {
    if (v == 0.0f) ++zeros;
    sum += v;
  }
  // Roughly half dropped, survivors scaled so the mean is preserved.
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 700);
  EXPECT_NEAR(sum / static_cast<double>(train.numel()), 1.0, 0.15);
}

TEST(OpsTest, SoftmaxCrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromVector({2, 2}, {2.0f, 0.0f, 0.0f, 3.0f});
  Tensor probs;
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 1}, &probs);
  const float p0 = std::exp(2.0f) / (std::exp(2.0f) + 1.0f);
  const float p1 = std::exp(3.0f) / (std::exp(3.0f) + 1.0f);
  const float expected = -0.5f * (std::log(p0) + std::log(p1));
  EXPECT_NEAR(loss.item(), expected, 1e-5f);
  EXPECT_NEAR(probs.at(0, 0), p0, 1e-5f);
  EXPECT_NEAR(probs.at(1, 1), p1, 1e-5f);
}

TEST(AutogradTest, SimpleChain) {
  // y = sum((a * b) + a); dy/da = b + 1, dy/db = a.
  Tensor a = Tensor::FromVector({2}, {2, 3}, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({2}, {5, 7}, /*requires_grad=*/true);
  Tensor y = Sum(Add(Mul(a, b), a));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 8.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 3.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::FromVector({1}, {4}, /*requires_grad=*/true);
  Tensor y1 = Sum(Scale(a, 3.0f));
  y1.Backward();
  Tensor y2 = Sum(Scale(a, 3.0f));
  y2.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // y = sum(a*a + a*a): both paths contribute.
  Tensor a = Tensor::FromVector({1}, {3}, /*requires_grad=*/true);
  Tensor sq = Mul(a, a);
  Tensor y = Sum(Add(sq, sq));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 12.0f);  // d/da 2a^2 = 4a.
}

TEST(AutogradTest, MatMulGradient) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2}, true);
  Tensor b = Tensor::FromVector({2, 1}, {3, 4}, true);
  Tensor y = Sum(MatMul(a, b));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 2.0f);
}

TEST(AutogradTest, GatherRowsScatterAddsGradient) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, true);
  Tensor g = GatherRows(a, {0, 0, 1});
  Tensor y = Sum(g);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);  // Row 0 gathered twice.
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0f);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor a = Tensor::FromVector({1}, {2}, true);
  Tensor d = Mul(a, a).Detach();
  Tensor y = Sum(Mul(d, d));
  EXPECT_FALSE(y.requires_grad());
}

}  // namespace
}  // namespace hiergat
