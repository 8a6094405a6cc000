// Property-based verification of every differentiable op against
// central finite differences (the library's correctness backbone).

#include "gradcheck.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace hiergat {
namespace {

Tensor RandomInput(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(shape, rng, 0.8f, /*requires_grad=*/true);
}

void ExpectGradOk(
    const std::function<Tensor(const std::vector<Tensor>&)>& forward,
    std::vector<Tensor> inputs, float tolerance = 2e-2f) {
  GradCheckResult result =
      CheckGradients(forward, inputs, 1e-2f, tolerance);
  EXPECT_TRUE(result.passed)
      << "max_rel_error=" << result.max_rel_error
      << " worst_input=" << result.worst_input
      << " worst_element=" << result.worst_element;
}

TEST(GradCheck, Add) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
      {RandomInput({3, 4}, 1), RandomInput({3, 4}, 2)});
}

TEST(GradCheck, AddBiasBroadcast) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
      {RandomInput({3, 4}, 3), RandomInput({4}, 4)});
}

TEST(GradCheck, SubAndNeg) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Sub(in[0], Neg(in[1])));
      },
      {RandomInput({3, 4}, 101), RandomInput({3, 4}, 102)});
}

TEST(GradCheck, SubBiasBroadcast) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor d = Sub(in[0], in[1]);
        return Sum(Mul(d, d));
      },
      {RandomInput({3, 4}, 103), RandomInput({4}, 104)});
}

TEST(GradCheck, MulAndScale) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Scale(Mul(in[0], in[1]), 1.7f));
      },
      {RandomInput({2, 3}, 5), RandomInput({2, 3}, 6)});
}

TEST(GradCheck, MatMul) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(MatMul(in[0], in[1]));
      },
      {RandomInput({3, 4}, 7), RandomInput({4, 2}, 8)});
}

TEST(GradCheck, MatMulChainWithTranspose) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(MatMul(in[0], Transpose(in[1])));
      },
      {RandomInput({2, 3}, 9), RandomInput({4, 3}, 10)});
}

TEST(GradCheck, ConcatRowsAndCols) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor rows = ConcatRows({in[0], in[1]});
        Tensor cols = ConcatCols({rows, in[2]});
        return Sum(Mul(cols, cols));
      },
      {RandomInput({2, 3}, 11), RandomInput({1, 3}, 12),
       RandomInput({3, 2}, 13)});
}

TEST(GradCheck, ReshapeAndFlatten) {
  // Reshape/Flatten alias the parent's storage; gradients must still
  // flow through the separate grad buffers.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor r = Reshape(in[0], {2, 6});
        Tensor f = Flatten(Mul(r, r));
        return Sum(Mul(f, f));
      },
      {RandomInput({3, 4}, 106)});
}

TEST(GradCheck, RowSelection) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor r = Row(in[0], 1);
        return Sum(Mul(r, r));
      },
      {RandomInput({3, 4}, 107)});
}

TEST(GradCheck, SliceRows) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor a = SliceRows(in[0], 1, 3);
        return Sum(Mul(a, a));
      },
      {RandomInput({4, 3}, 14)});
}

TEST(GradCheck, GatherRows) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor g = GatherRows(in[0], {0, 2, 2, 1});
        return Sum(Mul(g, g));
      },
      {RandomInput({3, 3}, 15)});
}

TEST(GradCheck, Softmax) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor s = Softmax(in[0]);
        // Non-uniform downstream weights exercise the full Jacobian.
        Tensor w = Tensor::FromVector({2, 3}, {1, -2, 3, 0.5, 2, -1});
        return Sum(Mul(s, w));
      },
      {RandomInput({2, 3}, 16)});
}

TEST(GradCheck, EmbeddingLookup) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor e = EmbeddingLookup(in[0], {1, 0, 1, 2});
        return Sum(Mul(e, e));
      },
      {RandomInput({3, 3}, 108)});
}

TEST(GradCheck, Relu) {
  // Inputs pushed away from the kink at 0, where the derivative is not
  // defined and finite differences straddle it.
  Rng rng(109);
  Tensor x = Tensor::Uniform({3, 3}, rng, 0.2f, 1.5f, true);
  Tensor y = Tensor::Uniform({3, 3}, rng, -1.5f, -0.2f, true);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Add(Relu(in[0]), Relu(in[1])));
      },
      {x, y});
}

TEST(GradCheck, Dropout) {
  // A fresh Rng with a fixed seed per forward call makes the mask
  // deterministic, so finite differences see the same function.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Rng rng(7);
        Tensor d = Dropout(in[0], 0.4f, rng, /*training=*/true);
        return Sum(Mul(d, d));
      },
      {RandomInput({4, 4}, 110)});
}

TEST(GradCheck, Activations) {
  for (uint64_t seed : {17u, 18u}) {
    ExpectGradOk(
        [](const std::vector<Tensor>& in) {
          Tensor h = Tanh(in[0]);
          h = Add(h, Sigmoid(in[0]));
          h = Add(h, LeakyRelu(in[0], 0.2f));
          h = Add(h, Gelu(in[0]));
          return Sum(Mul(h, h));
        },
        {RandomInput({3, 3}, seed)});
  }
}

TEST(GradCheck, Exp) {
  Rng rng(19);
  Tensor x = Tensor::Uniform({2, 3}, rng, 0.5f, 2.0f, true);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) { return Sum(Exp(Scale(in[0], 0.3f))); },
      {x});
}

TEST(GradCheck, Reductions) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor m = MeanRows(in[0]);
        Tensor s = SumRows(in[0]);
        return Add(Mean(in[0]), Sum(Mul(m, s)));
      },
      {RandomInput({3, 4}, 20)});
}

TEST(GradCheck, LayerNorm) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor y = LayerNorm(in[0], in[1], in[2]);
        Tensor w = Tensor::FromVector({2, 4},
                                      {1, -1, 2, 0.5, -2, 1, 0.3, 1});
        return Sum(Mul(y, w));
      },
      {RandomInput({2, 4}, 21), RandomInput({4}, 22), RandomInput({4}, 23)},
      /*tolerance=*/5e-2f);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return SoftmaxCrossEntropy(in[0], {1, 0, 1});
      },
      {RandomInput({3, 2}, 24)});
}

TEST(GradCheck, AttentionComposite) {
  // A miniature scaled-dot-product attention: the composite exercises
  // MatMul + Softmax + Transpose in the exact pattern the models use.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor scores = Scale(MatMul(in[0], Transpose(in[1])), 0.5f);
        Tensor attn = Softmax(scores);
        Tensor out = MatMul(attn, in[2]);
        return Sum(Mul(out, out));
      },
      {RandomInput({3, 4}, 25), RandomInput({3, 4}, 26),
       RandomInput({3, 4}, 27)},
      /*tolerance=*/5e-2f);
}

TEST(GradCheck, LinearOpWithBias) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor y = LinearOp(in[0], in[1], in[2]);
        return Sum(Mul(y, y));
      },
      {RandomInput({3, 4}, 201), RandomInput({4, 2}, 202),
       RandomInput({2}, 203)});
}

TEST(GradCheck, LinearOpNoBias) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor y = LinearOp(in[0], in[1]);
        return Sum(Mul(y, y));
      },
      {RandomInput({2, 5}, 204), RandomInput({5, 3}, 205)});
}

TEST(GradCheck, AttentionScoresFused) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor attn = AttentionScores(in[0], in[1], 0.5f);
        Tensor w = Tensor::FromVector({3, 2}, {1, -2, 3, 0.5, 2, -1});
        return Sum(Mul(attn, w));
      },
      {RandomInput({3, 4}, 206), RandomInput({2, 4}, 207)},
      /*tolerance=*/5e-2f);
}

TEST(GradCheck, AttentionScoresWithMask) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor attn = AttentionScores(in[0], in[1], 0.7f, in[2]);
        Tensor out = MatMul(attn, in[3]);
        return Sum(Mul(out, out));
      },
      {RandomInput({3, 4}, 208), RandomInput({3, 4}, 209),
       RandomInput({3, 3}, 210), RandomInput({3, 2}, 211)},
      /*tolerance=*/5e-2f);
}

TEST(GradCheck, FusedMatchesUnfusedComposition) {
  // The fused nodes must compute the same function as the op chains
  // they replace — values and gradients.
  Tensor x = RandomInput({3, 4}, 212);
  Tensor w = RandomInput({4, 2}, 213);
  Tensor b = RandomInput({2}, 214);

  Tensor fused_loss = Sum(LinearOp(x, w, b));
  fused_loss.Backward();
  const std::vector<float> gx = x.grad(), gw = w.grad(), gb = b.grad();

  x.ZeroGrad();
  w.ZeroGrad();
  b.ZeroGrad();
  Tensor unfused_loss = Sum(Add(MatMul(x, w), b));
  unfused_loss.Backward();

  EXPECT_NEAR(fused_loss.item(), unfused_loss.item(), 1e-5f);
  for (size_t i = 0; i < gx.size(); ++i)
    EXPECT_NEAR(gx[i], x.grad()[i], 1e-4f);
  for (size_t i = 0; i < gw.size(); ++i)
    EXPECT_NEAR(gw[i], w.grad()[i], 1e-4f);
  for (size_t i = 0; i < gb.size(); ++i)
    EXPECT_NEAR(gb[i], b.grad()[i], 1e-4f);
}

// Parameterized sweep: Sum of elementwise composite over many shapes.
class GradCheckShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GradCheckShapes, CompositeElementwise) {
  const Shape shape = GetParam();
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor h = Mul(Tanh(in[0]), Sigmoid(in[0]));
        return Sum(Mul(h, h));
      },
      {RandomInput(shape, 31 + static_cast<uint64_t>(shape[0]))});
}

INSTANTIATE_TEST_SUITE_P(Shapes, GradCheckShapes,
                         ::testing::Values(Shape{1, 1}, Shape{1, 7},
                                           Shape{5, 1}, Shape{4, 4},
                                           Shape{2, 9}, Shape{8, 3}));

}  // namespace
}  // namespace hiergat
