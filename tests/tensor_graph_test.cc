#include "tensor/graph.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

std::vector<float> Iota(int n, float start = 0.0f, float step = 0.125f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = start + step * i;
  return v;
}

// Captures `build` over a single [rows, cols] input and returns the
// compiled graph, asserting the capture succeeded.
template <typename BuildFn>
std::unique_ptr<graph::CompiledGraph> CompileUnary(int rows, int cols,
                                                   BuildFn build) {
  NoGradGuard no_grad;
  Tensor x = Tensor::FromVector({rows, cols}, Iota(rows * cols, 0.3f));
  graph::GraphCapture capture;
  capture.MarkInput(x);
  Tensor y = build(x);
  capture.MarkOutput(y);
  auto compiled = capture.Finish();
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

TEST(TensorGraphTest, UnaryChainReplaysBitwise) {
  NoGradGuard no_grad;
  auto compiled = CompileUnary(
      4, 8, [](const Tensor& x) { return Tanh(Sigmoid(Scale(x, 0.5f))); });
  ASSERT_EQ(compiled->num_inputs(), 1);
  ASSERT_EQ(compiled->num_outputs(), 1);

  Tensor x = Tensor::FromVector({4, 8}, Iota(32, -1.7f, 0.21f));
  Tensor want = Tanh(Sigmoid(Scale(x, 0.5f)));
  std::vector<float> got(32);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)])
        << "element " << i << " not bit-identical";
  }
}

TEST(TensorGraphTest, LinearLayerNormReplaysBitwise) {
  NoGradGuard no_grad;
  Rng rng(7);
  Tensor w = Tensor::Randn({8, 6}, rng);
  Tensor b = Tensor::Randn({6}, rng);
  Tensor gamma = Tensor::Full({6}, 1.1f);
  Tensor beta = Tensor::Full({6}, -0.2f);
  auto fwd = [&](const Tensor& x) {
    return LayerNorm(Relu(LinearOp(x, w, b)), gamma, beta);
  };
  auto compiled = CompileUnary(5, 8, fwd);

  Tensor x = Tensor::FromVector({5, 8}, Iota(40, 0.9f, -0.07f));
  Tensor want = fwd(x);
  std::vector<float> got(30);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

TEST(TensorGraphTest, AttentionScoresReplayBitwise) {
  NoGradGuard no_grad;
  Rng rng(11);
  Tensor k = Tensor::Randn({6, 4}, rng);
  Tensor mask = Tensor::Zeros({3, 6});
  mask.data()[1] = -1e9f;
  auto fwd = [&](const Tensor& q) {
    return AttentionScores(q, k, 0.5f, mask);
  };
  auto compiled = CompileUnary(3, 4, fwd);

  Tensor q = Tensor::Randn({3, 4}, rng);
  Tensor want = fwd(q);
  std::vector<float> got(18);
  const float* in[] = {q.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 18; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

// Every recorded op, replayed over a fresh input, must match its eager
// result bit for bit. The input is fresh so that a row the replay
// failed to write cannot keep the bits of the capture-time run.
TEST(TensorGraphTest, EveryRecordedOpReplaysBitwise) {
  NoGradGuard no_grad;
  constexpr int kRows = 64, kCols = 160;
  Rng rng(41);
  const Tensor w = Tensor::Randn({kCols, 32}, rng, 0.1f);
  const Tensor b = Tensor::Randn({32}, rng);
  const Tensor bias = Tensor::Randn({kCols}, rng);
  const Tensor same = Tensor::Randn({kRows, kCols}, rng);
  const Tensor keys = Tensor::Randn({kCols, kCols}, rng, 0.1f);
  Tensor mask = Tensor::Zeros({kRows, kCols});
  for (int r = 0; r < kRows; ++r) mask.set(r, (r * 7) % kCols, -1e9f);
  const Tensor gamma = Tensor::Randn({kCols}, rng);
  const Tensor beta = Tensor::Randn({kCols}, rng);
  const Tensor extra_rows = Tensor::Randn({8, kCols}, rng);
  const Tensor extra_cols = Tensor::Randn({kRows, 16}, rng);
  std::vector<int> indices;
  for (int i = 0; i < 40; ++i) indices.push_back((i * 13) % kRows);
  // Packed sequences of 1, 3, 36 and 24 rows: the one-row sequence takes
  // no diagonal mask.
  const std::vector<int> segments = {0, 1, 4, 40, kRows};
  const Tensor probabilities =
      AttentionScores(Tensor::Randn({kRows, 8}, rng),
                      Tensor::Randn({kRows, 8}, rng), 0.5f, segments);

  struct Case {
    const char* name;
    std::function<Tensor(const Tensor&)> fwd;
    std::span<const int> segments = {};
    /// Leading output floats with defined values (0: all). The packed
    /// attention buffer defines only its Σ len² block floats.
    size_t defined_floats = 0;
  };
  const std::vector<Case> cases = {
      {"Add", [&](const Tensor& x) { return Add(x, same); }},
      {"Add(bias)", [&](const Tensor& x) { return Add(x, bias); }},
      {"Sub", [&](const Tensor& x) { return Sub(x, same); }},
      {"Sub(bias)", [&](const Tensor& x) { return Sub(x, bias); }},
      {"Mul", [&](const Tensor& x) { return Mul(x, same); }},
      {"Scale", [&](const Tensor& x) { return Scale(x, -0.37f); }},
      {"Relu", [&](const Tensor& x) { return Relu(x); }},
      {"LeakyRelu", [&](const Tensor& x) { return LeakyRelu(x, 0.1f); }},
      {"Tanh", [&](const Tensor& x) { return Tanh(x); }},
      {"Sigmoid", [&](const Tensor& x) { return Sigmoid(x); }},
      {"Gelu", [&](const Tensor& x) { return Gelu(x); }},
      {"Exp", [&](const Tensor& x) { return Exp(x); }},
      {"MatMul", [&](const Tensor& x) { return MatMul(x, w); }},
      {"Transpose", [&](const Tensor& x) { return Transpose(x); }},
      {"ConcatRows",
       [&](const Tensor& x) { return ConcatRows({extra_rows, x}); }},
      {"ConcatCols",
       [&](const Tensor& x) { return ConcatCols({x, extra_cols, x}); }},
      {"GatherRows", [&](const Tensor& x) { return GatherRows(x, indices); }},
      {"Sum", [&](const Tensor& x) { return Sum(x); }},
      {"SumRows", [&](const Tensor& x) { return SumRows(x); }},
      {"Softmax", [&](const Tensor& x) { return Softmax(x); }},
      {"LayerNorm", [&](const Tensor& x) { return LayerNorm(x, gamma, beta); }},
      {"Linear", [&](const Tensor& x) { return LinearOp(x, w, b); }},
      {"Linear(no bias)",
       [&](const Tensor& x) { return LinearOp(x, w, Tensor()); }},
      {"AttentionScores",
       [&](const Tensor& x) {
         return AttentionScores(x, keys, 0.125f, mask);
       }},
      {"AttentionScores(no mask)",
       [&](const Tensor& x) {
         return AttentionScores(x, keys, 0.125f, Tensor());
       }},
      {"AttentionScores(packed)",
       [&](const Tensor& x) {
         return AttentionScores(x, same, 0.125f, segments);
       },
       segments, 1 + 9 + 36 * 36 + 24 * 24},
      {"MatMul(packed)",
       [&](const Tensor& x) { return MatMul(probabilities, x, segments); },
       segments},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto compiled = CompileUnary(kRows, kCols, c.fwd);
    ASSERT_NE(compiled, nullptr);
    ASSERT_EQ(compiled->stats().num_nodes, 1);
    const Tensor x = Tensor::Randn({kRows, kCols}, rng);
    const Tensor want = c.fwd(x);
    const float* in[] = {x.data().data()};
    std::vector<float> got(want.data().size(), -7.0f);
    float* out[] = {got.data()};
    compiled->Run(in, out, c.segments);
    const size_t floats = c.defined_floats > 0 ? c.defined_floats : got.size();
    for (size_t i = 0; i < floats; ++i) {
      ASSERT_EQ(got[i], want.data()[i]) << "element " << i;
    }
  }
}

// A packed graph replays any sequence table over any live row count up
// to its capacity, and every sequence's rows carry the bits of encoding
// that sequence alone: the argument the packed scoring path rests on
// (DESIGN.md §11).
TEST(TensorGraphTest, PackedEncoderMatchesEachSequenceAlone) {
  NoGradGuard no_grad;
  Rng rng(5);
  TransformerConfig config;
  config.dim = 16;
  config.ffn_dim = 24;
  const TransformerEncoder encoder(config, rng);
  constexpr int kCapacity = 32;
  const std::vector<int> capture_segments = {0, 4, 8, 16, kCapacity};
  auto compiled = CompileUnary(kCapacity, config.dim, [&](const Tensor& x) {
    return encoder.Forward(x, /*training=*/false, rng,
                           /*add_positions=*/false, capture_segments);
  });
  const Tensor positions =
      Scale(SinusoidalPositions(kCapacity, config.dim), config.position_scale);

  for (const std::vector<int>& segments :
       {std::vector<int>{0, 1, 6, 13, 21}, std::vector<int>{0, 2},
        std::vector<int>{0, kCapacity}}) {
    SCOPED_TRACE(segments.back());
    std::vector<Tensor> sequences;
    std::vector<float> packed;
    for (size_t s = 0; s + 1 < segments.size(); ++s) {
      const int len = segments[s + 1] - segments[s];
      sequences.push_back(Tensor::Randn({len, config.dim}, rng));
      const Tensor with_positions =
          Add(sequences.back(), SliceRows(positions, 0, len));
      packed.insert(packed.end(), with_positions.data().begin(),
                    with_positions.data().end());
    }
    std::vector<float> got(packed.size(), -7.0f);
    const float* in[] = {packed.data()};
    float* out[] = {got.data()};
    compiled->Run(in, out, segments);
    for (size_t s = 0; s < sequences.size(); ++s) {
      const Tensor want =
          encoder.Forward(sequences[s], /*training=*/false, rng);
      const size_t row0 = static_cast<size_t>(segments[s]) * config.dim;
      for (size_t i = 0; i < want.data().size(); ++i) {
        ASSERT_EQ(got[row0 + i], want.data()[i])
            << "sequence " << s << " element " << i;
      }
    }
  }
}

// A packed encoder replayed with a query table keeps only each
// sequence's query rows, and they carry the bits of the all-rows replay
// (and so of each sequence encoded alone): every node of the last
// layer's query side is row-independent. Hostile tables: one-row
// sequences (no diagonal mask), a capacity-long one, mixed lengths 1-40
// and a lone sequence; query tables of row 0 only and of leading rows.
TEST(TensorGraphTest, PackedEncoderQueryRowsMatchTheAllRowsReplay) {
  NoGradGuard no_grad;
  Rng rng(23);
  TransformerConfig config;
  config.dim = 16;
  config.ffn_dim = 24;
  const TransformerEncoder encoder(config, rng);
  constexpr int kCapacity = 128;
  std::vector<int> capture_segments;
  for (int row = 0; row <= kCapacity; row += 4) capture_segments.push_back(row);
  auto compiled = CompileUnary(kCapacity, config.dim, [&](const Tensor& x) {
    return encoder.Forward(x, /*training=*/false, rng,
                           /*add_positions=*/false, capture_segments);
  });
  const std::vector<int> lengths[] = {
      {1, 1, 1, 1, 1},
      {kCapacity},
      {1, 40, 7, 2, 33, 1, 16, 3, 25},
      {9},
  };
  for (const std::vector<int>& lens : lengths) {
    std::vector<int> segments = {0};
    for (int len : lens) segments.push_back(segments.back() + len);
    SCOPED_TRACE(segments.back());
    // Row 0 of each sequence, then up to three leading rows.
    std::vector<int> row0 = {0};
    std::vector<int> leading = {0};
    for (int len : lens) {
      row0.push_back(row0.back() + 1);
      leading.push_back(leading.back() + std::min(len, 3));
    }
    const Tensor x = Tensor::Randn({segments.back(), config.dim}, rng);
    const size_t f = static_cast<size_t>(config.dim);
    std::vector<float> all(x.data().size(), -7.0f);
    const float* in[] = {x.data().data()};
    float* all_out[] = {all.data()};
    compiled->Run(in, all_out, segments);
    for (const std::vector<int>* queries : {&row0, &leading}) {
      std::vector<float> got(static_cast<size_t>(queries->back()) * f,
                             -7.0f);
      float* out[] = {got.data()};
      compiled->Run(in, out, segments, *queries);
      for (size_t s = 0; s < lens.size(); ++s) {
        const int qlen = (*queries)[s + 1] - (*queries)[s];
        for (size_t i = 0; i < static_cast<size_t>(qlen) * f; ++i) {
          ASSERT_EQ(got[static_cast<size_t>((*queries)[s]) * f + i],
                    all[static_cast<size_t>(segments[s]) * f + i])
              << "sequence " << s << " element " << i << " of " << qlen
              << " query rows";
        }
      }
    }
  }
}

// The row independence the query side rests on, on every registered
// backend (a replay runs only the active one): each output row of the
// GEMMs, softmax and LayerNorm keeps its bits when its block holds fewer
// rows, starting anywhere, as a qlen-row attention block or a query-row
// Linear does.
TEST(TensorGraphTest, KernelRowsKeepTheirBitsInShorterBlocks) {
  constexpr int kRows = 13, kCols = 37, kInner = 21;
  Rng rng(29);
  const std::vector<float> a = Tensor::Randn({kRows, kInner}, rng).data();
  const std::vector<float> b = Tensor::Randn({kInner, kCols}, rng).data();
  const std::vector<float> bt = Tensor::Randn({kCols, kInner}, rng).data();
  const std::vector<float> x = Tensor::Randn({kRows, kCols}, rng).data();
  const std::vector<float> gamma = Tensor::Randn({kCols}, rng).data();
  const std::vector<float> beta = Tensor::Randn({kCols}, rng).data();
  const size_t out_floats = static_cast<size_t>(kRows) * kCols;
  for (const backend::Kernels* kr : backend::Registered()) {
    SCOPED_TRACE(kr->name);
    // Each kernel over rows [first, first + m) into `out`'s same rows.
    auto run = [&](int first, int m, std::vector<float>* out) {
      out->assign(4 * out_floats, 0.0f);
      std::vector<float> scratch(out_floats + kRows);
      const size_t in0 = static_cast<size_t>(first) * kInner;
      const size_t out0 = static_cast<size_t>(first) * kCols;
      kr->gemm_nn(m, kCols, kInner, 0.7f, a.data() + in0, b.data(),
                  out->data() + out0);
      kr->gemm_nt(m, kCols, kInner, 0.7f, a.data() + in0, bt.data(),
                  out->data() + out_floats + out0);
      kr->softmax_rows(m, kCols, x.data() + out0,
                       out->data() + 2 * out_floats + out0);
      kr->layer_norm_rows(m, kCols, 1e-5f, x.data() + out0, gamma.data(),
                          beta.data(), out->data() + 3 * out_floats + out0,
                          scratch.data(), scratch.data() + out_floats);
    };
    std::vector<float> full, part;
    run(0, kRows, &full);
    for (int m : {1, 2, 3, 5}) {
      for (int first = 0; first + m <= kRows; ++first) {
        run(first, m, &part);
        for (int k = 0; k < 4; ++k) {
          const size_t begin = k * out_floats + static_cast<size_t>(first) *
                                                    kCols;
          for (size_t i = begin; i < begin + static_cast<size_t>(m) * kCols;
               ++i) {
            ASSERT_EQ(part[i], full[i]) << "kernel " << k << ", rows "
                                        << first << "+" << m;
          }
        }
      }
    }
  }
}

// Each replay adds its graph's static per-op totals to the
// `hiergat.graph.node.<op>.*` counters once, whatever the node count.
TEST(TensorGraphTest, NodeCountersAddStaticPerOpTotalsPerReplay) {
  NoGradGuard no_grad;
  Rng rng(9);
  const Tensor w1 = Tensor::Randn({8, 8}, rng);
  const Tensor w2 = Tensor::Randn({8, 8}, rng);
  auto compiled = CompileUnary(6, 8, [&](const Tensor& x) {
    return Add(LinearOp(Gelu(LinearOp(x, w1)), w2), x);
  });
  struct Totals {
    int64_t replays = 0, flops = 0, bytes = 0;
  };
  std::map<std::string, Totals> per_op;
  for (const graph::NodeCost& cost : compiled->node_costs()) {
    Totals& totals = per_op[cost.name];
    totals.replays += 1;
    totals.flops += cost.flops;
    totals.bytes += cost.bytes;
  }
  ASSERT_EQ(per_op.at("Linear").replays, 2);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&](const std::string& op, const char* field) {
    return registry.GetCounter("hiergat.graph.node." + op + "." + field)
        .Value();
  };
  std::map<std::string, Totals> before;
  for (const auto& [op, totals] : per_op) {
    before[op] = {counter(op, "replays"), counter(op, "est_flops"),
                  counter(op, "est_bytes")};
  }
  constexpr int kReplays = 5;
  const Tensor x = Tensor::Randn({6, 8}, rng);
  std::vector<float> got(48);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  for (int r = 0; r < kReplays; ++r) compiled->Run(in, out);
  for (const auto& [op, totals] : per_op) {
    SCOPED_TRACE(op);
    EXPECT_EQ(counter(op, "replays") - before[op].replays,
              kReplays * totals.replays);
    EXPECT_EQ(counter(op, "est_flops") - before[op].flops,
              kReplays * totals.flops);
    EXPECT_EQ(counter(op, "est_bytes") - before[op].bytes,
              kReplays * totals.bytes);
  }
}

// A packed replay adds its live cost, not its capture's: row-wise nodes
// scale by live rows over captured rows (a Linear's weights counted
// whole), or by live query rows on the query side, and packed attention
// nodes follow the tables' Σ qlen·len.
TEST(TensorGraphTest, PackedReplayAddsItsLiveCost) {
  NoGradGuard no_grad;
  Rng rng(17);
  constexpr int kCapacity = 16, kDim = 8;
  const Tensor w = Tensor::Randn({kDim, kDim}, rng);
  const Tensor b = Tensor::Randn({kDim}, rng);
  const std::vector<int> capture_segments = {0, 4, 8, 12, kCapacity};
  auto compiled = CompileUnary(kCapacity, kDim, [&](const Tensor& x) {
    const Tensor h = Gelu(LinearOp(x, w, b));
    const Tensor q = QueryRows(h, capture_segments);
    return Tanh(MatMul(AttentionScores(q, h, 0.5f, capture_segments), h,
                       capture_segments));
  });
  std::map<std::string, graph::NodeCost> static_cost;
  for (const graph::NodeCost& cost : compiled->node_costs()) {
    ASSERT_EQ(static_cost.count(cost.name), 0u) << cost.name;
    static_cost[cost.name] = cost;
  }
  ASSERT_EQ(static_cost.size(), 6u);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&](const std::string& op, const char* field) {
    return registry.GetCounter("hiergat.graph.node." + op + "." + field)
        .Value();
  };
  // Cost added by one replay over `segments` and `queries`, per op.
  auto replay_cost = [&](const std::vector<int>& segments,
                         const std::vector<int>& queries = {}) {
    std::map<std::string, graph::NodeCost> before;
    for (const auto& [op, cost] : static_cost) {
      before[op] = {nullptr, counter(op, "est_flops"),
                    counter(op, "est_bytes")};
    }
    const Tensor x = Tensor::Randn({kCapacity, kDim}, rng);
    std::vector<float> got(static_cast<size_t>(kCapacity) * kDim);
    const float* in[] = {x.data().data()};
    float* out[] = {got.data()};
    compiled->Run(in, out, segments, queries);
    std::map<std::string, graph::NodeCost> added;
    for (const auto& [op, cost] : static_cost) {
      added[op] = {nullptr, counter(op, "est_flops") - before[op].flops,
                   counter(op, "est_bytes") - before[op].bytes};
    }
    return added;
  };

  // Replaying the capture's own table costs the static estimate.
  for (const auto& [op, cost] : replay_cost(capture_segments)) {
    SCOPED_TRACE(op);
    EXPECT_EQ(cost.flops, static_cost.at(op).flops);
    EXPECT_EQ(cost.bytes, static_cost.at(op).bytes);
  }

  // Two sequences, 1 + 5 = 6 live rows and 1 + 25 = 26 block floats, on
  // a capture of 16 rows and 4 * 4^2 = 64 block floats.
  const auto live = replay_cost({0, 1, 6});
  const graph::NodeCost& gelu = static_cost.at("Gelu");
  EXPECT_EQ(gelu.flops, kCapacity * kDim);
  EXPECT_EQ(live.at("Gelu").flops, 6 * kDim);
  EXPECT_EQ(live.at("Gelu").bytes, gelu.bytes * 6 / kCapacity);
  const graph::NodeCost& linear = static_cost.at("Linear");
  const int64_t weight_bytes = (kDim * kDim + kDim) * sizeof(float);
  EXPECT_EQ(live.at("Linear").flops, linear.flops * 6 / kCapacity);
  EXPECT_EQ(live.at("Linear").bytes,
            weight_bytes + (linear.bytes - weight_bytes) * 6 / kCapacity);
  // AttentionScores: (2d + 6) FLOPs per block float; reads q and k rows
  // and writes the blocks.
  EXPECT_EQ(static_cost.at("AttentionScores").flops, 64 * (2 * kDim + 6));
  EXPECT_EQ(live.at("AttentionScores").flops, 26 * (2 * kDim + 6));
  EXPECT_EQ(live.at("AttentionScores").bytes,
            (26 + 6 * 2 * kDim) * static_cast<int64_t>(sizeof(float)));
  // MatMul: 2d FLOPs per block float; reads the blocks and v's rows and
  // writes its rows.
  EXPECT_EQ(static_cost.at("MatMul").flops, 64 * 2 * kDim);
  EXPECT_EQ(live.at("MatMul").flops, 26 * 2 * kDim);
  EXPECT_EQ(live.at("MatMul").bytes,
            (26 + 6 * 2 * kDim) * static_cast<int64_t>(sizeof(float)));

  // The same sequences with row 0 as the only query row of each: 2 live
  // query rows and 1 + 5 = 6 block floats. The rows side costs as
  // before; the query side (the gather, the attention's q rows and
  // output rows, Tanh) follows the 2 query rows.
  const auto heads = replay_cost({0, 1, 6}, {0, 1, 2});
  constexpr int64_t kFloat = sizeof(float);
  EXPECT_EQ(heads.at("Gelu").flops, live.at("Gelu").flops);
  EXPECT_EQ(heads.at("Linear").bytes, live.at("Linear").bytes);
  EXPECT_EQ(heads.at("QueryRows").flops, 2 * kDim);
  EXPECT_EQ(heads.at("QueryRows").bytes, 2 * 2 * kDim * kFloat);
  EXPECT_EQ(heads.at("AttentionScores").flops, 6 * (2 * kDim + 6));
  EXPECT_EQ(heads.at("AttentionScores").bytes,
            (6 + 6 * kDim + 2 * kDim) * kFloat);
  EXPECT_EQ(heads.at("MatMul").flops, 6 * 2 * kDim);
  EXPECT_EQ(heads.at("MatMul").bytes, (6 + 6 * kDim + 2 * kDim) * kFloat);
  EXPECT_EQ(heads.at("Tanh").flops, 2 * kDim);
  EXPECT_EQ(heads.at("Tanh").bytes, static_cost.at("Tanh").bytes * 2 /
                                        kCapacity);
}

// A graph without a QueryRows gather has no query side: a query table
// changes neither its output nor its cost, and its packed attention
// still attends from every row.
TEST(TensorGraphTest, QueryTableLeavesEveryRowNodesAlone) {
  NoGradGuard no_grad;
  Rng rng(37);
  constexpr int kCapacity = 16, kDim = 8;
  const std::vector<int> capture_segments = {0, 4, 8, 12, kCapacity};
  auto compiled = CompileUnary(kCapacity, kDim, [&](const Tensor& x) {
    return MatMul(AttentionScores(x, x, 0.5f, capture_segments), x,
                  capture_segments);
  });
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Block FLOPs and per-row bytes of the two packed attention nodes.
  auto cost = [&] {
    return registry.GetCounter("hiergat.graph.node.AttentionScores.est_flops")
               .Value() +
           registry.GetCounter("hiergat.graph.node.MatMul.est_bytes").Value();
  };
  const std::vector<int> segments = {0, 1, 6, 13};
  const Tensor x = Tensor::Randn({kCapacity, kDim}, rng);
  const float* in[] = {x.data().data()};
  std::vector<float> all(13 * kDim, -7.0f), heads(13 * kDim, -7.0f);
  float* all_out[] = {all.data()};
  float* heads_out[] = {heads.data()};
  int64_t before = cost();
  compiled->Run(in, all_out, segments);
  const int64_t all_cost = cost() - before;
  before = cost();
  compiled->Run(in, heads_out, segments, std::vector<int>{0, 1, 2, 3});
  EXPECT_EQ(cost() - before, all_cost);
  EXPECT_EQ(heads, all);
}

// A row-wise node may not mix the query side with every row: its rows
// would not line up at replay.
TEST(TensorGraphTest, MixingQueryRowsWithEveryRowPoisonsCapture) {
  NoGradGuard no_grad;
  Tensor x = Tensor::FromVector({4, 2}, Iota(8));
  const std::vector<int> segments = {0, 2, 4};
  graph::GraphCapture capture;
  capture.MarkInput(x);
  Tensor y = Add(x, QueryRows(Relu(x), segments));
  capture.MarkOutput(y);
  EXPECT_FALSE(capture.ok());
  auto compiled = capture.Finish();
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnimplemented);
}

TEST(TensorGraphTest, LeafOnlySubgraphFoldsToConstant) {
  NoGradGuard no_grad;
  Rng rng(3);
  Tensor w1 = Tensor::Randn({4, 4}, rng);
  Tensor w2 = Tensor::Randn({4, 4}, rng);
  auto compiled = CompileUnary(4, 4, [&](const Tensor& x) {
    // MatMul(w1, w2) sees only leaves: it must fold at capture, leaving
    // a single Add node at replay.
    return Add(x, MatMul(w1, w2));
  });
  EXPECT_GE(compiled->stats().num_folded, 1);
  EXPECT_EQ(compiled->stats().num_nodes, 1);

  Tensor x = Tensor::FromVector({4, 4}, Iota(16, 2.0f));
  Tensor want = Add(x, MatMul(w1, w2));
  std::vector<float> got(16);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

TEST(TensorGraphTest, FullyConstantGraphHasNoNodes) {
  NoGradGuard no_grad;
  Rng rng(9);
  Tensor w = Tensor::Randn({3, 5}, rng);
  Tensor want = Tanh(Scale(w, 0.25f));

  graph::GraphCapture capture;
  Tensor y = Tanh(Scale(w, 0.25f));
  capture.MarkOutput(y);
  auto compiled_or = capture.Finish();
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = std::move(compiled_or).value();

  EXPECT_EQ(compiled->num_inputs(), 0);
  EXPECT_EQ(compiled->stats().num_nodes, 0);
  EXPECT_EQ(compiled->stats().plan_bytes, 0u);

  std::vector<float> got(15);
  float* out[] = {got.data()};
  compiled->Run(nullptr, out);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

TEST(TensorGraphTest, LeafParametersAreResolvedLive) {
  NoGradGuard no_grad;
  Tensor w = Tensor::FromVector({2, 3}, Iota(6, 1.0f, 1.0f));
  auto compiled = CompileUnary(2, 3, [&](const Tensor& x) {
    // Add(x, w) mixes an input with a leaf, so w cannot fold: the
    // compiled graph must read w's buffer at every replay.
    return Add(x, w);
  });

  Tensor x = Tensor::FromVector({2, 3}, Iota(6, 10.0f, 10.0f));
  std::vector<float> got(6);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  EXPECT_EQ(got[0], 11.0f);

  w.data()[0] = 100.0f;  // In-place parameter edit.
  compiled->Run(in, out);
  EXPECT_EQ(got[0], 110.0f) << "leaf edit not visible at replay";
}

TEST(TensorGraphTest, SlicesAndReshapesBecomeViews) {
  NoGradGuard no_grad;
  auto compiled = CompileUnary(6, 4, [](const Tensor& x) {
    Tensor top = SliceRows(x, 1, 4);    // View at offset 4 floats.
    Tensor flat = Flatten(top);         // View of a view.
    return Mul(flat, flat);
  });
  EXPECT_GE(compiled->stats().num_views, 2);
  EXPECT_EQ(compiled->stats().num_nodes, 1);  // Only the Mul executes.

  Tensor x = Tensor::FromVector({6, 4}, Iota(24, 0.5f));
  Tensor want = [&] {
    Tensor top = SliceRows(x, 1, 4);
    Tensor flat = Flatten(top);
    return Mul(flat, flat);
  }();
  std::vector<float> got(12);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

TEST(TensorGraphTest, OutputMayBeAViewOfAnInput) {
  NoGradGuard no_grad;
  auto compiled =
      CompileUnary(4, 3, [](const Tensor& x) { return SliceRows(x, 2, 4); });
  EXPECT_EQ(compiled->stats().num_nodes, 0);

  Tensor x = Tensor::FromVector({4, 3}, Iota(12, 1.0f, 1.0f));
  std::vector<float> got(6);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], 7.0f + i);
  }
}

TEST(TensorGraphTest, PlannerReusesArenaSlots) {
  NoGradGuard no_grad;
  // A straight chain only ever has two values live at once, so the
  // packed arena must be well under the eager sum of all six
  // intermediates.
  auto compiled = CompileUnary(16, 16, [](const Tensor& x) {
    Tensor y = x;
    for (int i = 0; i < 6; ++i) y = Tanh(Scale(y, 0.9f));
    return y;
  });
  const graph::PlanStats& stats = compiled->stats();
  EXPECT_EQ(stats.num_nodes, 12);
  EXPECT_GT(stats.plan_bytes, 0u);
  EXPECT_LT(stats.plan_bytes, stats.eager_bytes / 2);
}

TEST(TensorGraphTest, NoTwoLiveValuesShareArenaBytes) {
  NoGradGuard no_grad;
  Rng rng(13);
  Tensor w = Tensor::Randn({12, 12}, rng);
  auto compiled = CompileUnary(9, 12, [&](const Tensor& x) {
    // Diamond shape keeps several values live at once.
    Tensor h = Relu(LinearOp(x, w));
    Tensor a = Softmax(h);
    Tensor b = Sigmoid(h);
    Tensor c = ConcatRows({a, b});
    return Add(Mul(a, b), SliceRows(c, 3, 12));
  });
  const auto& plan = compiled->plan();
  ASSERT_FALSE(plan.empty());
  for (size_t i = 0; i < plan.size(); ++i) {
    for (size_t j = i + 1; j < plan.size(); ++j) {
      const auto& p = plan[i];
      const auto& q = plan[j];
      const bool live_overlap = p.def_node <= q.last_use_node &&
                                q.def_node <= p.last_use_node;
      if (!live_overlap) continue;
      const bool bytes_overlap =
          p.offset_floats < q.offset_floats + q.size_floats &&
          q.offset_floats < p.offset_floats + p.size_floats;
      EXPECT_FALSE(bytes_overlap)
          << "values " << i << " and " << j << " are both live in ["
          << std::max(p.def_node, q.def_node) << ", "
          << std::min(p.last_use_node, q.last_use_node)
          << "] yet share arena bytes";
    }
  }
}

TEST(TensorGraphTest, DetachPoisonsCapture) {
  NoGradGuard no_grad;
  Tensor x = Tensor::FromVector({2, 2}, Iota(4));
  graph::GraphCapture capture;
  capture.MarkInput(x);
  Tensor y = Relu(x).Detach();
  Tensor z = Scale(y, 2.0f);
  capture.MarkOutput(z);
  EXPECT_FALSE(capture.ok());
  auto compiled = capture.Finish();
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnimplemented);
  // Eager execution during the poisoned capture stayed correct.
  EXPECT_EQ(z.data()[3], Iota(4)[3] * 2.0f);
}

TEST(TensorGraphTest, UnrecordedOpPoisonsCapture) {
  Tensor x = Tensor::FromVector({2, 3}, Iota(6), /*requires_grad=*/false);
  Rng rng(1);
  graph::GraphCapture capture;
  capture.MarkInput(x);
  // Training-mode Dropout has no replay closure (fresh randomness per
  // call): its output never passes through Record, so Finish must
  // refuse rather than replay a frozen mask.
  Tensor y = Dropout(x, 0.5f, rng, /*training=*/true);
  capture.MarkOutput(y);
  auto compiled = capture.Finish();
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnimplemented);
}

TEST(TensorGraphTest, RepeatedReplayMatchesEagerEachTime) {
  NoGradGuard no_grad;
  Rng rng(21);
  Tensor w = Tensor::Randn({6, 6}, rng);
  auto fwd = [&](const Tensor& x) {
    return Softmax(MatMul(Gelu(x), w));
  };
  auto compiled = CompileUnary(3, 6, fwd);

  for (int rep = 0; rep < 5; ++rep) {
    Tensor x = Tensor::Randn({3, 6}, rng);
    Tensor want = fwd(x);
    std::vector<float> got(18);
    const float* in[] = {x.data().data()};
    float* out[] = {got.data()};
    compiled->Run(in, out);
    for (int i = 0; i < 18; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)],
                want.data()[static_cast<size_t>(i)])
          << "rep " << rep << " element " << i;
    }
  }
}

TEST(TensorGraphTest, ConcurrentReplayIsThreadSafe) {
  NoGradGuard no_grad;
  Rng rng(33);
  Tensor w = Tensor::Randn({8, 8}, rng);
  Tensor b = Tensor::Randn({8}, rng);
  auto fwd = [&](const Tensor& x) {
    return Sigmoid(LinearOp(Relu(x), w, b));
  };
  auto compiled = CompileUnary(4, 8, fwd);

  Tensor x = Tensor::FromVector({4, 8}, Iota(32, -0.8f, 0.11f));
  Tensor want = fwd(x);

  constexpr int kThreads = 4;
  constexpr int kReps = 50;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<float> got(32);
      const float* in[] = {x.data().data()};
      float* out[] = {got.data()};
      for (int rep = 0; rep < kReps; ++rep) {
        compiled->Run(in, out);
        for (int i = 0; i < 32; ++i) {
          if (got[static_cast<size_t>(i)] !=
              want.data()[static_cast<size_t>(i)]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(TensorGraphTest, MultipleInputsAndOutputsKeepOrder) {
  NoGradGuard no_grad;
  Tensor a = Tensor::FromVector({2, 2}, Iota(4, 1.0f, 1.0f));
  Tensor b = Tensor::FromVector({2, 2}, Iota(4, 10.0f, 10.0f));
  graph::GraphCapture capture;
  capture.MarkInput(a);
  capture.MarkInput(b);
  Tensor sum = Add(a, b);
  Tensor prod = Mul(a, b);
  capture.MarkOutput(sum);
  capture.MarkOutput(prod);
  auto compiled_or = capture.Finish();
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = std::move(compiled_or).value();
  ASSERT_EQ(compiled->num_inputs(), 2);
  ASSERT_EQ(compiled->num_outputs(), 2);

  std::vector<float> got_sum(4), got_prod(4);
  const float* in[] = {a.data().data(), b.data().data()};
  float* out[] = {got_sum.data(), got_prod.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 4; ++i) {
    const float av = a.data()[static_cast<size_t>(i)];
    const float bv = b.data()[static_cast<size_t>(i)];
    EXPECT_EQ(got_sum[static_cast<size_t>(i)], av + bv);
    EXPECT_EQ(got_prod[static_cast<size_t>(i)], av * bv);
  }
}

TEST(TensorGraphTest, GatherConcatPipelineReplays) {
  NoGradGuard no_grad;
  Tensor table = Tensor::FromVector({5, 3}, Iota(15, 0.0f, 1.0f));
  auto fwd = [&](const Tensor& x) {
    Tensor picked = GatherRows(table, {4, 0, 2});  // Leaf gather: foldable.
    Tensor joined = ConcatRows({picked, x});
    return MeanRows(joined);
  };
  auto compiled = CompileUnary(2, 3, fwd);
  EXPECT_GE(compiled->stats().num_folded, 1);

  Tensor x = Tensor::FromVector({2, 3}, Iota(6, -3.0f, 0.5f));
  Tensor want = fwd(x);
  std::vector<float> got(3);
  const float* in[] = {x.data().data()};
  float* out[] = {got.data()};
  compiled->Run(in, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace hiergat
