// Micro-benchmarks of the substrate the models run on: tensor ops,
// autograd, tokenizer, TF-IDF blocking, HHG construction, and the
// hashed-embedding ablation (hashed n-gram vs random init similarity).

#include <benchmark/benchmark.h>

#include "blocking/blocker.h"
#include "data/synthetic.h"
#include "graph/hhg.h"
#include "tensor/ops.h"
#include "text/hashed_embeddings.h"
#include "text/tokenizer.h"

namespace hiergat {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_SoftmaxRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor s = Softmax(a);
    benchmark::DoNotOptimize(s.data().data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(256);

void BM_AutogradAttentionStep(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  const int dim = 32;
  Rng rng(3);
  Tensor wq = Tensor::Xavier(dim, dim, rng, true);
  Tensor wk = Tensor::Xavier(dim, dim, rng, true);
  Tensor wv = Tensor::Xavier(dim, dim, rng, true);
  Tensor x = Tensor::Randn({len, dim}, rng);
  for (auto _ : state) {
    Tensor attn = Softmax(
        Scale(MatMul(MatMul(x, wq), Transpose(MatMul(x, wk))), 0.18f));
    Tensor loss = Mean(MatMul(attn, MatMul(x, wv)));
    wq.ZeroGrad();
    wk.ZeroGrad();
    wv.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(wq.grad().data());
  }
}
BENCHMARK(BM_AutogradAttentionStep)->Arg(16)->Arg(64);

void BM_Tokenizer(benchmark::State& state) {
  const std::string text =
      "Acme TurboWidget X-1000 wireless portable digital compact widget "
      "with advanced premium features, model tp-link AC1750!";
  for (auto _ : state) {
    auto tokens = Tokenize(text);
    benchmark::DoNotOptimize(tokens.data());
  }
}
BENCHMARK(BM_Tokenizer);

void BM_HashedEmbedding(benchmark::State& state) {
  HashedEmbeddings emb(48);
  int i = 0;
  for (auto _ : state) {
    auto v = emb.WordVector("coolmax" + std::to_string(++i % 100));
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_HashedEmbedding);

void BM_TfIdfTopN(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "bench";
  spec.seed = 5;
  TwoTableDataset raw =
      GenerateTwoTable(spec, 50, static_cast<int>(state.range(0)));
  TfIdfBlocker blocker(raw.table_b);
  int q = 0;
  for (auto _ : state) {
    auto top = blocker.TopN(raw.table_a[static_cast<size_t>(++q % 50)], 16);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TfIdfTopN)->Arg(200)->Arg(800);

void BM_HhgBuild(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "bench";
  spec.num_pairs = 64;
  spec.seed = 6;
  PairDataset data = GeneratePairDataset(spec);
  // Collective-sized graph: 1 + 16 entities.
  std::vector<Entity> candidates;
  for (int i = 1; i < 17 && i < static_cast<int>(data.train.size()); ++i) {
    candidates.push_back(data.train[static_cast<size_t>(i)].left);
  }
  for (auto _ : state) {
    Hhg hhg = Hhg::Build(data.train.front().left, candidates);
    benchmark::DoNotOptimize(hhg.num_tokens());
  }
}
BENCHMARK(BM_HhgBuild);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    SyntheticSpec spec;
    spec.name = "bench";
    spec.num_pairs = static_cast<int>(state.range(0));
    spec.seed = 7;
    PairDataset data = GeneratePairDataset(spec);
    benchmark::DoNotOptimize(data.train.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace hiergat

BENCHMARK_MAIN();
