// Unit tests for the HierGAT building blocks: graph-attention pooling,
// contextual (WpC) embedding, hierarchical aggregation and comparison,
// and the entity alignment layer.

#include <gtest/gtest.h>

#include "er/aggregation.h"
#include "er/comparison.h"
#include "er/contextual.h"
#include "er/graph_attention.h"
#include "graph/hhg.h"
#include "tensor/ops.h"

namespace hiergat {
namespace {

Entity MakeEntity(const std::string& title, const std::string& desc) {
  Entity e;
  e.Add("title", title);
  e.Add("desc", desc);
  return e;
}

TEST(GraphAttentionPoolTest, WeightsSumToOneAndShape) {
  Rng rng(1);
  GraphAttentionPool pool(4, rng);
  Tensor nodes = Tensor::Randn({5, 4}, rng);
  Tensor w;
  Tensor out = pool.Pool(nodes, nodes, &w);
  EXPECT_EQ(out.dim(0), 1);
  EXPECT_EQ(out.dim(1), 4);
  // Asking for the weights leaves the output bit-identical.
  EXPECT_EQ(pool.Pool(nodes, nodes).data(), out.data());
  float sum = 0.0f;
  for (int i = 0; i < w.dim(1); ++i) sum += w.at(0, i);
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(GraphAttentionPoolTest, PooledRowInsideConvexHull) {
  Rng rng(2);
  GraphAttentionPool pool(2, rng);
  Tensor nodes = Tensor::FromVector({3, 2}, {0, 0, 1, 0, 0, 1});
  Tensor out = pool.Pool(nodes, nodes);
  EXPECT_GE(out.at(0, 0), 0.0f);
  EXPECT_LE(out.at(0, 0), 1.0f);
  EXPECT_GE(out.at(0, 1), 0.0f);
  EXPECT_LE(out.at(0, 1), 1.0f);
}

TEST(GraphAttentionPoolTest, GradientsReachParameters) {
  Rng rng(3);
  GraphAttentionPool pool(3, rng);
  Tensor nodes = Tensor::Randn({4, 3}, rng, 1.0f, /*requires_grad=*/true);
  Tensor out = pool.Pool(nodes, nodes);
  Sum(out).Backward();
  for (const Tensor& p : pool.Parameters()) {
    EXPECT_FALSE(p.grad().empty());
  }
  EXPECT_FALSE(nodes.grad().empty());
}

TEST(TileRowsTest, BroadcastAndGradient) {
  Tensor row = Tensor::FromVector({1, 2}, {3, 4}, /*requires_grad=*/true);
  Tensor tiled = TileRows(row, 3);
  EXPECT_EQ(tiled.dim(0), 3);
  EXPECT_EQ(tiled.at(2, 1), 4.0f);
  Sum(tiled).Backward();
  EXPECT_FLOAT_EQ(row.grad()[0], 3.0f);
}

class ContextualFixture : public ::testing::Test {
 protected:
  ContextualFixture() {
    for (const char* word :
         {"adobe", "spark", "big", "data", "cluster", "framework", "design",
          "video", "cloud", "suite"}) {
      vocab_.Add(word);
    }
    lm_ = std::make_unique<MiniLm>(LmSize::kSmall, &vocab_, 5);
  }

  Vocabulary vocab_;
  std::unique_ptr<MiniLm> lm_;
  Rng rng_{7};
};

TEST_F(ContextualFixture, WpcShapeMatchesTokens) {
  ContextualConfig config;
  ContextualEmbedder embedder(lm_.get(), config, rng_);
  const Hhg hhg = Hhg::Build({MakeEntity("adobe spark", "design suite"),
                              MakeEntity("spark cluster", "big data")});
  Tensor wpc = embedder.Compute(hhg, /*training=*/false, rng_);
  EXPECT_EQ(wpc.dim(0), hhg.num_tokens());
  EXPECT_EQ(wpc.dim(1), lm_->dim());
}

TEST_F(ContextualFixture, NonContextReturnsBaseEmbeddings) {
  ContextualConfig config;
  config.use_token_context = false;
  config.use_attribute_context = false;
  config.use_entity_context = false;
  ContextualEmbedder embedder(lm_.get(), config, rng_);
  const Hhg hhg = Hhg::Build({MakeEntity("adobe spark", "design suite")});
  Tensor wpc = embedder.Compute(hhg, false, rng_);
  std::vector<int> ids;
  for (const std::string& t : hhg.tokens()) ids.push_back(vocab_.Id(t));
  Tensor base = lm_->Embed(ids);
  for (size_t i = 0; i < base.data().size(); ++i) {
    EXPECT_FLOAT_EQ(wpc.data()[i], base.data()[i]);
  }
}

TEST_F(ContextualFixture, ContextChangesEmbeddings) {
  ContextualConfig with;
  ContextualEmbedder embedder(lm_.get(), with, rng_);
  const Hhg hhg = Hhg::Build({MakeEntity("adobe spark", "design suite"),
                              MakeEntity("spark cluster", "big data")});
  Tensor wpc = embedder.Compute(hhg, false, rng_);
  std::vector<int> ids;
  for (const std::string& t : hhg.tokens()) ids.push_back(vocab_.Id(t));
  Tensor base = lm_->Embed(ids);
  float diff = 0.0f;
  for (size_t i = 0; i < base.data().size(); ++i) {
    diff += std::abs(wpc.data()[i] - base.data()[i]);
  }
  EXPECT_GT(diff, 1e-3f) << "WpC must differ from the raw embeddings";
}

TEST_F(ContextualFixture, SameWordDifferentContextGetsDifferentWpc) {
  // "spark" under adobe-design vs cluster-big-data must diverge: the
  // polysemy motivation of §1/§4. Two separate graphs give the word
  // different neighbors.
  ContextualConfig config;
  ContextualEmbedder embedder(lm_.get(), config, rng_);
  const Hhg design = Hhg::Build({MakeEntity("adobe spark", "design suite")});
  const Hhg data = Hhg::Build({MakeEntity("spark cluster", "big data")});
  auto wpc_of = [&](const Hhg& hhg, const std::string& word) {
    Tensor wpc = embedder.Compute(hhg, false, rng_);
    for (int t = 0; t < hhg.num_tokens(); ++t) {
      if (hhg.token(t) == word) {
        std::vector<float> row(wpc.data().begin() + t * lm_->dim(),
                               wpc.data().begin() + (t + 1) * lm_->dim());
        return row;
      }
    }
    return std::vector<float>();
  };
  const std::vector<float> a = wpc_of(design, "spark");
  const std::vector<float> b = wpc_of(data, "spark");
  ASSERT_EQ(a.size(), b.size());
  float diff = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-3f);
}

TEST_F(ContextualFixture, EntityContextTermAddsRedundantRemoval) {
  ContextualConfig without;
  without.use_entity_context = false;
  ContextualConfig with = without;
  with.use_entity_context = true;
  Rng r1(7), r2(7);
  ContextualEmbedder e1(lm_.get(), without, r1);
  ContextualEmbedder e2(lm_.get(), with, r2);
  const Hhg hhg = Hhg::Build({MakeEntity("spark cloud", "big data"),
                              MakeEntity("spark cloud", "video suite")});
  Tensor a = e1.Compute(hhg, false, rng_);
  Tensor b = e2.Compute(hhg, false, rng_);
  float diff = 0.0f;
  for (size_t i = 0; i < a.data().size(); ++i) {
    diff += std::abs(a.data()[i] - b.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST_F(ContextualFixture, AggregatorSummarizesAttributesAndEntities) {
  HierarchicalAggregator aggregator(lm_.get(), 0.0f, rng_);
  const Hhg hhg = Hhg::Build({MakeEntity("adobe spark", "design suite")});
  ContextualConfig config;
  ContextualEmbedder embedder(lm_.get(), config, rng_);
  Tensor wpc = embedder.Compute(hhg, false, rng_);
  std::vector<Tensor> attrs;
  for (int a : hhg.entity(0).attributes) {
    std::vector<float> token_attention;
    Tensor emb = aggregator.SummarizeAttribute(
        wpc, hhg.attribute(a).token_seq, false, rng_, &token_attention);
    EXPECT_EQ(emb.dim(0), 1);
    EXPECT_EQ(emb.dim(1), lm_->dim());
    EXPECT_EQ(token_attention.size(), hhg.attribute(a).token_seq.size());
    // Asking for the attention leaves the summary bit-identical.
    EXPECT_EQ(aggregator
                  .SummarizeAttribute(wpc, hhg.attribute(a).token_seq, false,
                                      rng_)
                  .data(),
              emb.data());
    attrs.push_back(emb);
  }
  Tensor entity = aggregator.SummarizeEntity(attrs);
  EXPECT_EQ(entity.dim(1), 2 * lm_->dim());
}

TEST_F(ContextualFixture, ComparatorStrategiesProduceSimilarityRows) {
  Rng rng(9);
  for (ViewCombination strategy :
       {ViewCombination::kViewAverage, ViewCombination::kSharedSpace,
        ViewCombination::kWeightAverage}) {
    HierarchicalComparator comparator(lm_.get(), 2, strategy, rng);
    Tensor a1 = Tensor::Randn({1, lm_->dim()}, rng);
    Tensor a2 = Tensor::Randn({1, lm_->dim()}, rng);
    Tensor s1 = comparator.CompareAttribute(a1, a2, false, rng);
    Tensor s2 = comparator.CompareAttribute(a2, a1, false, rng);
    EXPECT_EQ(s1.dim(1), lm_->dim());
    Tensor left = Tensor::Randn({1, 2 * lm_->dim()}, rng);
    Tensor right = Tensor::Randn({1, 2 * lm_->dim()}, rng);
    Tensor combined = comparator.CombineViews({s1, s2}, left, right);
    EXPECT_EQ(combined.dim(0), 1);
    EXPECT_EQ(combined.dim(1), lm_->dim());
  }
}

TEST_F(ContextualFixture, WeightAverageAttentionSumsToOne) {
  Rng rng(10);
  HierarchicalComparator comparator(
      lm_.get(), 3, ViewCombination::kWeightAverage, rng);
  std::vector<Tensor> sims;
  for (int i = 0; i < 3; ++i) sims.push_back(Tensor::Randn({1, lm_->dim()}, rng));
  Tensor left = Tensor::Randn({1, 3 * lm_->dim()}, rng);
  Tensor right = Tensor::Randn({1, 3 * lm_->dim()}, rng);
  Tensor w;
  comparator.CombineViews(sims, left, right, &w);
  ASSERT_EQ(w.dim(1), 3);
  float sum = 0.0f;
  for (int i = 0; i < 3; ++i) sum += w.at(0, i);
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(EntityAlignerTest, NoNeighborsIsIdentity) {
  Rng rng(11);
  EntityAligner aligner(4, rng);
  Tensor embs = Tensor::Randn({3, 4}, rng);
  Tensor aligned = aligner.Align(embs, {{}, {}, {}});
  for (size_t i = 0; i < embs.data().size(); ++i) {
    EXPECT_FLOAT_EQ(aligned.data()[i], embs.data()[i]);
  }
}

TEST(EntityAlignerTest, NeighborsChangeEmbeddingAndKeepShape) {
  Rng rng(12);
  EntityAligner aligner(4, rng);
  Tensor embs = Tensor::Randn({3, 4}, rng);
  Tensor aligned = aligner.Align(embs, {{1, 2}, {0}, {0}});
  EXPECT_EQ(aligned.shape(), embs.shape());
  float diff = 0.0f;
  for (size_t i = 0; i < embs.data().size(); ++i) {
    diff += std::abs(aligned.data()[i] - embs.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(EntityAlignerTest, GradientsFlowThroughAlignment) {
  Rng rng(13);
  EntityAligner aligner(4, rng);
  Tensor embs = Tensor::Randn({2, 4}, rng, 1.0f, /*requires_grad=*/true);
  Tensor aligned = aligner.Align(embs, {{1}, {0}});
  Sum(Mul(aligned, aligned)).Backward();
  EXPECT_FALSE(embs.grad().empty());
  for (const Tensor& p : aligner.Parameters()) {
    EXPECT_FALSE(p.grad().empty());
  }
}

}  // namespace
}  // namespace hiergat
