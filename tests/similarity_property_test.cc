// Property-based tests over the string-similarity measures and pair
// features: symmetry, boundedness, identity, and monotonicity under
// random token sets.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "er/baselines/similarity_features.h"

namespace hiergat {
namespace {

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) {
    if (!out.empty()) out.push_back(' ');
    out += token;
  }
  return out;
}

std::vector<std::string> RandomTokens(Rng& rng, int max_len) {
  const int n = static_cast<int>(rng.NextInt(0, max_len));
  std::vector<std::string> tokens;
  for (int i = 0; i < n; ++i) {
    tokens.push_back("t" + std::to_string(rng.NextUint64(12)));
  }
  return tokens;
}

class SimilarityProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityProperties, SymmetricAndBounded) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomTokens(rng, 8);
    const auto b = RandomTokens(rng, 8);
    for (auto fn : {JaccardSimilarity, OverlapCoefficient,
                    TokenCosineSimilarity}) {
      const float ab = fn(a, b);
      const float ba = fn(b, a);
      EXPECT_FLOAT_EQ(ab, ba);
      EXPECT_GE(ab, 0.0f);
      EXPECT_LE(ab, 1.0f + 1e-5f);
    }
    // Identity: similarity with itself is 1 for non-empty sets.
    if (!a.empty()) {
      EXPECT_FLOAT_EQ(JaccardSimilarity(a, a), 1.0f);
      EXPECT_FLOAT_EQ(OverlapCoefficient(a, a), 1.0f);
      EXPECT_NEAR(TokenCosineSimilarity(a, a), 1.0f, 1e-5f);
    }
  }
}

TEST_P(SimilarityProperties, LevenshteinProperties) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 30; ++trial) {
    std::string a, b;
    for (int i = 0; i < static_cast<int>(rng.NextInt(0, 10)); ++i) {
      a.push_back(static_cast<char>('a' + rng.NextUint64(4)));
    }
    for (int i = 0; i < static_cast<int>(rng.NextInt(0, 10)); ++i) {
      b.push_back(static_cast<char>('a' + rng.NextUint64(4)));
    }
    const float ab = LevenshteinSimilarity(a, b);
    EXPECT_FLOAT_EQ(ab, LevenshteinSimilarity(b, a));
    EXPECT_GE(ab, 0.0f);
    EXPECT_LE(ab, 1.0f);
    EXPECT_FLOAT_EQ(LevenshteinSimilarity(a, a), 1.0f);
    // Appending one char to one side can cost at most 1/max-length.
    if (!a.empty()) {
      const float grown = LevenshteinSimilarity(a, a + "x");
      EXPECT_GE(grown, 1.0f - 1.0f / static_cast<float>(a.size() + 1) - 1e-5f);
    }
  }
}

TEST_P(SimilarityProperties, MoreOverlapNeverLowersJaccard) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::string> base = RandomTokens(rng, 6);
    base.push_back("anchor");
    std::vector<std::string> disjoint = {"zz1", "zz2", "zz3"};
    std::vector<std::string> with_shared = disjoint;
    with_shared.push_back("anchor");
    EXPECT_GE(JaccardSimilarity(base, with_shared),
              JaccardSimilarity(base, disjoint));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityProperties,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(PairFeaturesPropertyTest, BoundedForRandomPairs) {
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    EntityPair pair;
    for (const char* key : {"title", "desc"}) {
      pair.left.Add(key, Join(RandomTokens(rng, 6)));
      pair.right.Add(key, Join(RandomTokens(rng, 6)));
    }
    const std::vector<float> features = PairFeatures(pair);
    EXPECT_EQ(static_cast<int>(features.size()), PairFeatureCount(2));
    for (float f : features) {
      EXPECT_TRUE(std::isfinite(f));
      EXPECT_GE(f, -1.0f);
      EXPECT_LE(f, 1.5f);
    }
  }
}

TEST(PairFeaturesPropertyTest, IdenticalEntitiesMaximizeAllSimilarities) {
  Entity e;
  e.Add("title", "acme widget mk200");
  e.Add("price", "25");
  EntityPair pair;
  pair.left = e;
  pair.right = e;
  const std::vector<float> features = PairFeatures(pair);
  // Per attribute: jaccard, overlap, cosine, levenshtein, numeric all 1
  // except numeric for non-numbers (0); length ratio 1.
  EXPECT_FLOAT_EQ(features[0], 1.0f);   // title jaccard
  EXPECT_FLOAT_EQ(features[3], 1.0f);   // title levenshtein
  EXPECT_FLOAT_EQ(features[4], 0.0f);   // title numeric: not a number
  EXPECT_FLOAT_EQ(features[10], 1.0f);  // price numeric
}

}  // namespace
}  // namespace hiergat
