#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "text/hashed_embeddings.h"
#include "text/mini_lm.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocab.h"

namespace hiergat {
namespace {

TEST(TokenizerTest, BasicSplitting) {
  EXPECT_EQ(Tokenize("Hello World"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(Tokenize("TP-Link AC1750!"),
            (std::vector<std::string>{"tp", "link", "ac1750"}));
  EXPECT_EQ(Tokenize("  spaces\t\tand\nnewlines "),
            (std::vector<std::string>{"spaces", "and", "newlines"}));
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!! ---").empty());
}

TEST(VocabTest, SpecialTokensFirst) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.size(), Vocabulary::kNumSpecial);
  EXPECT_EQ(vocab.Id("[CLS]"), Vocabulary::kCls);
  EXPECT_EQ(vocab.Id("[MASK]"), Vocabulary::kMask);
}

TEST(VocabTest, AddAndLookup) {
  Vocabulary vocab;
  const int id = vocab.Add("widget");
  EXPECT_EQ(vocab.Add("widget"), id);  // Idempotent.
  EXPECT_EQ(vocab.Id("widget"), id);
  EXPECT_EQ(vocab.Token(id), "widget");
  EXPECT_EQ(vocab.Id("unseen"), Vocabulary::kUnk);
  EXPECT_TRUE(vocab.Contains("widget"));
  EXPECT_FALSE(vocab.Contains("unseen"));
}

TEST(VocabTest, EncodeSequence) {
  Vocabulary vocab;
  vocab.Add("red");
  vocab.Add("bike");
  const std::vector<int> ids = vocab.Encode({"red", "bike", "xxx"});
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], Vocabulary::kUnk);
}

TEST(HashedEmbeddingsTest, DeterministicAndDistinct) {
  HashedEmbeddings emb(16);
  EXPECT_EQ(emb.WordVector("coolmax"), emb.WordVector("coolmax"));
  EXPECT_NE(emb.WordVector("coolmax"), emb.WordVector("tp-link"));
}

/// FNV-1a over the bits of a vector.
uint64_t BitsHash(const std::vector<float>& v) {
  uint64_t hash = 1469598103934665603ULL;
  for (const float f : v) {
    const uint32_t bits = std::bit_cast<uint32_t>(f);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(HashedEmbeddingsTest, PinnedWordVectors) {
  // Word vectors initialize every token table and key the blocking
  // embedder, so their bits are pinned: the empty word, one character,
  // non-Latin UTF-8 and a 200-character word, at the small LM's dim and
  // the bench index's. The constants were computed with the sequential
  // splitmix64 generator; every backend must reproduce them.
  std::string long_word;
  for (int i = 0; i < 200; ++i) {
    long_word.push_back(static_cast<char>('a' + (i * 7) % 26));
  }
  const std::string words[] = {"", "x", "\xe6\x9d\xb1\xe4\xba\xac\xe9\x83\xbd",
                               long_word};
  const uint64_t dim32[] = {0xb6257b2513dfe6afULL, 0xf4523103ab348480ULL,
                            0x0b5e0d21d755a4d7ULL, 0x9fd066efbcbdfc46ULL};
  const uint64_t dim128[] = {0xbd901b38e5ffe278ULL, 0xa99d05e75ec81f8aULL,
                             0x505bbf022934420bULL, 0x11da143af760ede2ULL};
  const HashedEmbeddings small(32);
  const HashedEmbeddings wide(128);
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(BitsHash(small.WordVector(words[w])), dim32[w]) << "word " << w;
    EXPECT_EQ(BitsHash(wide.WordVector(words[w])), dim128[w]) << "word " << w;
  }
}

/// Cosine similarity between the hashed vectors of two words.
float Cosine(const HashedEmbeddings& emb, const std::string& a,
             const std::string& b) {
  const std::vector<float> va = emb.WordVector(a);
  const std::vector<float> vb = emb.WordVector(b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t d = 0; d < va.size(); ++d) {
    dot += static_cast<double>(va[d]) * vb[d];
    na += static_cast<double>(va[d]) * va[d];
    nb += static_cast<double>(vb[d]) * vb[d];
  }
  return static_cast<float>(dot / std::sqrt(na * nb));
}

TEST(HashedEmbeddingsTest, SubwordSimilarityOrdering) {
  // Words sharing n-grams must be more similar than unrelated words.
  HashedEmbeddings emb(48);
  const float related = Cosine(emb, "photoshop", "photoshopped");
  const float unrelated = Cosine(emb, "photoshop", "bzqvx");
  EXPECT_GT(related, unrelated);
  EXPECT_GT(related, 0.4f);
}

TEST(HashedEmbeddingsTest, SelfSimilarityIsOne) {
  HashedEmbeddings emb(32);
  EXPECT_NEAR(Cosine(emb, "gadget", "gadget"), 1.0f, 1e-5f);
}

TEST(TfIdfTest, TransformAndCosine) {
  TfIdfVectorizer vec;
  vec.Fit({{"red", "bike", "fast"},
           {"red", "car", "fast"},
           {"blue", "boat", "slow"}});
  EXPECT_EQ(vec.vocabulary_size(), 7);
  SparseVector a = vec.Transform({"red", "bike"});
  SparseVector b = vec.Transform({"red", "bike"});
  EXPECT_NEAR(TfIdfVectorizer::Cosine(a, b), 1.0f, 1e-5f);
  SparseVector c = vec.Transform({"blue", "boat"});
  EXPECT_LT(TfIdfVectorizer::Cosine(a, c), 0.05f);
}

TEST(TfIdfTest, RareTermsWeighMore) {
  TfIdfVectorizer vec;
  vec.Fit({{"common", "rare1"},
           {"common", "rare2"},
           {"common", "rare3"},
           {"common", "rare4"}});
  // Doc sharing only the rare term should be more similar than doc
  // sharing only the common term.
  SparseVector q = vec.Transform({"common", "rare1"});
  SparseVector share_rare = vec.Transform({"rare1", "other"});
  SparseVector share_common = vec.Transform({"common", "other"});
  EXPECT_GT(TfIdfVectorizer::Cosine(q, share_rare),
            TfIdfVectorizer::Cosine(q, share_common));
}

TEST(TfIdfTest, UnseenTermsIgnored) {
  TfIdfVectorizer vec;
  vec.Fit({{"a", "b"}});
  SparseVector v = vec.Transform({"zzz", "yyy"});
  EXPECT_TRUE(v.empty());
}

TEST(MiniLmTest, ConfigsScaleWithSize) {
  const TransformerConfig s = LmConfigFor(LmSize::kSmall);
  const TransformerConfig m = LmConfigFor(LmSize::kMedium);
  const TransformerConfig l = LmConfigFor(LmSize::kLarge);
  EXPECT_LT(s.dim, m.dim);
  EXPECT_LT(m.dim, l.dim);
  EXPECT_LE(s.num_layers, m.num_layers);
  EXPECT_LE(m.num_layers, l.num_layers);
  EXPECT_STREQ(LmSizeName(LmSize::kSmall), "MiniLM-S");
}

TEST(MiniLmTest, EmbedAndEncodeShapes) {
  Vocabulary vocab;
  vocab.Add("alpha");
  vocab.Add("beta");
  MiniLm lm(LmSize::kSmall, &vocab, 7);
  Rng rng(1);
  Tensor embedded = lm.Embed({5, 6, 5});
  EXPECT_EQ(embedded.dim(0), 3);
  EXPECT_EQ(embedded.dim(1), lm.dim());
  Tensor encoded = lm.Encode({5, 6}, /*training=*/false, rng);
  EXPECT_EQ(encoded.dim(0), 2);
}

TEST(MiniLmTest, HashedInitGivesSubwordSimilarity) {
  Vocabulary vocab;
  const int a = vocab.Add("keyboard");
  const int b = vocab.Add("keyboards");
  const int c = vocab.Add("zzqqpp");
  MiniLm lm(LmSize::kSmall, &vocab, 7);
  Tensor rows = lm.Embed({a, b, c});
  auto cosine = [&](int i, int j) {
    float dot = 0, ni = 0, nj = 0;
    for (int d = 0; d < lm.dim(); ++d) {
      dot += rows.at(i, d) * rows.at(j, d);
      ni += rows.at(i, d) * rows.at(i, d);
      nj += rows.at(j, d) * rows.at(j, d);
    }
    return dot / std::sqrt(ni * nj);
  };
  EXPECT_GT(cosine(0, 1), cosine(0, 2));
}

TEST(MiniLmTest, PretrainingReducesMaskedLoss) {
  Vocabulary vocab;
  std::vector<std::vector<int>> corpus;
  // A tiny language with strong bigram structure.
  const int the = vocab.Add("the");
  const int cat = vocab.Add("cat");
  const int sat = vocab.Add("sat");
  const int dog = vocab.Add("dog");
  const int ran = vocab.Add("ran");
  for (int i = 0; i < 20; ++i) {
    corpus.push_back({the, cat, sat});
    corpus.push_back({the, dog, ran});
  }
  MiniLm lm(LmSize::kSmall, &vocab, 11);
  Rng rng(2);
  const float early = lm.Pretrain(corpus, 30, 2e-3f, rng);
  const float late = lm.Pretrain(corpus, 200, 2e-3f, rng);
  EXPECT_LT(late, early);
}

}  // namespace
}  // namespace hiergat
