#include "graph/hhg.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "hhg_reference.h"

namespace hiergat {
namespace {

Entity MakeEntity(const std::string& title, const std::string& desc) {
  Entity e;
  e.Add("title", title);
  e.Add("desc", desc);
  return e;
}

/// The HHG of `entities`; the first is the query.
Hhg BuildOf(const std::vector<Entity>& entities) {
  return Hhg::Build(entities.front(),
                    std::span<const Entity>(entities).subspan(1));
}

TEST(HhgTest, FigureFourStructure) {
  // Mirrors Figure 4: distinct tokens merge; attribute keys do not.
  Entity e1 = MakeEntity("spark framework", "big data framework");
  Entity e2 = MakeEntity("adobe spark", "design framework");
  const Hhg hhg = BuildOf({e1, e2});

  EXPECT_EQ(hhg.num_entities(), 2);
  EXPECT_EQ(hhg.num_attributes(), 4);  // 2 per entity; "desc" repeats.
  // Unique tokens: spark framework big data adobe design = 6.
  EXPECT_EQ(hhg.num_tokens(), 6);

  // "framework" is a single node adjacent to 3 attributes.
  int framework = -1;
  for (int t = 0; t < hhg.num_tokens(); ++t) {
    if (hhg.token(t) == "framework") framework = t;
  }
  ASSERT_GE(framework, 0);
  EXPECT_EQ(hhg.token_attributes(framework).size(), 3u);

  // Key groups: title and desc, each with two attribute nodes.
  ASSERT_EQ(hhg.key_groups().size(), 2u);
  for (const auto& [key, attrs] : hhg.key_groups()) {
    EXPECT_EQ(attrs.size(), 2u) << key;
  }
}

TEST(HhgTest, TokenOrderPreservedWithinAttribute) {
  Entity e = MakeEntity("alpha beta alpha", "x");
  const Hhg hhg = Hhg::Build(e, {});
  const auto& seq = hhg.attribute(0).token_seq;
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(hhg.token(seq[0]), "alpha");
  EXPECT_EQ(hhg.token(seq[1]), "beta");
  EXPECT_EQ(seq[0], seq[2]) << "repeated word maps to the same node";
}

TEST(HhgTest, CommonTokensRequireTwoEntities) {
  Entity e1 = MakeEntity("shared unique1", "a");
  Entity e2 = MakeEntity("shared unique2", "b");
  const Hhg hhg = BuildOf({e1, e2});
  const std::vector<int>& common = hhg.common_tokens();
  ASSERT_EQ(common.size(), 1u);
  EXPECT_EQ(hhg.token(common[0]), "shared");
}

TEST(HhgTest, TokenRepeatedWithinOneEntityIsNotCommon) {
  Entity e1 = MakeEntity("dup dup", "dup");
  Entity e2 = MakeEntity("other", "thing");
  const Hhg hhg = BuildOf({e1, e2});
  EXPECT_TRUE(hhg.common_tokens().empty());
}

TEST(HhgTest, CommonTokensForKeyGroupRespectsCap) {
  Entity e1 = MakeEntity("a b c d e f", "x");
  Entity e2 = MakeEntity("a b c d e f", "y");
  const Hhg hhg = BuildOf({e1, e2});
  // Group 0 is "title"; all 6 shared tokens are common.
  EXPECT_EQ(hhg.CommonTokensForKeyGroup(0, 10).size(), 6u);
  EXPECT_EQ(hhg.CommonTokensForKeyGroup(0, 3).size(), 3u);
  // Group 1 ("desc") has no common tokens.
  EXPECT_TRUE(hhg.CommonTokensForKeyGroup(1, 10).empty());
}

TEST(HhgTest, RelatedEntitiesViaCommonTokens) {
  Entity q = MakeEntity("acme widget", "base");
  Entity c1 = MakeEntity("acme gadget", "other");   // Shares "acme".
  Entity c2 = MakeEntity("unrelated thing", "foo"); // Shares nothing.
  const Hhg hhg = BuildOf({q, c1, c2});
  const std::vector<int> related = hhg.RelatedEntities(0);
  EXPECT_EQ(related, std::vector<int>{1});
  EXPECT_EQ(hhg.RelatedEntities(2), std::vector<int>{});
}

TEST(HhgTest, CollectiveGraphHoldsQueryPlusCandidates) {
  std::vector<Entity> entities;
  for (int i = 0; i < 5; ++i) {
    entities.push_back(
        MakeEntity("product " + std::to_string(i), "desc " + std::to_string(i)));
  }
  const Hhg hhg = BuildOf(entities);
  EXPECT_EQ(hhg.num_entities(), 5);
  // "product" and "desc" appear in all entities -> common.
  EXPECT_EQ(hhg.common_tokens().size(), 2u);
  for (int e = 0; e < 5; ++e) {
    EXPECT_EQ(hhg.entity(e).attributes.size(), 2u);
    EXPECT_EQ(hhg.RelatedEntities(e).size(), 4u);
  }
}

TEST(HhgTest, MissingValueStillTokenizes) {
  Entity e;
  e.Add("title", kMissingValue);
  const Hhg hhg = Hhg::Build(e, {});
  ASSERT_EQ(hhg.num_tokens(), 1);
  EXPECT_EQ(hhg.token(0), "nan");
}

// Values drawn to stress the splitter and the interning: empty and
// punctuation-only values, mixed case, digits joined to letters, UTF-8
// bytes (never alphanumeric, so they split words) and a small word pool
// so tokens repeat within and across attributes and entities.
std::string RandomValue(Rng& rng) {
  static const char* const kPieces[] = {
      "alpha", "Beta", "GAMMA", "x1", "2020", "tp-link", "delta",
      "caf\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac", "na\xefve", "--",
      "!!", "...", " ", ",", "a", "B", "0", "alpha", "beta",
  };
  constexpr int kNumPieces = sizeof(kPieces) / sizeof(kPieces[0]);
  switch (rng.NextInt(0, 5)) {
    case 0:
      return "";
    case 1:
      return "-- !! ...";
    default:
      break;
  }
  std::string value;
  const int pieces = static_cast<int>(rng.NextInt(1, 12));
  for (int i = 0; i < pieces; ++i) {
    value += kPieces[rng.NextInt(0, kNumPieces - 1)];
    if (rng.NextInt(0, 2) > 0) value += ' ';
  }
  return value;
}

Entity RandomEntity(Rng& rng, int index) {
  // "title" and "desc" are shared by every entity; "brand" by some; the
  // last key only by this entity.
  Entity e;
  e.Add("title", RandomValue(rng));
  if (rng.NextInt(0, 1) == 0) e.Add("brand", RandomValue(rng));
  e.Add("desc", RandomValue(rng));
  e.Add("own" + std::to_string(index), RandomValue(rng));
  return e;
}

std::vector<int> Ids(std::span<const int> ids) {
  return {ids.begin(), ids.end()};
}

TEST(HhgTest, BuildMatchesReferenceBuilderOnRandomEntities) {
  Rng rng(20260);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    // Pairwise graphs and collective graphs of 1 + N entities.
    const int num_entities =
        trial % 2 == 0 ? 2 : static_cast<int>(rng.NextInt(1, 9));
    std::vector<Entity> entities;
    for (int e = 0; e < num_entities; ++e) {
      entities.push_back(RandomEntity(rng, e));
    }
    const ReferenceHhg want = BuildReferenceHhg(entities);
    const Hhg got = BuildOf(entities);

    EXPECT_EQ(got.tokens(), want.tokens);
    ASSERT_EQ(got.num_attributes(),
              static_cast<int>(want.token_seqs.size()));
    for (int a = 0; a < got.num_attributes(); ++a) {
      const Hhg::AttributeNode& attr = got.attribute(a);
      EXPECT_EQ(attr.key, want.attribute_keys[a]) << a;
      EXPECT_EQ(attr.entity, want.attribute_entity[a]) << a;
      EXPECT_EQ(attr.token_seq, want.token_seqs[a]) << a;
      EXPECT_EQ(Ids(got.attribute_tokens(a)), want.attribute_tokens[a]) << a;
      EXPECT_EQ(got.key_groups()[static_cast<size_t>(attr.key_group)].first,
                attr.key)
          << a;
    }
    ASSERT_EQ(got.num_entities(), num_entities);
    for (int e = 0; e < num_entities; ++e) {
      EXPECT_EQ(got.entity(e).attributes, want.entity_attributes[e]) << e;
      EXPECT_EQ(got.RelatedEntities(e), want.RelatedEntities(e)) << e;
    }
    EXPECT_EQ(got.key_groups(), want.key_groups);
    for (int t = 0; t < got.num_tokens(); ++t) {
      EXPECT_EQ(Ids(got.token_attributes(t)), want.token_attributes[t]) << t;
    }
    EXPECT_EQ(got.common_tokens(), want.common_tokens);
    for (int g = 0; g < static_cast<int>(want.key_groups.size()); ++g) {
      for (const int cap : {0, 1, 3, 10}) {
        EXPECT_EQ(got.CommonTokensForKeyGroup(g, cap),
                  want.CommonTokensForKeyGroup(g, cap))
            << g << " cap " << cap;
      }
    }
  }
}

}  // namespace
}  // namespace hiergat
