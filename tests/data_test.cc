#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/entity.h"
#include "data/synthetic.h"

namespace hiergat {
namespace {

TEST(EntityTest, GetSetSerialize) {
  Entity e;
  e.Add("title", "acme widget x1");
  e.Add("price", "25");
  EXPECT_EQ(e.Get("title"), "acme widget x1");
  EXPECT_EQ(e.Get("missing"), kMissingValue);
  e.Set("price", "30");
  EXPECT_EQ(e.Get("price"), "30");
  e.Set("year", "2020");
  EXPECT_EQ(e.num_attributes(), 3);
  EXPECT_EQ(e.Serialize(), "title: acme widget x1 | price: 30 | year: 2020");
  const std::vector<std::string> tokens = e.AllValueTokens();
  EXPECT_EQ(tokens.size(), 5u);  // acme widget x1 30 2020.
}

TEST(CsvTest, ParseQuotedFields) {
  const std::vector<std::string> fields =
      ParseCsvLine(R"(plain,"with, comma","embedded ""quote""",)");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with, comma");
  EXPECT_EQ(fields[2], "embedded \"quote\"");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvTest, EscapeInvertsParse) {
  for (const std::string& field :
       {std::string("simple"), std::string("a,b"), std::string("q\"q"),
        std::string("line\nbreak")}) {
    const std::string line = EscapeCsvField(field) + "," + "x";
    // Parse on a single line only when no raw newline survives escaping.
    if (field.find('\n') == std::string::npos) {
      EXPECT_EQ(ParseCsvLine(line)[0], field);
    }
  }
}

TEST(CsvTest, PairsRoundTrip) {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_pairs = 40;
  spec.seed = 3;
  PairDataset data = GeneratePairDataset(spec);
  const std::string path = ::testing::TempDir() + "/pairs.csv";
  ASSERT_TRUE(WritePairsCsv(path, data.train).ok());
  auto loaded = ReadPairsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), data.train.size());
  for (size_t i = 0; i < loaded.value().size(); ++i) {
    EXPECT_EQ(loaded.value()[i].label, data.train[i].label);
    EXPECT_EQ(loaded.value()[i].left.Serialize(),
              data.train[i].left.Serialize());
  }
}

TEST(SyntheticTest, SizesAndSplitRatio) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_pairs = 500;
  spec.positive_ratio = 0.2f;
  spec.seed = 5;
  PairDataset data = GeneratePairDataset(spec);
  EXPECT_EQ(data.TotalSize(), 500);
  EXPECT_EQ(data.train.size(), 300u);
  EXPECT_EQ(data.valid.size(), 100u);
  EXPECT_EQ(data.test.size(), 100u);
  const int pos = data.PositiveCount();
  EXPECT_NEAR(static_cast<float>(pos) / 500.0f, 0.2f, 0.02f);
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_pairs = 60;
  spec.seed = 9;
  PairDataset a = GeneratePairDataset(spec);
  PairDataset b = GeneratePairDataset(spec);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].left.Serialize(), b.train[i].left.Serialize());
    EXPECT_EQ(a.train[i].label, b.train[i].label);
  }
  spec.seed = 10;
  PairDataset c = GeneratePairDataset(spec);
  bool any_different = false;
  for (size_t i = 0; i < std::min(a.train.size(), c.train.size()); ++i) {
    if (a.train[i].left.Serialize() != c.train[i].left.Serialize()) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(SyntheticTest, SchemaMatchesSpec) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_pairs = 80;
  spec.num_attributes = 5;
  PairDataset data = GeneratePairDataset(spec);
  for (const EntityPair& pair : data.train) {
    EXPECT_EQ(pair.left.num_attributes(), 5);
    EXPECT_EQ(pair.right.num_attributes(), 5);
  }
  spec.num_attributes = 1;
  PairDataset one = GeneratePairDataset(spec);
  EXPECT_EQ(one.train.front().left.num_attributes(), 1);
  EXPECT_EQ(one.train.front().left.attribute(0).first, "content");
}

TEST(SyntheticTest, PositivesShareDiscriminativeSignal) {
  // Positives must overlap more than hard negatives on average (the
  // label is learnable), but hard negatives still overlap substantially
  // (the task is non-trivial).
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_pairs = 400;
  spec.hardness = 1.0f;
  spec.seed = 11;
  PairDataset data = GeneratePairDataset(spec);
  auto mean_jaccard = [&](int label) {
    double total = 0.0;
    int count = 0;
    for (const EntityPair& pair : data.train) {
      if (pair.label != label) continue;
      const auto lt = pair.left.AllValueTokens();
      const auto rt = pair.right.AllValueTokens();
      std::set<std::string> sl(lt.begin(), lt.end());
      std::set<std::string> sr(rt.begin(), rt.end());
      int inter = 0;
      for (const auto& t : sl) inter += sr.count(t) ? 1 : 0;
      total += static_cast<double>(inter) /
               static_cast<double>(sl.size() + sr.size() - inter);
      ++count;
    }
    return count > 0 ? total / count : 0.0;
  };
  const double pos = mean_jaccard(1);
  const double neg = mean_jaccard(0);
  EXPECT_GT(pos, neg);
  EXPECT_GT(neg, 0.25) << "hard negatives should share many tokens";
}

TEST(SyntheticTest, DirtyCorruptionMovesValues) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_pairs = 200;
  spec.num_attributes = 5;
  spec.seed = 13;
  PairDataset clean = GeneratePairDataset(spec);
  PairDataset dirty = MakeDirty(clean, 99);
  EXPECT_EQ(dirty.name, "Dirty-t");
  ASSERT_EQ(dirty.train.size(), clean.train.size());
  int nan_count = 0;
  int changed = 0;
  for (size_t i = 0; i < clean.train.size(); ++i) {
    for (int a = 0; a < 5; ++a) {
      const std::string& cv = clean.train[i].left.attribute(a).second;
      const std::string& dv = dirty.train[i].left.attribute(a).second;
      if (dv == kMissingValue && cv != kMissingValue) ++nan_count;
      if (cv != dv) ++changed;
    }
    EXPECT_EQ(dirty.train[i].label, clean.train[i].label);
  }
  EXPECT_GT(nan_count, 0) << "corruption must leave NAN holes";
  EXPECT_GT(changed, static_cast<int>(clean.train.size()) / 2);
}

TEST(SyntheticTest, MagellanSpecsMirrorTable1) {
  const std::vector<SyntheticSpec> specs = MagellanSpecs(1.0);
  ASSERT_EQ(specs.size(), 9u);
  EXPECT_EQ(specs[0].name, "Beer");
  EXPECT_EQ(specs[0].num_pairs, 450);
  EXPECT_EQ(specs[1].num_attributes, 8);  // iTunes-Amazon.
  EXPECT_EQ(specs[8].name, "Company");
  EXPECT_EQ(specs[8].num_attributes, 1);
  // Scaling shrinks sizes but keeps a floor.
  const std::vector<SyntheticSpec> small = MagellanSpecs(0.01);
  EXPECT_GE(small[0].num_pairs, 60);
  EXPECT_LT(small[8].num_pairs, specs[8].num_pairs);
}

TEST(SyntheticTest, DirtySpecsAreTheFourFromThePaper) {
  const std::vector<SyntheticSpec> dirty = DirtyMagellanSpecs(0.05);
  ASSERT_EQ(dirty.size(), 4u);
  for (const SyntheticSpec& spec : dirty) {
    EXPECT_TRUE(spec.dirty);
    EXPECT_EQ(spec.name.rfind("Dirty-", 0), 0u);
  }
}

TEST(SyntheticTest, WdcNestedSizesAndTestSet) {
  WdcDataset wdc = GenerateWdc("computer", 480, 110, 21);
  EXPECT_EQ(wdc.train_pool.size(), 480u);
  EXPECT_EQ(wdc.test.size(), 110u);
  EXPECT_EQ(wdc.xlarge, 480);
  EXPECT_EQ(wdc.large, 240);
  EXPECT_EQ(wdc.medium, 60);
  EXPECT_EQ(wdc.small, 20);
  EXPECT_EQ(wdc.TrainSlice("small").size(), 20u);
  EXPECT_EQ(wdc.TrainSlice("xlarge").size(), 480u);
  // Nesting: small is a prefix of medium.
  const auto small = wdc.TrainSlice("small");
  const auto medium = wdc.TrainSlice("medium");
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].left.Serialize(), medium[i].left.Serialize());
  }
  // Title-only schema.
  EXPECT_EQ(wdc.test.front().left.num_attributes(), 1);
  EXPECT_EQ(wdc.test.front().left.attribute(0).first, "title");
}

TEST(SyntheticTest, PoolWdcCombinesDomains) {
  WdcDataset a = GenerateWdc("camera", 96, 22, 31);
  WdcDataset b = GenerateWdc("shoe", 96, 22, 32);
  WdcDataset all = PoolWdc({a, b});
  EXPECT_EQ(all.domain, "all");
  EXPECT_EQ(all.train_pool.size(), 192u);
  EXPECT_EQ(all.test.size(), 44u);
  EXPECT_EQ(all.xlarge, 192);
}

TEST(SyntheticTest, TwoTableGoldMatchesAreConsistent) {
  SyntheticSpec spec;
  spec.name = "col";
  spec.num_pairs = 100;  // Unused by two-table generation.
  spec.seed = 41;
  TwoTableDataset raw = GenerateTwoTable(spec, 40, 120);
  EXPECT_EQ(raw.table_a.size(), 40u);
  EXPECT_EQ(raw.table_b.size(), 120u);
  EXPECT_EQ(raw.matches.size(), 40u);
  std::set<int> used_b;
  for (const auto& [ai, bi] : raw.matches) {
    EXPECT_GE(ai, 0);
    EXPECT_LT(ai, 40);
    EXPECT_GE(bi, 0);
    EXPECT_LT(bi, 120);
    EXPECT_TRUE(used_b.insert(bi).second) << "b row matched twice";
  }
}

TEST(SyntheticTest, MultiSourceClustersSpanSources) {
  MultiSourceDataset raw = GenerateMultiSource("camera", 6, 50, 51);
  EXPECT_EQ(raw.num_sources, 6);
  EXPECT_EQ(raw.entities.size(), raw.cluster_ids.size());
  EXPECT_EQ(raw.entities.size(), raw.source_ids.size());
  // Every cluster has >= 2 listings (so collective queries have matches).
  std::map<int, int> cluster_count;
  std::map<int, std::set<int>> cluster_sources;
  for (size_t i = 0; i < raw.entities.size(); ++i) {
    ++cluster_count[raw.cluster_ids[i]];
    cluster_sources[raw.cluster_ids[i]].insert(raw.source_ids[i]);
    EXPECT_LT(raw.source_ids[i], 6);
  }
  for (const auto& [cluster, count] : cluster_count) {
    EXPECT_GE(count, 2);
    EXPECT_GE(cluster_sources[cluster].size(), 2u)
        << "listings of one product should come from distinct sources";
  }
}

}  // namespace
}  // namespace hiergat
