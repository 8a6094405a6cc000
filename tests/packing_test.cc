// The packed scoring contract (DESIGN.md §11): every MiniLM sequence of
// a ScoreBatch (or of a HierGAT+ query) runs as one sequence of a packed
// encoder replay, and a score must not depend on what it was packed
// with. Scores from one batch, from each pair alone, from a 4-lane
// engine and from the eager modules must be bit-equal, on hostile
// values: empty and one-token values, values long enough that one step
// splits into several bucket replays, one value above the packed cap
// (the eager route) and non-Latin text.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "er/compiled_scoring.h"
#include "er/engine.h"
#include "er/hiergat.h"
#include "er/hiergat_plus.h"
#include "obs/metrics.h"

namespace hiergat {
namespace {

TrainOptions TinyOptions() {
  TrainOptions options;
  options.epochs = 1;
  options.seed = 7;
  options.max_train_items = 8;
  options.select_best_on_validation = false;
  return options;
}

std::string Words(Rng& rng, int count) {
  static const char* const kWords[] = {
      "acme",  "router", "4k",    "steel", "blue",   "x200",  "pro",
      "mini",  "kit",    "black", "usb",   "cable",  "2024",  "zoom",
      "lens",  "ultra",  "case",  "gold",  "fan",    "board", "aero"};
  std::string value;
  for (int i = 0; i < count; ++i) {
    if (i > 0) value += ' ';
    value += kWords[rng.NextUint64(std::size(kWords))];
    if (rng.NextBool(0.3f)) value += std::to_string(i);
  }
  return value;
}

/// Rewrites attribute values of `entity` from the hostile mix.
void Roughen(Rng& rng, Entity* entity) {
  for (int a = 0; a < entity->num_attributes(); ++a) {
    std::string& value = entity->attribute(a).second;
    switch (rng.NextUint64(6)) {
      case 0:
        value.clear();
        break;
      case 1:
        value = Words(rng, 1);
        break;
      case 2:
        value = Words(rng, 40 + static_cast<int>(rng.NextUint64(50)));
        break;
      case 3:
        value = "東京 Ωmega Привет café " + Words(rng, 2);
        break;
      default:
        break;  // Keep the generated value.
    }
  }
}

std::vector<EntityPair> HostilePairs(const PairDataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<EntityPair> pairs(data.test.begin(), data.test.begin() + 12);
  for (EntityPair& pair : pairs) {
    Roughen(rng, &pair.left);
    Roughen(rng, &pair.right);
  }
  // One value longer than a packed replay holds: its encode and its
  // summary take the eager modules.
  pairs[5].right.attribute(1).second =
      Words(rng, CompiledScoring::kMaxRows + 10);
  return pairs;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got, const char* route) {
  ASSERT_EQ(want.size(), got.size()) << route;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << route << ", pair " << i;
  }
}

class PackingContractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.name = "packing";
    spec.num_pairs = 80;
    spec.num_attributes = 3;
    spec.desc_len = 6;
    spec.seed = 913;
    data_ = new PairDataset(GeneratePairDataset(spec));
    HierGatConfig config;
    config.lm_size = LmSize::kSmall;
    config.lm_pretrain_steps = 0;
    hiergat_ = new HierGatModel(config);
    hiergat_->Train(*data_, TinyOptions());
  }

  static void TearDownTestSuite() {
    delete hiergat_;
    delete data_;
  }

  static PairDataset* data_;
  static HierGatModel* hiergat_;
};

PairDataset* PackingContractTest::data_ = nullptr;
HierGatModel* PackingContractTest::hiergat_ = nullptr;

TEST_F(PackingContractTest, EveryRouteScoresHostilePairsBitIdentically) {
  HierGatModel& model = *hiergat_;
  const std::vector<EntityPair> pairs = HostilePairs(*data_, 17);

  model.InvalidateInferenceCache();
  const int64_t eager_summaries_before =
      CounterValue("hiergat.aggregation.attribute_summaries");
  const int64_t compiled_before = CounterValue("hiergat.score.compiled_pairs");
  const std::vector<float> batch = model.ScoreBatch(pairs);
  EXPECT_EQ(CounterValue("hiergat.score.compiled_pairs") - compiled_before,
            static_cast<int64_t>(pairs.size()));
  EXPECT_GT(CounterValue("hiergat.aggregation.attribute_summaries"),
            eager_summaries_before)
      << "the value above the cap must take the eager route";

  // Four long-valued pairs overflow one replay: some step of this batch
  // must split into several bucket replays (beyond one replay per step
  // and one compare head per pair).
  model.InvalidateInferenceCache();
  const int64_t replays_before = CounterValue("hiergat.graph.replays");
  const std::span<const EntityPair> four(pairs.data(), 4);
  const std::vector<float> first_four = model.ScoreBatch(four);
  EXPECT_GT(CounterValue("hiergat.graph.replays") - replays_before, 3 + 4);

  model.InvalidateInferenceCache();
  std::vector<float> alone;
  for (const EntityPair& pair : pairs) {
    alone.push_back(model.ScoreBatch(std::span<const EntityPair>(&pair, 1))
                        .front());
  }

  model.InvalidateInferenceCache();
  EngineOptions options;
  options.num_threads = 4;
  InferenceEngine engine(options);
  const std::vector<float> pooled = engine.Score(model, pairs);

  model.set_cache_enabled(false);
  const std::vector<float> uncached = model.ScoreBatch(pairs);
  model.set_cache_enabled(true);

  model.set_graph_compile_enabled(false);
  model.InvalidateInferenceCache();
  const std::vector<float> eager = model.ScoreBatch(pairs);
  model.set_graph_compile_enabled(true);

  ExpectBitEqual(eager, batch, "one ScoreBatch");
  ExpectBitEqual(std::vector<float>(eager.begin(), eager.begin() + 4),
                 first_four, "four pairs");
  ExpectBitEqual(eager, alone, "each pair alone");
  ExpectBitEqual(eager, pooled, "4-lane engine");
  ExpectBitEqual(eager, uncached, "cache off");
  EXPECT_EQ(model.compiled_stats().num_failed, 0);
}

// Summaries and comparisons read only each sequence's [CLS] output, so
// their packed encodes must run the last layer's query side on row 0
// alone, never silently on every row. A warm re-score replays only those
// encodes (the token encodes hit the summary cache), and each replay's
// two QueryRows gathers (the attention's normed rows and the residual
// rows) add one FLOP per float they copy: exactly 2F per summary and per
// comparison sequence, where an all-rows fallback would copy every row.
TEST_F(PackingContractTest, SummariesAndComparisonsEncodeOnlyTheirClsRow) {
  HierGatModel& model = *hiergat_;
  const std::vector<EntityPair> pairs = HostilePairs(*data_, 19);
  model.InvalidateInferenceCache();
  model.ScoreBatch(pairs);
  const int64_t gathered_before =
      CounterValue("hiergat.graph.node.QueryRows.est_flops");
  const int64_t summaries_before =
      CounterValue("hiergat.compiled.summarize_replays");
  const int64_t pairs_before = CounterValue("hiergat.score.compiled_pairs");
  model.ScoreBatch(pairs);
  const int64_t summaries =
      CounterValue("hiergat.compiled.summarize_replays") - summaries_before;
  const int64_t compiled_pairs =
      CounterValue("hiergat.score.compiled_pairs") - pairs_before;
  ASSERT_EQ(compiled_pairs, static_cast<int64_t>(pairs.size()));
  ASSERT_GT(summaries, 0);
  const int64_t f = LmConfigFor(LmSize::kSmall).dim;
  const int64_t k = data_->train.front().left.num_attributes();
  EXPECT_EQ(CounterValue("hiergat.graph.node.QueryRows.est_flops") -
                gathered_before,
            2 * f * (summaries + k * compiled_pairs));
}

TEST_F(PackingContractTest, SeededRandomSplitsScoreIdentically) {
  HierGatModel& model = *hiergat_;
  for (uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(seed);
    const std::vector<EntityPair> pairs = HostilePairs(*data_, seed);
    model.InvalidateInferenceCache();
    const std::vector<float> whole = model.ScoreBatch(pairs);
    Rng rng(seed);
    model.InvalidateInferenceCache();
    std::vector<float> split;
    for (size_t begin = 0; begin < pairs.size();) {
      const size_t len =
          std::min<size_t>(1 + rng.NextUint64(5), pairs.size() - begin);
      const std::vector<float> part = model.ScoreBatch(
          std::span<const EntityPair>(pairs.data() + begin, len));
      split.insert(split.end(), part.begin(), part.end());
      begin += len;
    }
    ExpectBitEqual(whole, split, "random split");
  }
}

TEST(PackingContractCollectiveTest, HierGatPlusQueryMatchesEagerRun) {
  SyntheticSpec spec;
  spec.name = "packing-collective";
  spec.num_attributes = 3;
  spec.desc_len = 6;
  spec.seed = 914;
  CollectiveBuildOptions build;
  build.top_n = 5;
  CollectiveDataset data =
      BuildCollective(GenerateTwoTable(spec, 60, 180), build);
  ASSERT_FALSE(data.test.empty());
  HierGatPlusConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  HierGatPlusModel model(config);
  TrainOptions options = TinyOptions();
  options.max_train_items = 4;
  model.Train(data, options);

  Rng rng(15);
  const size_t num_queries = std::min<size_t>(4, data.test.size());
  std::vector<CollectiveQuery> queries(data.test.begin(),
                                       data.test.begin() + num_queries);
  for (CollectiveQuery& query : queries) {
    for (Entity& candidate : query.candidates) Roughen(rng, &candidate);
  }
  queries.front().query.attribute(0).second =
      Words(rng, CompiledScoring::kMaxRows + 3);

  for (const CollectiveQuery& query : queries) {
    model.InvalidateInferenceCache();
    const std::vector<float> packed = model.PredictQuery(query);
    model.set_graph_compile_enabled(false);
    model.InvalidateInferenceCache();
    const std::vector<float> eager = model.PredictQuery(query);
    model.set_graph_compile_enabled(true);
    ExpectBitEqual(eager, packed, "HierGAT+ query");
  }
  EXPECT_EQ(model.compiled_stats().num_failed, 0);
}

}  // namespace
}  // namespace hiergat
