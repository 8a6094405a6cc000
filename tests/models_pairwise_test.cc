// End-to-end smoke tests: every pairwise matcher must learn a small
// synthetic benchmark well above chance, and the HierGAT-specific
// machinery (attention report, ablations) must behave.

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "er/baselines/deepmatcher.h"
#include "er/baselines/ditto.h"
#include "er/baselines/magellan.h"
#include "er/hiergat.h"

namespace hiergat {
namespace {

PairDataset SmallDataset(uint64_t seed = 301, bool easy = true) {
  SyntheticSpec spec;
  spec.name = "smoke";
  spec.num_pairs = 300;
  spec.positive_ratio = 0.3f;
  spec.num_attributes = 3;
  spec.hardness = easy ? 0.4f : 0.9f;
  spec.noise = 0.05f;
  spec.desc_len = 8;
  spec.seed = seed;
  return GeneratePairDataset(spec);
}

TrainOptions FastOptions() {
  TrainOptions options;
  options.epochs = 8;
  options.lr = 2e-3f;
  options.batch_size = 16;
  options.seed = 7;
  return options;
}

TEST(MagellanTest, LearnsSmallBenchmark) {
  PairDataset data = SmallDataset();
  MagellanModel model;
  model.Train(data, FastOptions());
  EXPECT_FALSE(model.selected_classifier().empty());
  const EvalResult result = model.Evaluate(data.test);
  EXPECT_GT(result.f1, 0.55f) << result.ToString();
}

TEST(MagellanTest, PredictionsAreProbabilities) {
  PairDataset data = SmallDataset(33);
  MagellanModel model;
  model.Train(data, FastOptions());
  for (const float p : model.ScoreBatch(data.test)) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(DeepMatcherTest, LearnsSmallBenchmark) {
  PairDataset data = SmallDataset();
  DeepMatcherConfig config;
  DeepMatcherModel model(config);
  TrainOptions options = FastOptions();
  model.Train(data, options);
  const EvalResult result = model.Evaluate(data.test);
  EXPECT_GT(result.f1, 0.5f) << result.ToString();
  EXPECT_GT(model.last_train_seconds(), 0.0);
}

TEST(DmPlusTest, LearnsSmallBenchmark) {
  PairDataset data = SmallDataset();
  DmPlusModel model;
  model.Train(data, FastOptions());
  const EvalResult result = model.Evaluate(data.test);
  EXPECT_GT(result.f1, 0.5f) << result.ToString();
}

TEST(DittoTest, SerializationFormat) {
  PairDataset data = SmallDataset();
  DittoConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  DittoModel model(config);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 4;
  model.Train(data, options);
  const std::vector<int> ids = model.SerializePair(data.test.front());
  ASSERT_GE(ids.size(), 3u);
  EXPECT_EQ(ids.front(), Vocabulary::kCls);
  EXPECT_EQ(ids.back(), Vocabulary::kSep);
  // Two [SEP] markers: one per entity.
  EXPECT_GE(std::count(ids.begin(), ids.end(), Vocabulary::kSep), 2);
  EXPECT_LE(static_cast<int>(ids.size()), config.max_sequence_length);
}

// Ditto's F1 at any one seed pair moves by more than the bar's margin
// with the last bits of its float arithmetic (erf/exp rounding alone
// takes seed pair (301, 7) from 0.50 to 0.32), so the bar holds the mean
// over data seeds 301-304 and training seeds 7-8.
TEST(DittoTest, LearnsSmallBenchmark) {
  DittoConfig config;
  config.lm_size = LmSize::kSmall;
  // Transformer matchers rely on sentence-pair pre-training of the
  // backbone (DESIGN.md): give it enough steps to form match circuits.
  config.lm_pretrain_steps = 1500;
  double f1_sum = 0.0;
  int runs = 0;
  for (uint64_t data_seed = 301; data_seed <= 304; ++data_seed) {
    const PairDataset data = SmallDataset(data_seed);
    for (uint64_t train_seed = 7; train_seed <= 8; ++train_seed) {
      DittoModel model(config);
      TrainOptions options = FastOptions();
      options.seed = train_seed;
      model.Train(data, options);
      const EvalResult result = model.Evaluate(data.test);
      std::printf("data seed %llu, train seed %llu: %s\n",
                  static_cast<unsigned long long>(data_seed),
                  static_cast<unsigned long long>(train_seed),
                  result.ToString().c_str());
      f1_sum += result.f1;
      ++runs;
    }
  }
  EXPECT_GT(f1_sum / runs, 0.4) << "mean F1 over " << runs << " seed pairs";
}

TEST(HierGatTest, LearnsSmallBenchmark) {
  PairDataset data = SmallDataset();
  HierGatConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 1500;
  HierGatModel model(config);
  model.Train(data, FastOptions());
  const EvalResult result = model.Evaluate(data.test);
  EXPECT_GT(result.f1, 0.45f) << result.ToString();
}

TEST(HierGatTest, AttentionReportIsWellFormed) {
  PairDataset data = SmallDataset(44);
  HierGatConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  HierGatModel model(config);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 8;
  model.Train(data, options);

  // The report comes out of the scoring forward, so its probability is
  // the served score bit for bit, whether scoring replays the compiled
  // graphs or runs eager.
  const size_t pairs = std::min<size_t>(6, data.test.size());
  for (const bool compile : {true, false}) {
    model.set_graph_compile_enabled(compile);
    model.InvalidateInferenceCache();
    for (size_t i = 0; i < pairs; ++i) {
      const EntityPair& pair = data.test[i];
      const StatusOr<HierGatModel::AttentionReport> report_or =
          model.InspectAttention(pair);
      ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
      const HierGatModel::AttentionReport& report = report_or.value();
      EXPECT_EQ(report.match_probability, model.ScoreBatch({&pair, 1})[0])
          << "pair " << i << ", graph compile " << compile;
      ASSERT_EQ(report.left.size(), 3u);
      ASSERT_EQ(report.right.size(), 3u);
      for (const auto* side : {&report.left, &report.right}) {
        for (const auto& attr : *side) {
          ASSERT_EQ(attr.tokens.size(), attr.weights.size());
          for (float w : attr.weights) {
            EXPECT_GE(w, 0.0f);
            EXPECT_LE(w, 1.0f);
          }
        }
      }
      // Eq. 4 attribute weights: K entries summing to ~1.
      ASSERT_EQ(report.attribute_weights.size(), 3u);
      float sum = 0.0f;
      for (float w : report.attribute_weights) sum += w;
      EXPECT_NEAR(sum, 1.0f, 1e-3f);
      EXPECT_GE(report.match_probability, 0.0f);
      EXPECT_LE(report.match_probability, 1.0f);
    }
  }
}

TEST(HierGatTest, InspectAttentionRefusesSchemaDrift) {
  PairDataset data = SmallDataset(44);
  HierGatConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  HierGatModel model(config);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 8;
  model.Train(data, options);

  // Trained on 3 attributes; an entity with a 4th is refused, not scored.
  EntityPair drifted = data.test.front();
  drifted.right.Add("extra", "unseen attribute value");
  ASSERT_EQ(drifted.right.num_attributes(), 4);
  const StatusOr<HierGatModel::AttentionReport> report =
      model.InspectAttention(drifted);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
}

TEST(HierGatTest, CombinationStrategiesAllTrain) {
  PairDataset data = SmallDataset(55);
  TrainOptions options = FastOptions();
  options.epochs = 2;
  options.max_train_items = 40;
  for (ViewCombination strategy :
       {ViewCombination::kViewAverage, ViewCombination::kSharedSpace,
        ViewCombination::kWeightAverage}) {
    HierGatConfig config;
    config.lm_size = LmSize::kSmall;
    config.lm_pretrain_steps = 0;
    config.combination = strategy;
    HierGatModel model(config);
    model.Train(data, options);
    const EvalResult result = model.Evaluate(data.test);
    EXPECT_GE(result.f1, 0.0f);  // Trains and predicts without crashing.
  }
}

TEST(HierGatTest, TrainingIsDeterministicPerSeed) {
  PairDataset data = SmallDataset(66);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 20;
  auto run = [&]() {
    HierGatConfig config;
    config.lm_size = LmSize::kSmall;
    config.lm_pretrain_steps = 10;
    HierGatModel model(config);
    model.Train(data, options);
    return model.ScoreBatch({&data.test.front(), 1}).front();
  };
  EXPECT_FLOAT_EQ(run(), run());
}

// TrainOptions::seed is the single source of randomness for every
// matcher (configs no longer carry their own): same data + same seed
// must reproduce scores exactly, run after run.
TEST(NeuralModelsTest, BaselinesAreDeterministicPerSeed) {
  PairDataset data = SmallDataset(88);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 12;

  auto run_deepmatcher = [&]() {
    DeepMatcherModel model;
    model.Train(data, options);
    return model.ScoreBatch({&data.test.front(), 1}).front();
  };
  EXPECT_FLOAT_EQ(run_deepmatcher(), run_deepmatcher());

  auto run_ditto = [&]() {
    DittoConfig config;
    config.lm_size = LmSize::kSmall;
    config.lm_pretrain_steps = 10;
    DittoModel model(config);
    model.Train(data, options);
    return model.ScoreBatch({&data.test.front(), 1}).front();
  };
  EXPECT_FLOAT_EQ(run_ditto(), run_ditto());

  auto run_magellan = [&]() {
    MagellanModel model;
    model.Train(data, options);
    return model.Evaluate(data.test).f1;
  };
  EXPECT_FLOAT_EQ(run_magellan(), run_magellan());
}

TEST(NeuralModelsTest, SeedChangesBaselineInitialization) {
  PairDataset data = SmallDataset(88);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 12;
  auto run = [&](uint64_t seed) {
    options.seed = seed;
    DeepMatcherModel model;
    model.Train(data, options);
    return model.ScoreBatch({&data.test.front(), 1}).front();
  };
  // Different seeds must actually reach the weights (not just the
  // shuffling), so distinct seeds give distinct scores.
  EXPECT_NE(run(7), run(8));
}

TEST(NeuralModelsTest, MaxTrainItemsLimitsWork) {
  PairDataset data = SmallDataset(77);
  DittoConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  DittoModel model(config);
  TrainOptions options = FastOptions();
  options.epochs = 1;
  options.max_train_items = 5;
  model.Train(data, options);  // Must finish quickly without crashing.
  SUCCEED();
}

}  // namespace
}  // namespace hiergat
