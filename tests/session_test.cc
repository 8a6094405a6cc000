// Tests for er::Session — the unified Open/Train/Score/SaveCheckpoint
// facade. Every accepted matcher name must open the right model, a
// session must behave exactly like the hand-wired model+engine it
// replaces, and checkpoints must round-trip to identical probabilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "er/er.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace hiergat {
namespace {

PairDataset SmallDataset(uint64_t seed = 417) {
  SyntheticSpec spec;
  spec.name = "session";
  spec.num_pairs = 60;
  spec.positive_ratio = 0.3f;
  spec.num_attributes = 3;
  spec.hardness = 0.4f;
  spec.noise = 0.05f;
  spec.desc_len = 6;
  spec.seed = seed;
  return GeneratePairDataset(spec);
}

TrainOptions TinyOptions() {
  TrainOptions options;
  options.epochs = 1;
  options.lr = 2e-3f;
  options.batch_size = 16;
  options.seed = 11;
  options.verbose = false;
  return options;
}

SessionOptions TinySessionOptions() {
  SessionOptions options;
  options.matcher = "hiergat";
  options.lm_size = LmSize::kSmall;
  options.lm_pretrain_steps = 0;
  options.engine.num_threads = 2;
  return options;
}

std::string TempCheckpointPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SessionTest, UnknownMatcherNameIsAnError) {
  SessionOptions options;
  options.matcher = "definitely-not-a-matcher";
  auto session_or = Session::Open(options);
  EXPECT_FALSE(session_or.ok());
  EXPECT_EQ(session_or.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, EngineThreadCountOutsideBoundsIsAnError) {
  // Refused before the engine's pool exists: the live-lanes gauge does
  // not move, so no thread was started.
  const obs::Gauge& lanes =
      obs::MetricsRegistry::Global().GetGauge("hiergat.threadpool.threads");
  const double before = lanes.Value();
  for (const int threads : {-1, kMaxThreads + 1}) {
    SessionOptions options;
    options.matcher = "magellan";
    options.engine.num_threads = threads;
    auto session_or = Session::Open(options);
    ASSERT_FALSE(session_or.ok()) << threads;
    EXPECT_EQ(session_or.status().code(), StatusCode::kInvalidArgument)
        << threads;
    EXPECT_EQ(lanes.Value(), before) << threads;
  }
}

TEST(SessionTest, EveryMatcherNameOpensItsModel) {
  struct NameCase {
    const char* matcher;
    bool collective;
    const char* model_name;
  };
  const NameCase cases[] = {
      {"hiergat", false, "HierGAT"},    {"HierGAT", false, "HierGAT"},
      {"ditto", false, "Ditto"},        {"deepmatcher", false, "DeepMatcher"},
      {"dm", false, "DeepMatcher"},     {"dm+", false, "DM+"},
      {"dmplus", false, "DM+"},         {"magellan", false, "Magellan"},
      {"hiergat+", true, "HierGAT+"},   {"hiergatplus", true, "HierGAT+"},
      {"gcn", true, "GCN"},             {"gat", true, "GAT"},
      {"hgat", true, "HGAT"},
  };
  for (const NameCase& c : cases) {
    SCOPED_TRACE(c.matcher);
    SessionOptions options = TinySessionOptions();
    options.matcher = c.matcher;
    options.collective = c.collective;
    auto session_or = Session::Open(options);
    ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
    const Session& session = *session_or.value();
    EXPECT_EQ(session.collective(), c.collective);
    if (c.collective) {
      EXPECT_EQ(session.collective_model()->name(), c.model_name);
    } else {
      EXPECT_EQ(session.model()->name(), c.model_name);
    }

    // The same name asked of the other family is not a known matcher.
    options.collective = !c.collective;
    auto wrong_or = Session::Open(options);
    ASSERT_FALSE(wrong_or.ok());
    EXPECT_EQ(wrong_or.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionTest, WrongKindTrainIsFailedPrecondition) {
  auto session_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();
  EXPECT_FALSE(session->collective());
  EXPECT_NE(session->model(), nullptr);
  EXPECT_EQ(session->collective_model(), nullptr);

  CollectiveDataset collective;
  const Status status = session->Train(collective, TinyOptions());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, CheckpointRoundTripsToIdenticalProbeScores) {
  const PairDataset data = SmallDataset();

  auto session_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();
  ASSERT_TRUE(session->Train(data, TinyOptions()).ok());

  const std::vector<float> trained = session->Score(data.test);
  ASSERT_EQ(trained.size(), data.test.size());

  const std::string path = TempCheckpointPath("session_roundtrip.ckpt");
  ASSERT_TRUE(session->SaveCheckpoint(path).ok());

  SessionOptions reload = TinySessionOptions();
  reload.checkpoint_path = path;
  auto loaded_or = Session::Open(reload);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<Session> loaded = std::move(loaded_or).value();

  const std::vector<float> restored = loaded->Score(data.test);
  ASSERT_EQ(restored.size(), trained.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_EQ(trained[i], restored[i]) << "probe pair " << i;
  }
  std::remove(path.c_str());
}

TEST(SessionTest, EvaluateMatchesScoreDerivedMetrics) {
  const PairDataset data = SmallDataset(73);
  auto session_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(session_or).value();
  ASSERT_TRUE(session->Train(data, TinyOptions()).ok());

  const std::vector<float> probs = session->Score(data.test);
  std::vector<int> labels;
  for (const EntityPair& pair : data.test) labels.push_back(pair.label);
  const EvalResult expected = ComputeMetrics(probs, labels);
  const EvalResult actual = session->Evaluate(data.test);
  EXPECT_EQ(expected.f1, actual.f1);
  EXPECT_EQ(expected.precision, actual.precision);
  EXPECT_EQ(expected.recall, actual.recall);
}

TEST(SessionTest, TrainingExportsValidF1MarginOverAlwaysMatch) {
  // The selected epoch's valid F1 minus the F1 of predicting "match" for
  // every validation pair: a constant model reads <= 0 and logs a WARN.
  const PairDataset data = SmallDataset(91);
  ASSERT_FALSE(data.valid.empty());
  auto session_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(session_or).value();
  int margin_warnings = 0;
  const auto count_margin_warnings = [&](obs::LogLevel level, const char*,
                                         int, const std::string& message) {
    if (level == obs::LogLevel::kWarn &&
        message.find("always-match") != std::string::npos) {
      ++margin_warnings;
    }
  };
  obs::SetLogSink(count_margin_warnings);
  TrainOptions options = TinyOptions();
  options.epochs = 2;
  const Status trained = session->Train(data, options);
  obs::SetLogSink(nullptr);
  ASSERT_TRUE(trained.ok()) << trained.ToString();

  // Best-epoch selection restored the selected epoch's weights, so
  // evaluating the split again reproduces that epoch's F1.
  std::vector<int> labels;
  for (const EntityPair& pair : data.valid) labels.push_back(pair.label);
  const float always_match_f1 =
      ComputeMetrics(std::vector<float>(labels.size(), 1.0f), labels).f1;
  const float want = session->Evaluate(data.valid).f1 - always_match_f1;
  const double margin = obs::MetricsRegistry::Global()
                            .GetGauge("hiergat.train.valid_f1_margin")
                            .Value();
  EXPECT_FLOAT_EQ(static_cast<float>(margin), want);
  EXPECT_EQ(margin_warnings, margin <= 0.0 ? 1 : 0);

  // On an all-positive split always-match scores F1 1, which no model
  // beats: the margin is <= 0 and exactly one WARN names it.
  PairDataset positives = data;
  std::erase_if(positives.valid,
                [](const EntityPair& pair) { return pair.label != 1; });
  ASSERT_FALSE(positives.valid.empty());
  auto fresh_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(fresh_or.ok());
  margin_warnings = 0;
  obs::SetLogSink(count_margin_warnings);
  const Status retrained = fresh_or.value()->Train(positives, options);
  obs::SetLogSink(nullptr);
  ASSERT_TRUE(retrained.ok()) << retrained.ToString();
  EXPECT_LE(obs::MetricsRegistry::Global()
                .GetGauge("hiergat.train.valid_f1_margin")
                .Value(),
            0.0);
  EXPECT_EQ(margin_warnings, 1);
}

TEST(SessionTest, HostileValuesScoreFiniteAndIndependentOfBatchAndPath) {
  // Empty, punctuation-only and non-Latin values leave an attribute with
  // no token (UTF-8 bytes are not alphanumeric); a value of about 1,000
  // tokens is longer than CompiledScoring::kMaxRows, so its sequences
  // take the eager path while the rest of the batch replays.
  const PairDataset data = SmallDataset(29);
  auto session_or = Session::Open(TinySessionOptions());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<Session> session = std::move(session_or).value();
  ASSERT_TRUE(session->Train(data, TinyOptions()).ok());

  std::string long_value;
  for (int i = 0; i < 1000; ++i) {
    long_value += "w" + std::to_string(i % 97) + " ";
  }
  const std::string hostile[] = {
      "",
      "-- !! ... ,",
      "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e",
      "\xd0\xbc\xd0\xb8\xd1\x80 caf\xc3\xa9 na\xc3\xafve",
      long_value,
  };
  ASSERT_FALSE(data.test.empty());
  const EntityPair& base = data.test.front();
  std::vector<EntityPair> pairs;
  for (const std::string& value : hostile) {
    // The value in one attribute of the left entity, then in every
    // attribute of the right one.
    EntityPair one = base;
    one.left.attribute(0).second = value;
    pairs.push_back(one);
    EntityPair all = base;
    for (int a = 0; a < all.right.num_attributes(); ++a) {
      all.right.attribute(a).second = value;
    }
    pairs.push_back(all);
  }

  const std::vector<float> batch = session->Score(pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(std::isfinite(batch[i]));
    EXPECT_GE(batch[i], 0.0f);
    EXPECT_LE(batch[i], 1.0f);
    EXPECT_EQ(session->Score({&pairs[i], 1}).front(), batch[i])
        << "alone vs in a batch";
  }

  auto* hiergat = dynamic_cast<HierGatModel*>(session->model());
  ASSERT_NE(hiergat, nullptr);
  hiergat->set_graph_compile_enabled(false);
  hiergat->InvalidateInferenceCache();
  EXPECT_EQ(session->Score(pairs), batch) << "eager vs compiled";
}

}  // namespace
}  // namespace hiergat
