// Golden-regression tests: load the checked-in fixtures from
// tests/fixtures/ (trained once by tools/make_golden) and assert that
// today's code reproduces yesterday's scores — no training happens
// here. Regenerate fixtures with `build/tools/make_golden` after an
// intentional model change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "er/er.h"
#include "er/golden.h"
#include "obs/metrics.h"

namespace hiergat {
namespace {

std::string FixturePath(const char* name) {
  return std::string(HIERGAT_FIXTURE_DIR) + "/" + name;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[offset + i]);
  }
  return value;
}

std::string U32Bytes(uint32_t value) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(value >> (8 * i));
  return out;
}

/// Rewrites meta `key` of checkpoint image `image` to `value` and
/// recomputes the CRC footer, as a hostile writer would (layout:
/// src/core/serialize.h).
std::string ForgeMeta(const std::string& image, const std::string& key,
                      const std::string& value) {
  size_t offset = 8;                        // magic + format version.
  offset += 4 + ReadU32(image, offset);     // Model tag.
  const uint32_t meta_count = ReadU32(image, offset);
  offset += 4;
  for (uint32_t i = 0; i < meta_count; ++i) {
    const uint32_t key_len = ReadU32(image, offset);
    const std::string found = image.substr(offset + 4, key_len);
    offset += 4 + key_len;
    const size_t value_len = ReadU32(image, offset);
    if (found == key) {
      std::string forged = image.substr(0, offset) +
                           U32Bytes(static_cast<uint32_t>(value.size())) +
                           value +
                           image.substr(offset + 4 + value_len);
      forged.resize(forged.size() - 4);
      return forged + U32Bytes(Crc32(forged));
    }
    offset += 4 + value_len;
  }
  ADD_FAILURE() << "no meta key " << key;
  return image;
}

/// Offset of the first tensor's dtype byte in checkpoint image `image`
/// (layout: src/core/serialize.h); that tensor's name goes to `name`.
size_t FirstTensorDtypeOffset(const std::string& image, std::string* name) {
  size_t offset = 8;                     // magic + format version.
  offset += 4 + ReadU32(image, offset);  // Model tag.
  const uint32_t meta_count = ReadU32(image, offset);
  offset += 4;
  for (uint32_t i = 0; i < 2 * meta_count; ++i) {  // Keys and values.
    offset += 4 + ReadU32(image, offset);
  }
  offset += 4;  // Tensor count.
  const uint32_t name_len = ReadU32(image, offset);
  *name = image.substr(offset + 4, name_len);
  return offset + 4 + name_len;
}

void ExpectScoresNear(const std::vector<float>& actual,
                      const std::vector<float>& golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], golden[i], golden::kScoreTolerance)
        << "score " << i;
  }
}

std::unique_ptr<Session> OpenFixture(const char* checkpoint,
                                     bool collective) {
  SessionOptions options;
  options.checkpoint_path = FixturePath(checkpoint);
  options.collective = collective;
  auto session_or = Session::Open(options);
  EXPECT_TRUE(session_or.ok()) << session_or.status().ToString();
  return session_or.ok() ? std::move(session_or).value() : nullptr;
}

TEST(GoldenTest, HierGatFixtureReproducesScores) {
  std::unique_ptr<Session> session =
      OpenFixture(golden::kHierGatCheckpoint, /*collective=*/false);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->model()->name(), "HierGAT");

  const PairDataset data = golden::MakePairDataset();
  const std::vector<EntityPair> probes = golden::ProbePairs(data);
  const std::vector<float> scores = session->Score(probes);

  auto golden_or =
      golden::ReadScores(FixturePath(golden::kHierGatScores));
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().ToString();
  ExpectScoresNear(scores, golden_or.value());
}

TEST(GoldenTest, HierGatPlusFixtureReproducesScores) {
  std::unique_ptr<Session> session =
      OpenFixture(golden::kHierGatPlusCheckpoint, /*collective=*/true);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->collective_model()->name(), "HierGAT+");

  const CollectiveDataset data = golden::MakeCollectiveDataset();
  const std::vector<CollectiveQuery> probes = golden::ProbeQueries(data);
  const std::vector<float> scores =
      golden::ScoreQueries(*session->collective_model(), probes);

  auto golden_or =
      golden::ReadScores(FixturePath(golden::kHierGatPlusScores));
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().ToString();
  ExpectScoresNear(scores, golden_or.value());
}

TEST(GoldenTest, HierGatCompiledPathMatchesEagerOnFixture) {
  // Acceptance for the compiled scoring graphs (DESIGN.md §11): replay
  // through the planned arena must reproduce the eager scores on the
  // golden fixture within golden::kScoreTolerance — and in fact
  // bit-exactly, since replay runs each op's one forward body.
  HierGatModel model;
  ASSERT_TRUE(model.Load(FixturePath(golden::kHierGatCheckpoint)).ok());
  const PairDataset data = golden::MakePairDataset();
  const std::vector<EntityPair> probes = golden::ProbePairs(data);

  const std::vector<float> compiled = model.ScoreBatch(probes);
  EXPECT_GT(model.compiled_stats().num_graphs, 0)
      << "default scoring must have compiled graphs";

  model.set_graph_compile_enabled(false);
  model.InvalidateInferenceCache();
  const std::vector<float> eager = model.ScoreBatch(probes);

  ExpectScoresNear(compiled, eager);
  EXPECT_EQ(compiled, eager) << "replay should be bit-exact, not just close";
}

TEST(GoldenTest, HierGatPlusCompiledPathMatchesEagerOnFixture) {
  HierGatPlusModel model;
  ASSERT_TRUE(
      model.Load(FixturePath(golden::kHierGatPlusCheckpoint)).ok());
  const CollectiveDataset data = golden::MakeCollectiveDataset();
  const std::vector<CollectiveQuery> probes = golden::ProbeQueries(data);

  const std::vector<float> compiled = golden::ScoreQueries(model, probes);
  EXPECT_GT(model.compiled_stats().num_graphs, 0);

  model.set_graph_compile_enabled(false);
  model.InvalidateInferenceCache();
  const std::vector<float> eager = golden::ScoreQueries(model, probes);

  ASSERT_EQ(compiled.size(), eager.size());
  ExpectScoresNear(compiled, eager);
  EXPECT_EQ(compiled, eager);
}

TEST(GoldenTest, HierGatPlusCandidatesCountAsCompiledPairs) {
  // HierGAT+ compares through the same HierGatStack step as HierGAT, so
  // each candidate it scores counts in hiergat.score.compiled_pairs.
  HierGatPlusModel model;
  ASSERT_TRUE(
      model.Load(FixturePath(golden::kHierGatPlusCheckpoint)).ok());
  const CollectiveDataset data = golden::MakeCollectiveDataset();
  const CollectiveQuery query = golden::ProbeQueries(data).front();
  ASSERT_FALSE(query.candidates.empty());
  obs::Counter& compiled = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.score.compiled_pairs");
  obs::Counter& eager = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.score.eager_pairs");
  const int64_t compiled_before = compiled.Value();
  const int64_t eager_before = eager.Value();

  EXPECT_EQ(model.PredictQuery(query).size(), query.candidates.size());
  EXPECT_EQ(compiled.Value() - compiled_before,
            static_cast<int64_t>(query.candidates.size()));
  EXPECT_EQ(eager.Value(), eager_before);
}

TEST(GoldenTest, HierGatSaveLoadSaveIsByteStable) {
  HierGatModel first;
  ASSERT_TRUE(
      first.Load(FixturePath(golden::kHierGatCheckpoint)).ok());
  const std::string path_a = TempPath("hiergat_roundtrip_a.ckpt");
  const std::string path_b = TempPath("hiergat_roundtrip_b.ckpt");
  ASSERT_TRUE(first.Save(path_a, DType::kF32).ok());

  HierGatModel second;
  ASSERT_TRUE(second.Load(path_a).ok());
  ASSERT_TRUE(second.Save(path_b, DType::kF32).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));

  // And the reloaded model still scores identically.
  const PairDataset data = golden::MakePairDataset();
  const std::vector<EntityPair> probes = golden::ProbePairs(data);
  EXPECT_EQ(first.ScoreBatch(probes), second.ScoreBatch(probes));
}

TEST(GoldenTest, HierGatPlusSaveLoadSaveIsByteStable) {
  HierGatPlusModel first;
  ASSERT_TRUE(
      first.Load(FixturePath(golden::kHierGatPlusCheckpoint)).ok());
  const std::string path_a = TempPath("hiergat_plus_roundtrip_a.ckpt");
  const std::string path_b = TempPath("hiergat_plus_roundtrip_b.ckpt");
  ASSERT_TRUE(first.Save(path_a, DType::kF32).ok());

  HierGatPlusModel second;
  ASSERT_TRUE(second.Load(path_a).ok());
  ASSERT_TRUE(second.Save(path_b, DType::kF32).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
}

TEST(GoldenTest, F16ResaveReproducesTheFixtureBitwise) {
  // f16 -> f32 -> f16 is exact, so loading the f16 fixture and saving
  // it back in f16 must reproduce the file byte for byte.
  HierGatModel model;
  ASSERT_TRUE(model.Load(FixturePath(golden::kHierGatCheckpoint)).ok());
  const std::string resaved = TempPath("hiergat_resaved_f16.ckpt");
  ASSERT_TRUE(model.Save(resaved, DType::kF16).ok());
  EXPECT_EQ(ReadFileBytes(resaved),
            ReadFileBytes(FixturePath(golden::kHierGatCheckpoint)));
}

TEST(GoldenTest, CheckpointTagDispatchRejectsWrongFamily) {
  // Session::Open peeks the checkpoint's embedded tag: a checkpoint of
  // the other family is InvalidArgument naming the tag it found.
  SessionOptions pairwise;
  pairwise.checkpoint_path = FixturePath(golden::kHierGatPlusCheckpoint);
  auto pairwise_or = Session::Open(pairwise);
  ASSERT_FALSE(pairwise_or.ok());
  EXPECT_EQ(pairwise_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pairwise_or.status().message().find("'HierGAT+'"),
            std::string::npos)
      << pairwise_or.status().ToString();

  SessionOptions collective;
  collective.collective = true;
  collective.checkpoint_path = FixturePath(golden::kHierGatCheckpoint);
  auto collective_or = Session::Open(collective);
  ASSERT_FALSE(collective_or.ok());
  EXPECT_EQ(collective_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(collective_or.status().message().find("'HierGAT'"),
            std::string::npos)
      << collective_or.status().ToString();

  SessionOptions missing;
  missing.checkpoint_path = TempPath("no_such_checkpoint.ckpt");
  EXPECT_FALSE(Session::Open(missing).ok());
}

TEST(GoldenTest, ForgedMetaDimensionsFailLoadWithAStatus) {
  // Every module is sized from the checkpoint's meta dimensions. A
  // forged value (CRC recomputed) must fail Load with InvalidArgument
  // naming the key before anything is allocated: not abort on a huge
  // allocation, truncate to a plausible size, or overflow K * F.
  const std::pair<const char*, const char*> kForgeries[] = {
      {"classifier_hidden", "2147483647"},
      {"classifier_hidden", "4294967328"},
      {"num_attributes", "100000000"},
  };
  for (const bool collective : {false, true}) {
    const std::string fixture = ReadFileBytes(FixturePath(
        collective ? golden::kHierGatPlusCheckpoint
                   : golden::kHierGatCheckpoint));
    for (const auto& [key, value] : kForgeries) {
      SCOPED_TRACE(std::string(collective ? "HierGAT+ " : "HierGAT ") + key +
                   " = " + value);
      const std::string path = TempPath("forged_meta.ckpt");
      ASSERT_TRUE(
          WriteFileAtomic(path, ForgeMeta(fixture, key, value)).ok());
      SessionOptions options;
      options.collective = collective;
      options.checkpoint_path = path;
      auto session_or = Session::Open(options);
      ASSERT_FALSE(session_or.ok());
      EXPECT_EQ(session_or.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(session_or.status().message().find(key), std::string::npos)
          << session_or.status().ToString();
    }
  }
}

TEST(GoldenTest, RetiredDtypeIsRefusedWithAStatus) {
  // Dtype byte 2 was q8_0 block storage, which is no longer read. A
  // checkpoint carrying it (CRC recomputed) must be refused with
  // InvalidArgument naming the tensor and the dtype, by the parser and
  // by Session::Open, rather than decoded or aborted on.
  std::string image = ReadFileBytes(FixturePath(golden::kHierGatCheckpoint));
  std::string name;
  const size_t dtype_offset = FirstTensorDtypeOffset(image, &name);
  ASSERT_LT(static_cast<uint8_t>(image[dtype_offset]), 2);
  image[dtype_offset] = 2;
  image.resize(image.size() - 4);
  image += U32Bytes(Crc32(image));

  const auto expect_refused = [&](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("'" + name + "'"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("dtype 2"), std::string::npos)
        << status.ToString();
  };
  expect_refused(TensorReader::Parse(image).status());

  const std::string path = TempPath("retired_dtype.ckpt");
  ASSERT_TRUE(WriteFileAtomic(path, image).ok());
  SessionOptions options;
  options.checkpoint_path = path;
  expect_refused(Session::Open(options).status());
}

TEST(GoldenTest, CheckpointMetricsAreEmitted) {
  HierGatModel model;
  ASSERT_TRUE(model.Load(FixturePath(golden::kHierGatCheckpoint)).ok());
  auto& metrics = obs::MetricsRegistry::Global();
  EXPECT_GT(metrics.GetGauge("hiergat.ckpt.bytes").Value(), 0.0);
  EXPECT_GE(metrics.GetGauge("hiergat.ckpt.load_ms").Value(), 0.0);
}

// Two Sessions over the same checkpoint, each with its own 4-worker
// engine, must agree exactly — and the summary cache must actually
// serve hits. This test carries the `golden` label and runs under the
// tsan and asan presets too.
TEST(GoldenTest, TwoEnginesFourThreadsAgreeAndHitTheCache) {
  SessionOptions options;
  options.checkpoint_path = FixturePath(golden::kHierGatCheckpoint);
  options.engine.num_threads = 4;
  auto session_a_or = Session::Open(options);
  auto session_b_or = Session::Open(options);
  ASSERT_TRUE(session_a_or.ok()) << session_a_or.status().ToString();
  ASSERT_TRUE(session_b_or.ok()) << session_b_or.status().ToString();
  Session& session_a = *session_a_or.value();
  Session& session_b = *session_b_or.value();
  auto* model_a = dynamic_cast<HierGatModel*>(session_a.model());
  ASSERT_NE(model_a, nullptr);

  const PairDataset data = golden::MakePairDataset();
  std::vector<EntityPair> pairs = data.test;

  std::vector<float> scores_a;
  std::vector<float> scores_b;
  std::thread thread_a([&] { scores_a = session_a.Score(pairs); });
  std::thread thread_b([&] { scores_b = session_b.Score(pairs); });
  thread_a.join();
  thread_b.join();
  EXPECT_EQ(scores_a, scores_b);

  // A second pass over the same pairs is served from the caches.
  const std::vector<float> again = session_a.Score(pairs);
  EXPECT_EQ(again, scores_a);
  EXPECT_GT(model_a->summary_cache().stats().hits, 0);
  EXPECT_GT(model_a->summary_cache().stats().HitRate(), 0.0);
}

}  // namespace
}  // namespace hiergat
