// Tests for the MiniLM pair machinery that the transformer matchers
// rely on: segment embeddings, sentence-pair pre-training, zero-shot
// pair logits, and the order of the fine-tuned parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "er/hiergat.h"
#include "nn/optimizer.h"
#include "text/mini_lm.h"
#include "tensor/ops.h"

namespace hiergat {
namespace {

/// HierGatModel with its optimizer list in reach.
class ExposedHierGat : public HierGatModel {
 public:
  using HierGatModel::HierGatModel;
  using HierGatModel::TrainableParameters;
};

/// Little-endian unsigned field; throws (a test failure) past the end.
uint64_t ReadLe(const std::string& bytes, size_t offset, int width) {
  uint64_t value = 0;
  for (int i = width - 1; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes.at(offset + i));
  }
  return value;
}

struct StoredTensor {
  std::string name;
  std::vector<float> values;
};

/// Every tensor of an f32 checkpoint image, in file order (layout:
/// src/core/serialize.h).
std::vector<StoredTensor> ReadF32Tensors(const std::string& image) {
  size_t offset = 8;                        // magic + format version.
  offset += 4 + ReadLe(image, offset, 4);   // Model tag.
  const uint64_t meta_count = ReadLe(image, offset, 4);
  offset += 4;
  for (uint64_t i = 0; i < 2 * meta_count; ++i) {  // Keys and values.
    offset += 4 + ReadLe(image, offset, 4);
  }
  const uint64_t count = ReadLe(image, offset, 4);
  offset += 4;
  std::vector<StoredTensor> tensors(count);
  for (StoredTensor& tensor : tensors) {
    const size_t name_len = ReadLe(image, offset, 4);
    tensor.name = image.substr(offset + 4, name_len);
    offset += 4 + name_len + 1;  // Name, dtype.
    const int rank = static_cast<uint8_t>(image.at(offset));
    offset += 1 + 4 * static_cast<size_t>(rank);
    const uint64_t byte_len = ReadLe(image, offset, 8);
    offset += 8;
    for (uint64_t b = 0; b < byte_len; b += 4) {
      tensor.values.push_back(std::bit_cast<float>(
          static_cast<uint32_t>(ReadLe(image, offset + b, 4))));
    }
    offset += byte_len;
  }
  return tensors;
}

class MiniLmPairFixture : public ::testing::Test {
 protected:
  MiniLmPairFixture() {
    for (int w = 0; w < 200; ++w) {
      vocab_.Add("word" + std::to_string(w));
    }
    lm_ = std::make_unique<MiniLm>(LmSize::kSmall, &vocab_, 77);
  }

  std::vector<std::vector<int>> MakeCorpus(int sentences, int length) {
    Rng rng(3);
    std::vector<std::vector<int>> corpus;
    for (int s = 0; s < sentences; ++s) {
      std::vector<int> sentence;
      for (int t = 0; t < length; ++t) {
        sentence.push_back(Vocabulary::kNumSpecial +
                           static_cast<int>(rng.NextUint64(200)));
      }
      corpus.push_back(std::move(sentence));
    }
    return corpus;
  }

  Vocabulary vocab_;
  std::unique_ptr<MiniLm> lm_;
  Rng rng_{11};
};

TEST_F(MiniLmPairFixture, SegmentsChangeTheEncoding) {
  const std::vector<int> ids = {Vocabulary::kCls, 6, 7, Vocabulary::kSep,
                                6, 7, Vocabulary::kSep};
  Tensor a = lm_->EncodePair(ids, {0, 0, 0, 0, 1, 1, 1}, false, rng_);
  Tensor b = lm_->EncodePair(ids, {0, 0, 0, 0, 0, 0, 0}, false, rng_);
  float diff = 0.0f;
  for (size_t i = 0; i < a.data().size(); ++i) {
    diff += std::abs(a.data()[i] - b.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f) << "segment ids must influence the encoding";
}

TEST_F(MiniLmPairFixture, AddSegmentsShape) {
  Tensor embedded = lm_->Embed({5, 6, 7});
  Tensor with_segments = lm_->AddSegments(embedded, {0, 1, 1});
  EXPECT_EQ(with_segments.shape(), embedded.shape());
}

TEST_F(MiniLmPairFixture, PairLogitsShapeAndDeterminism) {
  const std::vector<int> ids = {Vocabulary::kCls, 6, Vocabulary::kSep, 6,
                                Vocabulary::kSep};
  const std::vector<int> segments = {0, 0, 0, 1, 1};
  Tensor logits = lm_->PairLogits(ids, segments, false, rng_);
  EXPECT_EQ(logits.dim(0), 1);
  EXPECT_EQ(logits.dim(1), 2);
  Tensor again = lm_->PairLogits(ids, segments, false, rng_);
  EXPECT_EQ(logits.data(), again.data());
}

TEST_F(MiniLmPairFixture, PairedPretrainingLearnsSameVsDifferent) {
  const auto corpus = MakeCorpus(40, 8);
  Rng rng(5);
  const float early = lm_->PretrainPaired(corpus, 400, 1e-3f, rng);
  lm_->PretrainPaired(corpus, 3000, 1e-3f, rng);
  const float late = lm_->PretrainPaired(corpus, 3000, 1e-3f, rng);
  EXPECT_LT(late, early)
      << "pair loss must fall as matching circuits form";
  EXPECT_LT(late, 0.66f) << "must beat the 0.693 chance level";
}

TEST_F(MiniLmPairFixture, OptimizerOrderFollowsCheckpointRegistration) {
  // ParameterLrMultipliers slows index 0 to 0.1x for HierGAT, HierGAT+
  // and Ditto, so it must be the token table.
  EXPECT_EQ(&lm_->Parameters()[0].data(),
            &lm_->token_table().table().data());

  // A built HierGAT trains exactly the tensors its checkpoint holds, in
  // checkpoint order: each trainable tensor is filled with its index + 1
  // and must come out of Save at the same position.
  SyntheticSpec spec;
  spec.name = "order";
  spec.num_pairs = 20;
  spec.num_attributes = 2;
  spec.seed = 5;
  HierGatConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 0;
  ExposedHierGat model(config);
  TrainOptions options;
  options.epochs = 1;
  options.max_train_items = 2;
  model.Train(GeneratePairDataset(spec), options);
  std::vector<Tensor> params = model.TrainableParameters();
  for (size_t i = 0; i < params.size(); ++i) {
    std::fill(params[i].data().begin(), params[i].data().end(),
              static_cast<float>(i + 1));
  }
  const std::string path = ::testing::TempDir() + "optimizer_order.ckpt";
  ASSERT_TRUE(model.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream image;
  image << in.rdbuf();

  const std::vector<StoredTensor> stored = ReadF32Tensors(image.str());
  ASSERT_EQ(stored.size(), params.size());
  EXPECT_EQ(stored[0].name, "lm.token_table.table");
  for (size_t i = 0; i < stored.size(); ++i) {
    ASSERT_EQ(stored[i].values.size(), params[i].data().size())
        << stored[i].name;
    for (const float v : stored[i].values) {
      ASSERT_EQ(v, static_cast<float>(i + 1)) << stored[i].name;
    }
  }
}

TEST_F(MiniLmPairFixture, ParametersIncludeSegmentTable) {
  // Sanity: optimizing Parameters() changes the segment encoding.
  std::vector<Tensor> params = lm_->Parameters();
  Adam adam(params, 1e-2f);
  const std::vector<int> ids = {Vocabulary::kCls, 6, Vocabulary::kSep, 7,
                                Vocabulary::kSep};
  const std::vector<int> segments = {0, 0, 0, 1, 1};
  Tensor before = lm_->EncodePair(ids, segments, false, rng_);
  for (int step = 0; step < 3; ++step) {
    adam.ZeroGrad();
    Tensor out = lm_->EncodePair(ids, segments, true, rng_);
    Sum(Mul(out, out)).Backward();
    adam.Step();
  }
  Tensor after = lm_->EncodePair(ids, segments, false, rng_);
  EXPECT_NE(before.data(), after.data());
}

TEST(AdamMultiplierTest, ZeroMultiplierFreezesParameter) {
  Rng rng(1);
  Tensor frozen = Tensor::Randn({4}, rng, 1.0f, true);
  Tensor live = Tensor::Randn({4}, rng, 1.0f, true);
  const std::vector<float> frozen_before = frozen.data();
  Adam adam({frozen, live}, 0.1f);
  adam.SetLrMultipliers({0.0f, 1.0f});
  for (int step = 0; step < 5; ++step) {
    adam.ZeroGrad();
    Sum(Add(Mul(frozen, frozen), Mul(live, live))).Backward();
    adam.Step();
  }
  EXPECT_EQ(frozen.data(), frozen_before);
  EXPECT_NE(live.data(), frozen_before);
}

TEST(AdamMultiplierTest, SmallMultiplierMovesLess) {
  Rng rng(2);
  Tensor slow = Tensor::Full({1}, 1.0f, true);
  Tensor fast = Tensor::Full({1}, 1.0f, true);
  Adam adam({slow, fast}, 0.05f);
  adam.SetLrMultipliers({0.1f, 1.0f});
  for (int step = 0; step < 10; ++step) {
    adam.ZeroGrad();
    Sum(Add(Mul(slow, slow), Mul(fast, fast))).Backward();
    adam.Step();
  }
  EXPECT_GT(std::abs(slow.at(0) - 1.0f) * 5.0f,
            0.0f);  // It does move...
  EXPECT_LT(std::abs(slow.at(0) - 1.0f),
            std::abs(fast.at(0) - 1.0f));  // ...but less than fast.
}

}  // namespace
}  // namespace hiergat
