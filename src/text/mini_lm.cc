#include "text/mini_lm.h"

#include <algorithm>

#include "core/logging.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace hiergat {

const char* LmSizeName(LmSize size) {
  switch (size) {
    case LmSize::kSmall:
      return "MiniLM-S";
    case LmSize::kMedium:
      return "MiniLM-M";
    case LmSize::kLarge:
      return "MiniLM-L";
  }
  return "MiniLM-?";
}

TransformerConfig LmConfigFor(LmSize size) {
  TransformerConfig config;
  switch (size) {
    case LmSize::kSmall:
      // Two layers minimum: token-twin detection across [SEP] needs one
      // matching layer plus one aggregation layer.
      config.dim = 32;
      config.num_heads = 2;
      config.num_layers = 2;
      config.ffn_dim = 64;
      break;
    case LmSize::kMedium:
      config.dim = 48;
      config.num_heads = 2;
      config.num_layers = 2;
      config.ffn_dim = 96;
      break;
    case LmSize::kLarge:
      config.dim = 64;
      config.num_heads = 4;
      config.num_layers = 3;
      config.ffn_dim = 128;
      break;
  }
  return config;
}

MiniLm::MiniLm(LmSize size, const Vocabulary* vocab, uint64_t seed)
    : size_(size), config_(LmConfigFor(size)), vocab_(vocab) {
  HG_CHECK(vocab != nullptr);
  Rng rng(seed);
  token_table_ =
      std::make_unique<Embedding>(vocab->size(), config_.dim, rng, 0.02f);
  // Seed every row with its hashed-n-gram vector so surface-form
  // similarity is present before any training (FastText behaviour).
  HashedEmbeddings hashed(config_.dim, 3, 5, seed);
  for (int id = Vocabulary::kNumSpecial; id < vocab->size(); ++id) {
    token_table_->SetRow(id, hashed.WordVector(vocab->Token(id)));
  }
  segment_table_ = std::make_unique<Embedding>(2, config_.dim, rng, 0.05f);
  encoder_ = std::make_unique<TransformerEncoder>(config_, rng);
  mlm_head_ = std::make_unique<Linear>(config_.dim, vocab->size(), rng);
  pair_head_ = std::make_unique<Linear>(config_.dim, 2, rng);
}

Tensor MiniLm::Embed(const std::vector<int>& ids) const {
  return token_table_->Forward(ids);
}

Tensor MiniLm::Encode(const std::vector<int>& ids, bool training,
                      Rng& rng) const {
  return encoder_->Forward(Embed(ids), training, rng);
}

Tensor MiniLm::EncodePair(const std::vector<int>& ids,
                          const std::vector<int>& segments, bool training,
                          Rng& rng) const {
  return encoder_->Forward(AddSegments(Embed(ids), segments), training, rng);
}

Tensor MiniLm::AddSegments(const Tensor& embedded,
                           const std::vector<int>& segments) const {
  HG_CHECK_EQ(embedded.dim(0), static_cast<int>(segments.size()));
  return Add(embedded, segment_table_->Forward(segments));
}

Tensor MiniLm::EncodeEmbedded(const Tensor& embedded, bool training,
                              Rng& rng, bool add_positions,
                              Tensor* attention) const {
  return encoder_->Forward(embedded, training, rng, add_positions, {}, {},
                           attention);
}

float MiniLm::Pretrain(const std::vector<std::vector<int>>& corpus,
                       int steps, float lr, Rng& rng) {
  if (corpus.empty() || steps <= 0) return 0.0f;
  std::vector<Tensor> params;
  AppendParameters(&params, token_table_->Parameters());
  AppendParameters(&params, encoder_->Parameters());
  AppendParameters(&params, mlm_head_->Parameters());
  Adam optimizer(params, lr);
  float running_loss = 0.0f;
  int counted = 0;
  for (int step = 0; step < steps; ++step) {
    const std::vector<int>& sentence =
        corpus[rng.NextUint64(corpus.size())];
    if (sentence.size() < 2) continue;
    // Mask ~15% of positions (at least one).
    std::vector<int> masked = sentence;
    std::vector<int> positions;
    for (size_t i = 0; i < sentence.size(); ++i) {
      if (rng.NextBool(0.15f)) {
        positions.push_back(static_cast<int>(i));
        masked[i] = Vocabulary::kMask;
      }
    }
    if (positions.empty()) {
      const size_t i = rng.NextUint64(sentence.size());
      positions.push_back(static_cast<int>(i));
      masked[i] = Vocabulary::kMask;
    }
    Tensor encoded = Encode(masked, /*training=*/true, rng);
    Tensor logits = mlm_head_->Forward(GatherRows(encoded, positions));
    std::vector<int> labels;
    labels.reserve(positions.size());
    for (int p : positions) labels.push_back(sentence[static_cast<size_t>(p)]);
    Tensor loss = SoftmaxCrossEntropy(logits, labels);
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.ClipGradNorm(5.0f);
    optimizer.Step();
    running_loss += loss.item();
    ++counted;
  }
  return counted > 0 ? running_loss / static_cast<float>(counted) : 0.0f;
}

Tensor MiniLm::PairLogits(const std::vector<int>& ids,
                          const std::vector<int>& segments, bool training,
                          Rng& rng) const {
  Tensor encoded = EncodePair(ids, segments, training, rng);
  return pair_head_->Forward(SliceRows(encoded, 0, 1));
}

float MiniLm::PretrainPaired(const std::vector<std::vector<int>>& corpus,
                             int steps, float lr, Rng& rng) {
  if (corpus.size() < 2 || steps <= 0) return 0.0f;
  std::vector<Tensor> params;
  AppendParameters(&params, token_table_->Parameters());
  AppendParameters(&params, segment_table_->Parameters());
  AppendParameters(&params, encoder_->Parameters());
  AppendParameters(&params, pair_head_->Parameters());
  Adam optimizer(params, lr);

  // A corrupted view of a sentence: token drops, adjacent swaps, and a
  // few token substitutions — mimicking the full view noise (drops,
  // reorder, typos, synonyms) between two data sources. Positives in
  // this objective tolerate light substitution, so the learned boundary
  // is "how much differs", not "anything differs".
  const size_t corpus_size = corpus.size();
  auto corrupt = [&rng, &corpus, corpus_size](
                     const std::vector<int>& sentence, float substitution) {
    std::vector<int> view;
    view.reserve(sentence.size());
    for (int id : sentence) {
      if (rng.NextBool(0.15f) && sentence.size() > 1) continue;
      if (rng.NextBool(substitution)) {
        const std::vector<int>& donor = corpus[rng.NextUint64(corpus_size)];
        view.push_back(donor[rng.NextUint64(donor.size())]);
        continue;
      }
      view.push_back(id);
    }
    if (view.empty()) view.push_back(sentence.front());
    for (size_t s = 0; s + 1 < view.size(); ++s) {
      if (rng.NextBool(0.1f)) std::swap(view[s], view[s + 1]);
    }
    return view;
  };

  float running_loss = 0.0f;
  int counted = 0;
  for (int step = 0; step < steps; ++step) {
    const size_t i = rng.NextUint64(corpus.size());
    const bool same = rng.NextBool(0.5f);
    std::vector<int> second;
    if (same) {
      second = corrupt(corpus[i], /*substitution=*/0.08f);
    } else if (rng.NextBool(0.5f)) {
      // Hard negative: a near-copy with ~35% of tokens substituted from
      // another sentence — teaches that sequences sharing most tokens
      // but differing in a few discriminative ones are NOT the same
      // (the Figure 1 phenomenon, learned without labels).
      size_t j = rng.NextUint64(corpus.size());
      if (j == i) j = (j + 1) % corpus.size();
      const std::vector<int>& donor = corpus[j];
      second = corrupt(corpus[i], 0.0f);
      bool mutated = false;
      for (int& id : second) {
        if (rng.NextBool(0.35f)) {
          id = donor[rng.NextUint64(donor.size())];
          mutated = true;
        }
      }
      if (!mutated && !second.empty()) {
        second[rng.NextUint64(second.size())] =
            donor[rng.NextUint64(donor.size())];
      }
    } else {
      // Easy negative: a different sentence.
      size_t j = rng.NextUint64(corpus.size());
      if (j == i) j = (j + 1) % corpus.size();
      second = corrupt(corpus[j], 0.08f);
    }
    std::vector<int> ids = {Vocabulary::kCls};
    for (int id : corrupt(corpus[i], /*substitution=*/0.08f)) ids.push_back(id);
    ids.push_back(Vocabulary::kSep);
    std::vector<int> segments(ids.size(), 0);
    for (int id : second) {
      ids.push_back(id);
      segments.push_back(1);
    }
    ids.push_back(Vocabulary::kSep);
    segments.push_back(1);

    Tensor encoded = EncodePair(ids, segments, /*training=*/true, rng);
    Tensor logits = pair_head_->Forward(SliceRows(encoded, 0, 1));
    Tensor loss = SoftmaxCrossEntropy(logits, {same ? 1 : 0});
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.ClipGradNorm(5.0f);
    optimizer.Step();
    running_loss += loss.item();
    ++counted;
  }
  return counted > 0 ? running_loss / static_cast<float>(counted) : 0.0f;
}

}  // namespace hiergat
