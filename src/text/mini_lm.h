#ifndef HIERGAT_TEXT_MINI_LM_H_
#define HIERGAT_TEXT_MINI_LM_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/transformer.h"
#include "text/hashed_embeddings.h"
#include "text/vocab.h"

namespace hiergat {

/// Size tier of the pre-trained language model. Stands in for the
/// paper's DistilBERT / RoBERTa / RoBERTa-Large choices in Tables 3/8.
enum class LmSize {
  kSmall,   ///< DistilBERT analog: narrow, 2 layers.
  kMedium,  ///< RoBERTa analog: default width, 2 layers.
  kLarge,   ///< RoBERTa-Large analog: wide, 3 layers.
};

const char* LmSizeName(LmSize size);

/// Transformer configuration for a given LM tier.
TransformerConfig LmConfigFor(LmSize size);

/// MiniLM — the offline substitute for HuggingFace pre-trained LMs.
///
/// A small transformer encoder whose token table is initialized from
/// hashed character-n-gram vectors (so unknown words are handled per
/// §4.1) and optionally pre-trained with a masked-token objective on an
/// in-domain corpus. ER models fine-tune all of its parameters through
/// the task loss, exactly like the paper fine-tunes BERT/RoBERTa.
class MiniLm : public Module {
 public:
  /// Builds the LM over `vocab` (which must outlive the model).
  MiniLm(LmSize size, const Vocabulary* vocab, uint64_t seed);

  /// Static (position-free, context-free) embeddings for token ids,
  /// shape [ids.size(), dim]. These are the "original word embeddings"
  /// V^t in §4.
  Tensor Embed(const std::vector<int>& ids) const;

  /// Contextual encoding Transformer(V^t): embeds then runs the encoder
  /// with positional encodings, shape [ids.size(), dim]. This is C^t.
  Tensor Encode(const std::vector<int>& ids, bool training, Rng& rng) const;

  /// Sentence-pair encoding with BERT-style segment (token-type)
  /// embeddings: `segments[i]` is 0 for the first sentence (and [CLS])
  /// and 1 for the second. Without this signal a pair encoder cannot
  /// tell the two sides of [SEP] apart.
  Tensor EncodePair(const std::vector<int>& ids,
                    const std::vector<int>& segments, bool training,
                    Rng& rng) const;

  /// Adds segment rows to an externally built [len, dim] embedding
  /// matrix (for pair comparison over embedded attribute vectors).
  Tensor AddSegments(const Tensor& embedded,
                     const std::vector<int>& segments) const;

  /// Runs the encoder over an externally supplied [len, dim] embedding
  /// matrix (used when WpC embeddings replace raw lookups). `attention`,
  /// when given, receives the last encoder layer's head-averaged
  /// attention [len, len] (visualization).
  Tensor EncodeEmbedded(const Tensor& embedded, bool training, Rng& rng,
                        bool add_positions = true,
                        Tensor* attention = nullptr) const;

  /// Masked-token pre-training: for `steps` random sentences from
  /// `corpus`, masks ~15% of tokens and minimizes cross-entropy of
  /// recovering them. Returns final average loss.
  float Pretrain(const std::vector<std::vector<int>>& corpus, int steps,
                 float lr, Rng& rng);

  /// Sentence-pair pre-training (the NSP-style objective that gives
  /// BERT its out-of-the-box cross-[SEP] alignment ability, which the
  /// ER fine-tuning relies on): builds [CLS] s1 [SEP] s2 [SEP] where s1
  /// and s2 are either two independently corrupted views of the same
  /// corpus sentence (label 1) or of different sentences (label 0), and
  /// trains a binary head on the [CLS] output. Fully self-supervised —
  /// only unlabeled corpus text is used. Returns final average loss.
  float PretrainPaired(const std::vector<std::vector<int>>& corpus,
                       int steps, float lr, Rng& rng);

  /// Zero-shot pair logits from the pre-trained pair head: encodes
  /// [ids, segments] and applies the same/different classifier learned
  /// during PretrainPaired. Used to probe transfer quality and to
  /// warm-start fine-tuned matchers.
  Tensor PairLogits(const std::vector<int>& ids,
                    const std::vector<int>& segments, bool training,
                    Rng& rng) const;

  /// The pair head's parameters (for warm-starting task classifiers).
  const Linear& pair_head() const { return *pair_head_; }

  /// The fine-tuned parameters: token table, segment table, encoder.
  /// The token table comes first, so it is Parameters()[0]: the ER
  /// models fine-tune it at a 0.1x rate (ParameterLrMultipliers), the
  /// analog of the paper's 1e-5 BERT rate, curbing per-word memorization
  /// of training pairs. The pre-training heads (mlm_head, pair_head) are
  /// deliberately left out: inference never touches them, and leaving
  /// them out keeps golden fixtures small.
  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("token_table", *token_table_);
    out->AddModule("segment_table", *segment_table_);
    out->AddModule("encoder", *encoder_);
  }

  /// The token and segment (token-type) tables, for callers that build
  /// encoder inputs row by row (the packed scoring path).
  const Embedding& token_table() const { return *token_table_; }
  const Embedding& segment_table() const { return *segment_table_; }

  int dim() const { return config_.dim; }
  LmSize size() const { return size_; }
  const Vocabulary& vocab() const { return *vocab_; }
  const TransformerEncoder& encoder() const { return *encoder_; }

 private:
  LmSize size_;
  TransformerConfig config_;
  const Vocabulary* vocab_;
  std::unique_ptr<Embedding> token_table_;
  std::unique_ptr<Embedding> segment_table_;  // [2, dim] token types.
  std::unique_ptr<TransformerEncoder> encoder_;
  std::unique_ptr<Linear> mlm_head_;   // dim -> vocab for pre-training
  std::unique_ptr<Linear> pair_head_;  // dim -> 2 for pair pre-training
};

}  // namespace hiergat

#endif  // HIERGAT_TEXT_MINI_LM_H_
