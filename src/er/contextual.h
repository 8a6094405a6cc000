#ifndef HIERGAT_ER_CONTEXTUAL_H_
#define HIERGAT_ER_CONTEXTUAL_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "er/graph_attention.h"
#include "er/summary_cache.h"
#include "graph/hhg.h"
#include "text/mini_lm.h"

namespace hiergat {

/// Which context terms of §4.2 to include (Table 9's ablation knobs).
struct ContextualConfig {
  bool use_token_context = true;      ///< C^t  (Transformer over V^t).
  bool use_attribute_context = true;  ///< C^a  (graph attention, Eq. 1).
  bool use_entity_context = false;    ///< C^r  (redundant removal, Eq. 2-3).
  int max_common_tokens = 10;         ///< §6.3 fixes 10 common words.
  float dropout = 0.1f;
};

/// Computes word+context (WpC) embeddings over an HHG (§4, Figure 7):
///
///   C   = C^t + Phi(C^a + C^r)
///   WpC = V^t + C
///
/// where V^t are the LM's static token embeddings, C^t the LM's
/// contextual encodings (token-level context), C^a the attribute-level
/// context from graph attention over token-attribute edges, C^r the
/// negative redundant context from common tokens shared across entities,
/// and Phi maps attribute-level vectors back onto their tokens.
/// Bi-directional propagation (§4.2 "training strategy") holds by
/// construction: gradients flow bottom-up through the aggregations and
/// the resulting updates adjust the shared token table top-down.
class ContextualEmbedder : public Module {
 public:
  ContextualEmbedder(const MiniLm* lm, const ContextualConfig& config,
                     Rng& rng);

  /// WpC embeddings for every token node of `hhg`: [num_tokens, F].
  ///
  /// `cache`, if non-null at inference, memoizes the Eq. 1 attribute
  /// pooling, which depends only on one attribute's own tokens, keyed by
  /// the token strings. The cross-entity terms (key-group sums,
  /// common-token context) are always recomputed, which keeps cached and
  /// uncached passes bit-identical. Ignored when training.
  ///
  /// `token_encodes`, if non-null, supplies the token-level encode of
  /// every attribute (TokenEncodes, which memoizes them in the same
  /// cache), and Compute does not run them. Null runs each encode.
  Tensor Compute(const Hhg& hhg, bool training, Rng& rng,
                 SummaryCache* cache = nullptr,
                 const std::vector<Tensor>* token_encodes = nullptr) const;

  /// Encodes vocabulary-id sequences to their [len, F] contextual rows,
  /// in order, with the bits of the LM's EncodeEmbedded over each.
  using BatchEncoder = std::function<std::vector<Tensor>(
      const std::vector<std::vector<int>>& ids)>;

  /// The token-level encodes Compute runs for each of `hhgs`, per
  /// attribute id (undefined for an empty value), for inference over a
  /// batch: every value `cache` does not hold goes to one `encode` call,
  /// once per distinct value when there is a cache. Each value counts
  /// in `hiergat.contextual.lm_encodes` and in the cache's hits and
  /// misses as Compute would count it, one HHG after another: a repeat of
  /// a value that missed earlier in the batch is a hit.
  std::vector<std::vector<Tensor>> TokenEncodes(
      std::span<const Hhg> hhgs, SummaryCache* cache,
      const BatchEncoder& encode) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("attr_attention", *attr_attention_);
    out->AddModule("common_attention", *common_attention_);
    out->AddModule("redundant_attention", *redundant_attention_);
  }

  const ContextualConfig& config() const { return config_; }

 private:
  /// C^t: encodes each attribute's token sequence with the LM encoder
  /// (or takes it from `token_encodes`) and averages per unique token.
  Tensor TokenLevelContext(const Hhg& hhg, const Tensor& base,
                           bool training, Rng& rng,
                           const std::vector<Tensor>* token_encodes) const;

  const MiniLm* lm_;
  ContextualConfig config_;
  /// Eq. 1 attention (c^t, W^t) for attribute-level context.
  std::unique_ptr<GraphAttentionPool> attr_attention_;
  /// Eq. 2 attention (c^a, W^a) over common tokens.
  std::unique_ptr<GraphAttentionPool> common_attention_;
  /// Eq. 3 attention (c') over unique attributes with common context.
  std::unique_ptr<GraphAttentionPool> redundant_attention_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_CONTEXTUAL_H_
