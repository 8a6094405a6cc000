#include "er/contextual.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hiergat {

namespace {

/// Actual LM encodes of attribute sequences (cache misses compute,
/// cache hits skip — compare with hiergat.cache.hits).
obs::Counter& LmEncodesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.contextual.lm_encodes");
  return counter;
}

// Cache key for a token-id list: the token *strings* (ids are local to
// one HHG), '\x1f'-joined under a site prefix so the encode and pool
// entries for the same value never collide.
std::string TokenKey(const char* prefix, const Hhg& hhg,
                     const std::vector<int>& token_ids) {
  std::string key(prefix);
  for (int t : token_ids) {
    key += '\x1f';
    key += hhg.token(t);
  }
  return key;
}

}  // namespace

ContextualEmbedder::ContextualEmbedder(const MiniLm* lm,
                                       const ContextualConfig& config,
                                       Rng& rng)
    : lm_(lm), config_(config) {
  const int f = lm->dim();
  attr_attention_ = std::make_unique<GraphAttentionPool>(f, rng, true);
  common_attention_ = std::make_unique<GraphAttentionPool>(f, rng, true);
  // Eq. 3 scores rows (v^a_bar || C_j^a) of width 2F without projection.
  redundant_attention_ =
      std::make_unique<GraphAttentionPool>(2 * f, rng, /*project=*/false);
}

std::vector<std::vector<Tensor>> ContextualEmbedder::TokenEncodes(
    std::span<const Hhg> hhgs, SummaryCache* cache,
    const BatchEncoder& encode) const {
  std::vector<std::vector<Tensor>> encodes(hhgs.size());
  std::vector<std::vector<int>> ids;  // One per value to encode.
  std::vector<std::string> keys;      // Parallel to `ids` with a cache.
  std::unordered_map<std::string, size_t> pending;  // key -> index in ids
  struct Use {
    size_t hhg, attr, value;
    bool repeat;  ///< A repeat of a value that missed in this batch.
  };
  std::vector<Use> uses;
  for (size_t h = 0; h < hhgs.size(); ++h) {
    const Hhg& hhg = hhgs[h];
    encodes[h].resize(static_cast<size_t>(hhg.num_attributes()));
    for (int a = 0; a < hhg.num_attributes(); ++a) {
      const std::vector<int>& seq = hhg.attribute(a).token_seq;
      if (seq.empty()) continue;
      const size_t attr = static_cast<size_t>(a);
      if (cache != nullptr) {
        std::string key = TokenKey("ctx", hhg, seq);
        Tensor hit = cache->Find(key);
        if (hit.defined()) {
          encodes[h][attr] = std::move(hit);
          continue;
        }
        const auto [it, fresh] = pending.emplace(key, ids.size());
        if (!fresh) {
          uses.push_back({h, attr, it->second, true});
          continue;
        }
        keys.push_back(std::move(key));
      }
      uses.push_back({h, attr, ids.size(), false});
      std::vector<int>& value_ids = ids.emplace_back();
      value_ids.reserve(seq.size());
      for (int t : seq) value_ids.push_back(lm_->vocab().Id(hhg.token(t)));
    }
  }
  if (ids.empty()) return encodes;
  LmEncodesCounter().Increment(static_cast<int64_t>(ids.size()));
  std::vector<Tensor> encoded = encode(ids);
  HG_CHECK_EQ(encoded.size(), ids.size());
  if (cache != nullptr) {
    for (size_t i = 0; i < ids.size(); ++i) {
      encoded[i] = cache->Insert(keys[i], encoded[i]);
    }
  }
  for (const Use& use : uses) {
    Tensor& slot = encodes[use.hhg][use.attr];
    // Sequential scoring would find the inserted value: count the hit.
    if (use.repeat) slot = cache->Find(keys[use.value]);
    if (!slot.defined()) slot = encoded[use.value];
  }
  return encodes;
}

Tensor ContextualEmbedder::TokenLevelContext(
    const Hhg& hhg, const Tensor& base, bool training, Rng& rng,
    const std::vector<Tensor>* token_encodes) const {
  HG_TRACE_SPAN("ContextualEmbedder::TokenLevelContext");
  const int num_tokens = hhg.num_tokens();
  const int f = lm_->dim();
  // Encode every attribute sequence, then average each token's
  // contextual rows. The averaging matrix is constant data, so the
  // gradient flows through the encoded rows only.
  std::vector<Tensor> encoded_parts;
  std::vector<std::pair<int, int>> row_token;  // (flat row, token id)
  int flat_rows = 0;
  for (int a = 0; a < hhg.num_attributes(); ++a) {
    const Hhg::AttributeNode& attr = hhg.attribute(a);
    if (attr.token_seq.empty()) continue;
    if (token_encodes != nullptr) {
      encoded_parts.push_back((*token_encodes)[static_cast<size_t>(a)]);
    } else {
      LmEncodesCounter().Increment();
      encoded_parts.push_back(lm_->EncodeEmbedded(
          GatherRows(base, attr.token_seq), training, rng));
    }
    for (size_t p = 0; p < attr.token_seq.size(); ++p) {
      row_token.emplace_back(flat_rows + static_cast<int>(p),
                             attr.token_seq[p]);
    }
    flat_rows += static_cast<int>(attr.token_seq.size());
  }
  if (encoded_parts.empty()) return Tensor::Zeros({num_tokens, f});
  Tensor all_rows = ConcatRows(encoded_parts);  // [flat_rows, F]
  // Averaging matrix M [num_tokens, flat_rows]: M[t][r] = 1/count_t.
  std::vector<int> counts(static_cast<size_t>(num_tokens), 0);
  for (const auto& [row, token] : row_token) ++counts[static_cast<size_t>(token)];
  Tensor m = Tensor::Zeros({num_tokens, flat_rows});
  for (const auto& [row, token] : row_token) {
    m.set(token, row,
          1.0f / static_cast<float>(counts[static_cast<size_t>(token)]));
  }
  return MatMul(m, all_rows);  // [num_tokens, F]
}

Tensor ContextualEmbedder::Compute(
    const Hhg& hhg, bool training, Rng& rng, SummaryCache* cache,
    const std::vector<Tensor>* token_encodes) const {
  HG_TRACE_SPAN("ContextualEmbedder::Compute");
  if (training) cache = nullptr;  // Cached tensors are detached.
  const int num_tokens = hhg.num_tokens();
  const int f = lm_->dim();
  HG_CHECK_GT(num_tokens, 0);

  // V^t: static LM embeddings of the token nodes.
  std::vector<int> vocab_ids;
  vocab_ids.reserve(static_cast<size_t>(num_tokens));
  for (const std::string& token : hhg.tokens()) {
    vocab_ids.push_back(lm_->vocab().Id(token));
  }
  Tensor base = lm_->Embed(vocab_ids);  // [T, F]

  Tensor context;  // Accumulates C.
  if (config_.use_token_context) {
    context = TokenLevelContext(hhg, base, training, rng, token_encodes);
  }

  const auto& groups = hhg.key_groups();
  const int num_groups = static_cast<int>(groups.size());
  if ((config_.use_attribute_context || config_.use_entity_context) &&
      num_groups > 0) {
    // Per-attribute embeddings v_i^a (Eq. 1), then per-key sums C^a_bar.
    std::vector<Tensor> attr_embeddings(
        static_cast<size_t>(hhg.num_attributes()));
    for (int a = 0; a < hhg.num_attributes(); ++a) {
      const auto& seq = hhg.attribute(a).token_seq;
      if (seq.empty()) {
        attr_embeddings[static_cast<size_t>(a)] = Tensor::Zeros({1, f});
        continue;
      }
      // Distinct adjacent tokens of the attribute node.
      std::vector<int> distinct;
      std::unordered_set<int> seen;
      for (int t : seq) {
        if (seen.insert(t).second) distinct.push_back(t);
      }
      // Eq. 1 pools over the attribute's own distinct tokens only —
      // also pair-independent, hence cacheable by value.
      auto pool = [&]() {
        Tensor nodes = GatherRows(base, distinct);
        return attr_attention_->Pool(nodes, nodes);
      };
      attr_embeddings[static_cast<size_t>(a)] =
          cache ? cache->GetOrCompute(TokenKey("attr", hhg, distinct), pool)
                : pool();
    }
    std::vector<Tensor> unique_attr;  // C^a_bar rows, one per key group.
    unique_attr.reserve(static_cast<size_t>(num_groups));
    for (const auto& [key, attr_ids] : groups) {
      Tensor sum;
      for (int a : attr_ids) {
        const Tensor& v = attr_embeddings[static_cast<size_t>(a)];
        sum = sum.defined() ? Add(sum, v) : v;
      }
      unique_attr.push_back(sum);
    }
    Tensor unique_attr_mat = ConcatRows(unique_attr);  // [K, F]

    // Optional redundant context C^r (Eq. 2-3), one row per key group.
    Tensor group_context = config_.use_attribute_context
                               ? unique_attr_mat
                               : Tensor();
    if (config_.use_entity_context) {
      std::vector<Tensor> redundant_rows;
      redundant_rows.reserve(static_cast<size_t>(num_groups));
      for (int g = 0; g < num_groups; ++g) {
        const std::vector<int> common =
            hhg.CommonTokensForKeyGroup(g, config_.max_common_tokens);
        if (common.empty()) {
          redundant_rows.push_back(Tensor::Zeros({1, f}));
          continue;
        }
        Tensor common_nodes = GatherRows(base, common);
        Tensor cja = common_attention_->Pool(common_nodes, common_nodes);
        // Eq. 3: attention over unique attributes, scored against the
        // common-token context; applied as a negative contribution.
        Tensor score_inputs = ConcatCols(
            {unique_attr_mat, TileRows(cja, num_groups)});  // [K, 2F]
        Tensor cjr = Neg(
            redundant_attention_->Pool(score_inputs, unique_attr_mat));
        redundant_rows.push_back(cjr);
      }
      Tensor redundant_mat = ConcatRows(redundant_rows);  // [K, F]
      group_context = group_context.defined()
                          ? Add(group_context, redundant_mat)
                          : redundant_mat;
    }

    if (group_context.defined()) {
      // Phi: token t receives the mean of its key-groups' context rows.
      std::vector<std::vector<int>> token_groups(
          static_cast<size_t>(num_tokens));
      for (int g = 0; g < num_groups; ++g) {
        std::unordered_set<int> group_tokens;
        for (int a : groups[static_cast<size_t>(g)].second) {
          for (int t : hhg.attribute(a).token_seq) group_tokens.insert(t);
        }
        for (int t : group_tokens) {
          token_groups[static_cast<size_t>(t)].push_back(g);
        }
      }
      Tensor phi = Tensor::Zeros({num_tokens, num_groups});
      for (int t = 0; t < num_tokens; ++t) {
        const auto& gs = token_groups[static_cast<size_t>(t)];
        if (gs.empty()) continue;
        const float w = 1.0f / static_cast<float>(gs.size());
        for (int g : gs) phi.set(t, g, w);
      }
      Tensor mapped = MatMul(phi, group_context);  // [T, F]
      context = context.defined() ? Add(context, mapped) : mapped;
    }
  }

  if (!context.defined()) return base;  // Non-Context variant: WpC = V^t.
  context = Dropout(context, config_.dropout, rng, training);
  return Add(base, context);  // Residual: WpC = V^t + C.
}

}  // namespace hiergat
