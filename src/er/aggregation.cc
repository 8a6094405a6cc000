#include "er/aggregation.h"

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hiergat {

HierarchicalAggregator::HierarchicalAggregator(const MiniLm* lm,
                                               float dropout, Rng& rng)
    : lm_(lm), dropout_(dropout) {
  (void)rng;  // No private parameters: the summarizer is the (fine-tuned) LM.
}

Tensor HierarchicalAggregator::SummarizeAttribute(
    const Tensor& wpc, const std::vector<int>& token_seq, bool training,
    Rng& rng, std::vector<float>* token_attention) const {
  HG_TRACE_SPAN("HierarchicalAggregator::SummarizeAttribute");
  static obs::Counter& summaries = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.aggregation.attribute_summaries");
  summaries.Increment();
  Tensor gathered =
      token_seq.empty() ? Tensor() : GatherRows(wpc, token_seq);
  Tensor cls = lm_->Embed({Vocabulary::kCls});  // [1, F]
  Tensor seq = gathered.defined() ? ConcatRows({cls, gathered}) : cls;
  seq = Dropout(seq, dropout_, rng, training);
  Tensor attn;  // [L, L], filled only when asked for.
  Tensor summary = SliceRows(
      lm_->EncodeEmbedded(seq, training, rng, /*add_positions=*/true,
                          token_attention != nullptr ? &attn : nullptr),
      0, 1);
  if (token_attention != nullptr) {
    token_attention->clear();
    for (int j = 1; j < attn.dim(1); ++j) {
      token_attention->push_back(attn.at(0, j));
    }
  }
  return summary;
}

Tensor HierarchicalAggregator::SummarizeEntity(
    const std::vector<Tensor>& attribute_embeddings) const {
  HG_CHECK(!attribute_embeddings.empty());
  return ConcatCols(attribute_embeddings);
}

}  // namespace hiergat
