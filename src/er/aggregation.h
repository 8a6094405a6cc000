#ifndef HIERGAT_ER_AGGREGATION_H_
#define HIERGAT_ER_AGGREGATION_H_

#include <memory>
#include <vector>

#include "graph/hhg.h"
#include "text/mini_lm.h"

namespace hiergat {

/// Hierarchical aggregation (§5.1, Algorithm 1): attribute summarization
/// with the LM's self-attention and entity summarization by
/// concatenation. It owns no parameters: the summarization transformer
/// is the LM encoder, which the backbone trains and checkpoints.
class HierarchicalAggregator {
 public:
  HierarchicalAggregator(const MiniLm* lm, float dropout, Rng& rng);

  /// Attribute summarization (§5.1.1): encodes [CLS] token_1 ... token_n
  /// (rows taken from the WpC matrix) and returns the [CLS] output row
  /// as the attribute embedding [1, F]. `token_attention`, when given,
  /// receives how much [CLS] attends to each token in the last encoder
  /// layer (length = token_seq size; Figure 9 visualization).
  Tensor SummarizeAttribute(
      const Tensor& wpc, const std::vector<int>& token_seq, bool training,
      Rng& rng, std::vector<float>* token_attention = nullptr) const;

  /// Entity summarization (§5.1.2): concatenates the entity's attribute
  /// embeddings -> [1, K * F].
  Tensor SummarizeEntity(
      const std::vector<Tensor>& attribute_embeddings) const;

 private:
  const MiniLm* lm_;
  float dropout_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_AGGREGATION_H_
