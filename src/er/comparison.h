#ifndef HIERGAT_ER_COMPARISON_H_
#define HIERGAT_ER_COMPARISON_H_

#include <memory>
#include <vector>

#include "er/graph_attention.h"
#include "nn/linear.h"
#include "text/mini_lm.h"

namespace hiergat {

/// The three multi-view combination strategies of §5.2.2 (Table 10).
enum class ViewCombination {
  kViewAverage,    ///< Mean of the attribute similarity embeddings.
  kSharedSpace,    ///< Map each view to a shared latent space, then mean.
  kWeightAverage,  ///< Structural attention (Eq. 4) — the HierGAT default.
};

const char* ViewCombinationName(ViewCombination combination);

/// Hierarchical comparison (§5.2): attribute comparison via the LM
/// ([CLS] a1 [SEP] a2 [SEP]) and entity comparison combining the K
/// attribute similarity views.
class HierarchicalComparator : public Module {
 public:
  /// `num_attributes` (K) fixes the entity-embedding width K*F used by
  /// the weight-averaging attention context.
  HierarchicalComparator(const MiniLm* lm, int num_attributes,
                         ViewCombination combination, Rng& rng);

  /// Attribute comparison layer (§5.2.1): S_k^a = LM([CLS], a1, [SEP],
  /// a2, [SEP]) [CLS] row. Inputs are [1, F] attribute embeddings.
  ///
  /// MiniLM-scale adaptation (see DESIGN.md): the [CLS] output is fused
  /// with the explicit interaction features |a1-a2| and a1*a2 through a
  /// learned projection. A deep pre-trained LM can infer vector
  /// (dis)agreement from the sequence alone; a 1-3 layer MiniLM cannot,
  /// so the fusion restores the signal while keeping the paper's
  /// transformer-comparison mechanism in the loop.
  Tensor CompareAttribute(const Tensor& left_attr, const Tensor& right_attr,
                          bool training, Rng& rng) const;

  /// The fusion step of CompareAttribute: the comparison's [CLS] output
  /// row with |a1-a2| and a1*a2 through the learned projection -> [1, F].
  /// Split out so the packed scoring path can encode every comparison of
  /// a batch at once and replay the rest per pair.
  Tensor FuseComparison(const Tensor& cls_out, const Tensor& left_attr,
                        const Tensor& right_attr) const;

  /// Entity comparison layer (§5.2.2): combines the K attribute
  /// similarity embeddings into the entity similarity embedding [1, F].
  /// `left_entity`/`right_entity` are the [1, K*F] entity embeddings
  /// (used only by weight averaging, Eq. 4). Under weight averaging,
  /// `view_weights`, when given, receives the attention h_k [1, K] over
  /// attributes (Figure 9's attribute-importance shading).
  Tensor CombineViews(const std::vector<Tensor>& attribute_similarities,
                      const Tensor& left_entity, const Tensor& right_entity,
                      Tensor* view_weights = nullptr) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("fuse", *fuse_);
    out->AddModule("shared_space", *shared_space_);
    out->AddModule("view_attention", *view_attention_);
  }

  ViewCombination combination() const { return combination_; }

 private:
  const MiniLm* lm_;
  int num_attributes_;
  ViewCombination combination_;
  std::unique_ptr<Linear> fuse_;                  // [CLS]||diff||prod -> F.
  std::unique_ptr<Linear> shared_space_;          // For kSharedSpace.
  std::unique_ptr<GraphAttentionPool> view_attention_;  // For Eq. 4.
};

/// Entity alignment layer (§5.2.3, Eq. 5): removes redundant token
/// information shared between a query's candidates by subtracting an
/// attention-weighted combination of related entity embeddings.
class EntityAligner : public Module {
 public:
  EntityAligner(int entity_dim, Rng& rng);

  /// `entity_embeddings` is [M, D] (query + candidates); `related[i]`
  /// lists the entities sharing common tokens with entity i (the D_i of
  /// Eq. 5). Returns the aligned [M, D] embeddings.
  Tensor Align(const Tensor& entity_embeddings,
               const std::vector<std::vector<int>>& related) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("pair_proj", *pair_proj_);
    out->AddModule("scorer", *scorer_);
    out->AddModule("value_proj", *value_proj_);
  }

 private:
  int entity_dim_;
  std::unique_ptr<Linear> pair_proj_;   // W in the score c^T W (v_i || v_j).
  std::unique_ptr<Linear> scorer_;      // c.
  std::unique_ptr<Linear> value_proj_;  // W applied to the weighted sum.
};

}  // namespace hiergat

#endif  // HIERGAT_ER_COMPARISON_H_
