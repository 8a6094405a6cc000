#include "er/comparison.h"

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hiergat {

const char* ViewCombinationName(ViewCombination combination) {
  switch (combination) {
    case ViewCombination::kViewAverage:
      return "View Average";
    case ViewCombination::kSharedSpace:
      return "Shared Space Learn";
    case ViewCombination::kWeightAverage:
      return "Weight Average";
  }
  return "?";
}

HierarchicalComparator::HierarchicalComparator(const MiniLm* lm,
                                               int num_attributes,
                                               ViewCombination combination,
                                               Rng& rng)
    : lm_(lm), num_attributes_(num_attributes), combination_(combination) {
  const int f = lm->dim();
  fuse_ = std::make_unique<Linear>(3 * f, f, rng);
  shared_space_ = std::make_unique<Linear>(f, f, rng);
  // Eq. 4 scores rows (v_lr^e || S_k^a) of width 2KF + F.
  view_attention_ = std::make_unique<GraphAttentionPool>(
      2 * num_attributes * f + f, rng, /*project=*/false);
}

Tensor HierarchicalComparator::CompareAttribute(const Tensor& left_attr,
                                                const Tensor& right_attr,
                                                bool training,
                                                Rng& rng) const {
  HG_TRACE_SPAN("HierarchicalComparator::CompareAttribute");
  static obs::Counter& comparisons = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.comparison.attribute_comparisons");
  comparisons.Increment();
  Tensor cls = lm_->Embed({Vocabulary::kCls});
  Tensor sep = lm_->Embed({Vocabulary::kSep});
  Tensor seq = ConcatRows({cls, left_attr, sep, right_attr, sep});
  seq = lm_->AddSegments(seq, {0, 0, 0, 1, 1});
  Tensor encoded = lm_->EncodeEmbedded(seq, training, rng);
  return FuseComparison(SliceRows(encoded, 0, 1), left_attr, right_attr);
}

Tensor HierarchicalComparator::FuseComparison(const Tensor& cls_out,
                                              const Tensor& left_attr,
                                              const Tensor& right_attr) const {
  // Interaction-feature fusion (MiniLM-scale adaptation; see header).
  Tensor diff = Sub(left_attr, right_attr);
  Tensor abs_diff = Add(Relu(diff), Relu(Neg(diff)));
  Tensor prod = Mul(left_attr, right_attr);
  return fuse_->Forward(ConcatCols({cls_out, abs_diff, prod}));
}

Tensor HierarchicalComparator::CombineViews(
    const std::vector<Tensor>& attribute_similarities,
    const Tensor& left_entity, const Tensor& right_entity,
    Tensor* view_weights) const {
  HG_TRACE_SPAN("HierarchicalComparator::CombineViews");
  HG_CHECK(!attribute_similarities.empty());
  Tensor views = ConcatRows(attribute_similarities);  // [K, F]
  switch (combination_) {
    case ViewCombination::kViewAverage:
      return MeanRows(views);
    case ViewCombination::kSharedSpace:
      return MeanRows(Tanh(shared_space_->Forward(views)));
    case ViewCombination::kWeightAverage: {
      // Eq. 4: h_k = softmax(LeakyReLU(c^T (v_lr^e || S_k^a))).
      Tensor context = ConcatCols({left_entity, right_entity});  // [1, 2KF]
      Tensor score_inputs =
          ConcatCols({TileRows(context, views.dim(0)), views});
      return view_attention_->Pool(score_inputs, views, view_weights);
    }
  }
  return MeanRows(views);
}

EntityAligner::EntityAligner(int entity_dim, Rng& rng)
    : entity_dim_(entity_dim) {
  pair_proj_ = std::make_unique<Linear>(2 * entity_dim, entity_dim, rng,
                                        /*use_bias=*/false);
  scorer_ = std::make_unique<Linear>(entity_dim, 1, rng, /*use_bias=*/false);
  value_proj_ = std::make_unique<Linear>(entity_dim, entity_dim, rng,
                                         /*use_bias=*/false);
}

Tensor EntityAligner::Align(
    const Tensor& entity_embeddings,
    const std::vector<std::vector<int>>& related) const {
  HG_CHECK_EQ(entity_embeddings.dim(1), entity_dim_);
  const int m = entity_embeddings.dim(0);
  HG_CHECK_EQ(static_cast<size_t>(m), related.size());
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    Tensor vi = SliceRows(entity_embeddings, i, i + 1);
    const std::vector<int>& neighbors = related[static_cast<size_t>(i)];
    if (neighbors.empty()) {
      rows.push_back(vi);
      continue;
    }
    Tensor vj = GatherRows(entity_embeddings, neighbors);  // [n, D]
    // h_j = softmax_j(LeakyReLU(c^T W (v_i || v_j)))  (Eq. 5)
    Tensor pairs = ConcatCols(
        {TileRows(vi, static_cast<int>(neighbors.size())), vj});
    Tensor scores = scorer_->Forward(LeakyRelu(pair_proj_->Forward(pairs)));
    Tensor weights = Softmax(Transpose(scores));  // [1, n]
    Tensor redundant = value_proj_->Forward(MatMul(weights, vj));
    rows.push_back(Sub(vi, redundant));  // Residual removal.
  }
  return ConcatRows(rows);
}

}  // namespace hiergat
