#ifndef HIERGAT_ER_HIERGAT_PLUS_H_
#define HIERGAT_ER_HIERGAT_PLUS_H_

#include <memory>
#include <string>
#include <vector>

#include "er/aggregation.h"
#include "er/compiled_scoring.h"
#include "er/comparison.h"
#include "er/contextual.h"
#include "er/hiergat.h"
#include "er/lm_backbone.h"
#include "er/summary_cache.h"
#include "er/trainer.h"
#include "nn/mlp.h"

namespace hiergat {

/// Hyper-parameters of the collective HierGAT+ model. As with
/// HierGatConfig, the run seed lives in TrainOptions, not here.
struct HierGatPlusConfig {
  LmSize lm_size = LmSize::kMedium;
  ContextualConfig context;  ///< Entity-level context ON by default here.
  ViewCombination combination = ViewCombination::kWeightAverage;
  /// Table 11 ablations: Non-Align drops the entity alignment layer;
  /// Non-Sum drops the entity summarization context (falls back to view
  /// averaging without the v_lr^e conditioning).
  bool use_alignment = true;
  bool use_entity_summarization = true;
  float dropout = 0.1f;
  int classifier_hidden = 32;
  int lm_pretrain_steps = 100;

  HierGatPlusConfig() { context.use_entity_context = true; }
};

/// HierGAT+ — the collective extension (§5.2.3): one HHG holds the
/// query and all its candidates; entity-level context removes redundant
/// common-token information; the entity alignment layer (Eq. 5)
/// sharpens candidate embeddings against each other before comparison.
class HierGatPlusModel : public NeuralCollectiveModel {
 public:
  explicit HierGatPlusModel(
      const HierGatPlusConfig& config = HierGatPlusConfig());
  ~HierGatPlusModel() override;

  std::string name() const override { return "HierGAT+"; }

  void Train(const CollectiveDataset& data,
             const TrainOptions& options) override;

  /// See HierGatModel::InvalidateInferenceCache.
  void InvalidateInferenceCache() const override;

  /// See HierGatModel::Save / Load: full checkpoint round-trip (config
  /// + vocabulary + weights), including the alignment layer.
  Status Save(const std::string& path) const override;
  Status Save(const std::string& path, DType dtype) const;
  Status Load(const std::string& path) override;

  /// See HierGatModel::QuantizeWeights.
  Status QuantizeWeights() override;

  /// Inference-time entity-summary cache (hit/miss/eviction stats; also
  /// aggregated into the `hiergat.cache.*` metrics).
  const SummaryCache& summary_cache() const { return summary_cache_; }

  /// See HierGatModel::CompileScoringGraph. The collective compare
  /// graph takes the aligned entity embeddings as inputs and returns
  /// raw logits (PredictQuery softmaxes over the candidate rows).
  Status CompileScoringGraph(const std::vector<int>& attribute_lengths);
  void set_graph_compile_enabled(bool enabled) {
    graph_compile_enabled_ = enabled;
  }
  CompiledScoring::Stats compiled_stats() const;

 protected:
  Tensor ForwardQueryLogits(const CollectiveQuery& query, bool training,
                            Rng& rng) const override;
  std::vector<Tensor> TrainableParameters() const override;
  std::vector<float> ParameterLrMultipliers() const override;

 private:
  void Build(const CollectiveDataset& data, uint64_t seed);

  /// See HierGatModel::BuildModules / RegisterCheckpointParameters.
  void BuildModules(uint64_t seed);
  void RegisterCheckpointParameters(NamedParameters* out) const;

  HierGatPlusConfig config_;
  LmBackbone backbone_;
  std::unique_ptr<ContextualEmbedder> contextual_;
  std::unique_ptr<HierarchicalAggregator> aggregator_;
  std::unique_ptr<HierarchicalComparator> comparator_;
  std::unique_ptr<EntityAligner> aligner_;
  std::unique_ptr<Mlp> classifier_;
  int num_attributes_ = 0;
  bool built_ = false;
  bool graph_compile_enabled_ = true;
  mutable SummaryCache summary_cache_;
  /// See HierGatModel::compiled_ for the rebuild/staleness contract.
  mutable std::unique_ptr<CompiledScoring> compiled_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_HIERGAT_PLUS_H_
