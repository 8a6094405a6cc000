#ifndef HIERGAT_ER_HIERGAT_H_
#define HIERGAT_ER_HIERGAT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "er/aggregation.h"
#include "er/compiled_scoring.h"
#include "er/comparison.h"
#include "er/contextual.h"
#include "er/lm_backbone.h"
#include "er/summary_cache.h"
#include "er/trainer.h"
#include "nn/mlp.h"

namespace hiergat {

/// Hyper-parameters of the pairwise HierGAT model (§3-5).
///
/// Randomness is NOT configured here: TrainOptions::seed is the single
/// seed for a run and drives both the backbone pre-training and the
/// fine-tuning stack (it takes precedence over any module default).
struct HierGatConfig {
  LmSize lm_size = LmSize::kMedium;
  /// Context terms; the pairwise model leaves entity-level context off
  /// (§6.1: "in the pairwise ER problem, HierGAT does not use the
  /// entity-level context embedding and entity alignment layer").
  ContextualConfig context;
  ViewCombination combination = ViewCombination::kWeightAverage;
  float dropout = 0.1f;
  int classifier_hidden = 32;
  /// Masked-LM steps used to "pre-train" the MiniLM backbone in-domain.
  int lm_pretrain_steps = 150;
};

/// The pairwise Hierarchical Graph Attention Transformer matcher.
///
/// Pipeline per candidate pair (Figure 6): HHG construction ->
/// contextual (WpC) embeddings -> hierarchical aggregation (attribute +
/// entity summarization) -> hierarchical comparison (attribute
/// comparison + multi-view entity comparison) -> binary classifier.
class HierGatModel : public NeuralPairwiseModel {
 public:
  explicit HierGatModel(const HierGatConfig& config = HierGatConfig());
  ~HierGatModel() override;

  std::string name() const override { return "HierGAT"; }

  /// Builds the LM backbone from the dataset corpus, then fine-tunes the
  /// whole stack end-to-end.
  void Train(const PairDataset& data, const TrainOptions& options) override;

  /// Batch scoring that shares the entity-summary cache across pairs:
  /// each distinct attribute value is encoded/pooled once per batch run
  /// instead of once per pair it appears in. Bit-identical to scoring
  /// the pairs one by one.
  std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const override;

  /// Drops the memoized attribute summaries (stale once parameters
  /// move; the trainer calls this around validation passes).
  void InvalidateInferenceCache() const override;

  /// Checkpointing: Save writes config + vocabulary + trained weights
  /// to a versioned binary file (format: src/core/serialize.h); Load
  /// reconstructs the full model from such a file — no dataset and no
  /// training required. The dtype overload picks the stored precision
  /// (kF16 halves golden-fixture size; kF32 is lossless).
  Status Save(const std::string& path) const override;
  Status Save(const std::string& path, DType dtype) const;
  Status Load(const std::string& path) override;

  /// Rounds every Linear weight and embedding table through Q8_0 blocks
  /// in place (see PairwiseModel::QuantizeWeights). Inference keeps the
  /// f32 kernels on the dequantized weights and Save emits a kQ8_0
  /// checkpoint; caches and compiled graphs are invalidated.
  Status QuantizeWeights() override;

  /// Toggles the inference-time summary cache (on by default; useful
  /// for benchmarking the uncached path).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  const SummaryCache& summary_cache() const { return summary_cache_; }

  /// Compiled-graph scoring (DESIGN.md §11). ScoreBatch automatically
  /// replays through compiled summarize/compare graphs once they exist
  /// (they compile lazily on first sight of each attribute length);
  /// CompileScoringGraph forces ahead-of-time compilation for the given
  /// attribute token-sequence lengths. Odd shapes and capture failures
  /// fall back to the eager path, which stays bit-identical.
  Status CompileScoringGraph(const std::vector<int>& attribute_lengths);
  void set_graph_compile_enabled(bool enabled) {
    graph_compile_enabled_ = enabled;
  }
  /// Planner footprint of the compiled graphs (undefined before any
  /// compilation); exposed for benches and tests.
  CompiledScoring::Stats compiled_stats() const;

  /// Attention introspection for Figure 9: token weights within each
  /// attribute (from the attribute-summarization [CLS] attention) and
  /// the attribute weights h_k (Eq. 4).
  struct AttentionReport {
    struct AttributeAttention {
      std::string key;
      std::vector<std::string> tokens;
      std::vector<float> weights;
    };
    std::vector<AttributeAttention> left;
    std::vector<AttributeAttention> right;
    std::vector<float> attribute_weights;  // h_k per attribute pair.
    float match_probability = 0.0f;
  };
  AttentionReport InspectAttention(const EntityPair& pair) const;

  const HierGatConfig& config() const { return config_; }

 protected:
  Tensor ForwardLogits(const EntityPair& pair, bool training,
                       Rng& rng) const override;
  std::vector<Tensor> TrainableParameters() const override;
  std::vector<float> ParameterLrMultipliers() const override;

 private:
  /// Lazily constructs backbone + modules once the schema (K) is known.
  /// `seed` comes from TrainOptions (see HierGatConfig).
  void Build(const PairDataset& data, uint64_t seed);

  /// Constructs the fine-tuning modules over an existing backbone
  /// (shared by Build and Load; Load overwrites the weights after).
  void BuildModules(uint64_t seed);

  /// Stable dotted-name registration of every checkpointed tensor; the
  /// same registration drives Save and Load.
  void RegisterCheckpointParameters(NamedParameters* out) const;

  /// Shared forward: attribute embeddings, entity embeddings, similarity.
  Tensor ForwardSimilarity(const EntityPair& pair, bool training,
                           Rng& rng) const;

  /// ForwardSimilarity once the HHG and WpC matrix exist (shared with
  /// the compiled path's eager fallback).
  Tensor SimilarityFromWpc(const Hhg& hhg, const Tensor& wpc, bool training,
                           Rng& rng) const;

  /// Scores one pair through the compiled summarize/compare graphs.
  /// Returns false (leaving `probability` untouched) whenever replay is
  /// unavailable — compilation disabled/failed, schema mismatch — and
  /// the caller runs the eager path instead.
  bool TryScorePairCompiled(const Hhg& hhg, const Tensor& wpc,
                            float* probability) const;

  HierGatConfig config_;
  LmBackbone backbone_;
  std::unique_ptr<ContextualEmbedder> contextual_;
  std::unique_ptr<HierarchicalAggregator> aggregator_;
  std::unique_ptr<HierarchicalComparator> comparator_;
  std::unique_ptr<Mlp> classifier_;
  int num_attributes_ = 0;
  bool built_ = false;
  bool cache_enabled_ = true;
  bool graph_compile_enabled_ = true;
  mutable SummaryCache summary_cache_;
  /// Rebuilt by BuildModules (so Load can't replay stale weights: the
  /// graphs compile lazily, after ReadAll has overwritten parameters).
  mutable std::unique_ptr<CompiledScoring> compiled_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_HIERGAT_H_
