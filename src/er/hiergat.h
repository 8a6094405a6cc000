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

/// Hyper-parameters of the collective HierGAT+ model: HierGAT's, with
/// entity-level context on, a shorter backbone pre-training, and the
/// two Table 11 ablation switches.
struct HierGatPlusConfig : HierGatConfig {
  /// Non-Align drops the entity alignment layer; Non-Sum drops the
  /// entity summarization context (falls back to view averaging without
  /// the v_lr^e conditioning).
  bool use_alignment = true;
  bool use_entity_summarization = true;

  HierGatPlusConfig() {
    context.use_entity_context = true;
    lm_pretrain_steps = 100;
  }
};

namespace internal_hiergat {

/// The module stack HierGAT and HierGAT+ share (§5.2.3: HierGAT+ is
/// HierGAT plus entity-level context and the entity alignment layer of
/// Eq. 5). It owns the modules, the family's checkpoint layout (tag,
/// meta keys in order, parameter names) and Load's dimension checks,
/// the inference caches and the trainer hooks; each model holds one and
/// keeps only its forward passes.
struct HierGatStack {
  /// `collective` selects HierGAT+: its checkpoint tag, init-seed salt,
  /// alignment layer and the two ablation flags in the checkpoint meta.
  /// The pairwise model uses only the HierGatConfig part of `config`.
  HierGatStack(bool is_collective, const HierGatPlusConfig& initial);

  /// Installs a freshly made backbone and initializes the fine-tuning
  /// modules over `attributes` aligned attributes (K) from `seed`.
  void Build(LmBackbone new_backbone, int attributes, uint64_t seed);

  /// Checkpointing: Save writes config + vocabulary + trained weights
  /// to a versioned binary file (format: src/core/serialize.h); Load
  /// reconstructs the stack from such a file, rejecting any meta
  /// dimension that does not fit an int or disagrees with the stored
  /// tensor shapes before a module is allocated.
  Status Save(const std::string& path, DType dtype) const;
  Status Load(const std::string& path);
  void InvalidateInferenceCache() const;

  /// OK when `entity` has the K attributes every module was sized for;
  /// InvalidArgument otherwise (the forward pass would fail a shape
  /// check on it).
  Status CheckSchema(const Entity& entity) const;

  /// The three steps of the forward pass both models run, each over a
  /// whole batch (DESIGN.md §11): every pair of a ScoreBatch, or every
  /// entity of a HierGAT+ query. On the pure inference path (not
  /// training, grad mode off, compilation on, no capture in flight) a
  /// step gathers all of its MiniLM sequences into packed-encoder
  /// replays; otherwise, or when capture failed, it runs the eager
  /// modules item by item in order, which the replays match bit for bit.
  ///
  /// WpC matrix of each HHG (ContextualEmbedder::Compute). At inference
  /// the token-level encodes of the whole batch go through one
  /// ContextualEmbedder::TokenEncodes call, compiled or not.
  std::vector<Tensor> Contextualize(std::span<const Hhg> hhgs, bool training,
                                    Rng& rng, SummaryCache* cache) const;

  /// Explanation sink of one forward (HierGatModel::InspectAttention).
  /// A step given one takes its eager branch, which the replays match bit
  /// for bit, so an explained score is the served score. Contextualize
  /// fills nothing in it and takes no sink.
  struct Explanation {
    /// Per SummaryJob: the [CLS] attention over the job's tokens in the
    /// summarizer's last encoder layer (paper Figure 9).
    std::vector<std::vector<float>> token_attention;
    /// Per CompareJob: the Eq. 4 attribute weights h_k; empty unless the
    /// comparator combines views by weight averaging.
    std::vector<std::vector<float>> attribute_weights;
  };

  /// One attribute summarization: the WpC rows `token_seq` names.
  struct SummaryJob {
    const Tensor* wpc = nullptr;
    const std::vector<int>* token_seq = nullptr;
  };
  /// [1, F] summary per job. Packed summaries count in
  /// `hiergat.compiled.summarize_replays`.
  std::vector<Tensor> SummarizeAttributes(std::span<const SummaryJob> jobs,
                                          bool training, Rng& rng,
                                          Explanation* sink = nullptr) const;

  /// One pair comparison: K `left` / `right` attribute summaries and the
  /// two [1, K*F] entity embeddings.
  struct CompareJob {
    std::span<const Tensor> left;
    std::span<const Tensor> right;
    Tensor left_entity;
    Tensor right_entity;
  };
  /// Compare and classify: [1, 2] logits per job. Inference calls count
  /// in `hiergat.score.{compiled,eager}_pairs`.
  std::vector<Tensor> CompareLogits(std::span<const CompareJob> jobs,
                                    bool training, Rng& rng,
                                    Explanation* sink = nullptr) const;

  CompiledScoring::Stats compiled_stats() const;
  std::vector<Tensor> TrainableParameters() const;
  std::vector<float> ParameterLrMultipliers() const;

  const bool collective;
  HierGatPlusConfig config;
  LmBackbone backbone;
  std::unique_ptr<ContextualEmbedder> contextual;
  std::unique_ptr<HierarchicalAggregator> aggregator;
  std::unique_ptr<HierarchicalComparator> comparator;
  std::unique_ptr<EntityAligner> aligner;  ///< HierGAT+ only.
  std::unique_ptr<Mlp> classifier;
  int num_attributes = 0;
  bool built = false;
  bool graph_compile_enabled = true;
  mutable SummaryCache summary_cache;
  /// Rebuilt with the modules (so Load can't replay stale weights: the
  /// graphs compile lazily, after ReadAll has overwritten parameters).
  mutable std::unique_ptr<CompiledScoring> compiled;

 private:
  /// The checkpoint's model tag.
  const char* tag() const { return collective ? "HierGAT+" : "HierGAT"; }

  /// True on the pure inference path, where the compiled graphs replay.
  bool UseCompiled(bool training) const;

  /// Contextual token encodes of vocabulary-id sequences at inference
  /// (the ContextualEmbedder::BatchEncoder of Contextualize): packed
  /// replays when UseCompiled, else, and for any sequence a replay
  /// cannot hold, the eager encode of the looked-up rows.
  std::vector<Tensor> EncodeTokens(const std::vector<std::vector<int>>& ids,
                                   Rng& rng) const;

  /// Constructs the fine-tuning modules over the current backbone
  /// (shared by Build and Load; Load overwrites the weights after).
  void BuildModules(uint64_t seed);

  /// Stable dotted-name registration of every checkpointed tensor; the
  /// same registration drives Save, Load and TrainableParameters.
  void RegisterCheckpointParameters(NamedParameters* out) const;
};

}  // namespace internal_hiergat

/// The pairwise Hierarchical Graph Attention Transformer matcher.
///
/// Pipeline per candidate pair (Figure 6): HHG construction ->
/// contextual (WpC) embeddings -> hierarchical aggregation (attribute +
/// entity summarization) -> hierarchical comparison (attribute
/// comparison + multi-view entity comparison) -> binary classifier.
class HierGatModel : public NeuralPairwiseModel {
 public:
  explicit HierGatModel(const HierGatConfig& config = HierGatConfig());

  std::string name() const override { return "HierGAT"; }

  /// Builds the LM backbone from the dataset corpus, then fine-tunes the
  /// whole stack end-to-end.
  void Train(const PairDataset& data, const TrainOptions& options) override;

  /// InvalidArgument unless both entities have the K attributes the
  /// model was trained on.
  Status ValidatePair(const EntityPair& pair) const override;

  /// Drops the memoized attribute summaries and compiled graphs (stale
  /// once parameters move; the trainer calls this around validation
  /// passes).
  void InvalidateInferenceCache() const override {
    stack_.InvalidateInferenceCache();
  }

  /// Scores the whole batch through the stack's batched steps: one
  /// packed replay per step instead of one replay per value.
  std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const override;

  /// Checkpoint round-trip (see internal_hiergat::HierGatStack). The
  /// dtype overload picks the stored precision (kF16 halves golden-
  /// fixture size; kF32 is lossless).
  Status Save(const std::string& path) const override {
    return stack_.Save(path, DType::kF32);
  }
  Status Save(const std::string& path, DType dtype) const {
    return stack_.Save(path, dtype);
  }
  Status Load(const std::string& path) override { return stack_.Load(path); }

  /// Toggles the inference-time summary cache (on by default; useful
  /// for benchmarking the uncached path).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  const SummaryCache& summary_cache() const { return stack_.summary_cache; }

  /// Compiled-graph scoring (DESIGN.md §11). Inference replays through
  /// the packed encoder graphs (compiled lazily per row-capacity bucket)
  /// and the compare head graph. Capture failures fall back to the eager
  /// path, which stays bit-identical.
  void set_graph_compile_enabled(bool enabled) {
    stack_.graph_compile_enabled = enabled;
  }
  /// Planner footprint of the compiled graphs (zero before any
  /// compilation); exposed for benches and tests.
  CompiledScoring::Stats compiled_stats() const {
    return stack_.compiled_stats();
  }

  /// Attention introspection for Figure 9: token weights within each
  /// attribute (from the attribute-summarization [CLS] attention) and
  /// the attribute weights h_k (Eq. 4). The report comes out of the
  /// scoring forward itself, so `match_probability` is bit-equal to
  /// ScoreBatch's score for the pair; safe to call from any thread.
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
  /// InvalidArgument (ValidatePair) unless both entities have the K
  /// attributes the model was trained on.
  StatusOr<AttentionReport> InspectAttention(const EntityPair& pair) const;

  const HierGatConfig& config() const { return stack_.config; }

 protected:
  Tensor ForwardLogits(const EntityPair& pair, bool training,
                       Rng& rng) const override;
  std::vector<Tensor> TrainableParameters() const override {
    return stack_.TrainableParameters();
  }
  std::vector<float> ParameterLrMultipliers() const override {
    return stack_.ParameterLrMultipliers();
  }

 private:
  /// [1, 2] logits per pair; ForwardLogits is a batch of one. With
  /// `report` (a batch of one pair), the forward also fills everything
  /// in it but `match_probability`.
  std::vector<Tensor> ForwardBatch(std::span<const EntityPair> pairs,
                                   bool training, Rng& rng,
                                   AttentionReport* report = nullptr) const;

  internal_hiergat::HierGatStack stack_;
  bool cache_enabled_ = true;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_HIERGAT_H_
