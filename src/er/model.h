#ifndef HIERGAT_ER_MODEL_H_
#define HIERGAT_ER_MODEL_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "er/metrics.h"

namespace hiergat {

/// Training hyper-parameters shared by all learned matchers. The paper
/// uses lr 1e-5 / 10 epochs / batch 16 for the large HuggingFace LMs;
/// our MiniLM-scale engine trains with a proportionally larger lr.
struct TrainOptions {
  int epochs = 10;
  float lr = 2e-3f;
  int batch_size = 16;
  float grad_clip = 5.0f;
  /// The single source of randomness for a training run: backbone
  /// initialization and pre-training, head initialization, shuffling,
  /// dropout, and augmentation are all derived from this seed (model
  /// configs no longer carry their own; see HierGatConfig).
  uint64_t seed = 42;
  bool verbose = false;
  /// If > 0, subsample the training split to this many pairs/queries
  /// (used by the label-efficiency experiments and bench scaling).
  int max_train_items = 0;
  /// Select the best epoch by validation F1 and restore those weights
  /// (§6.1: "each epoch is verified by the validation set").
  bool select_best_on_validation = true;
};

/// A pairwise ER matcher (§2.1): judges candidate pairs independently.
///
/// Inference API: `ScoreBatch` is the primary entry point — blockers
/// emit candidate *batches*, and the batch form is what lets a matcher
/// amortize per-entity work (see HierGatModel's summary cache) and the
/// InferenceEngine spread ranges across its thread pool's lanes. Scoring is
/// const: inference never mutates the model, so concurrent ScoreBatch
/// calls on one trained model are safe. A one-off pair is a batch of
/// one: `ScoreBatch({&pair, 1})`.
class PairwiseModel {
 public:
  virtual ~PairwiseModel() = default;

  virtual std::string name() const = 0;

  /// Fits the matcher on `data.train`, using `data.valid` for model
  /// selection.
  virtual void Train(const PairDataset& data, const TrainOptions& options) = 0;

  /// P(match) for each pair, in order. The default implementation loops
  /// over `ScorePair` with autograd disabled under one request trace
  /// context; models may override it to share work across the batch.
  /// Must be deterministic and independent of how a larger batch was
  /// split (the InferenceEngine relies on this for thread-count-
  /// invariant results).
  virtual std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const;

  /// P/R/F1 over a pair list (routed through ScoreBatch).
  EvalResult Evaluate(std::span<const EntityPair> pairs) const;

  /// OK when the model can score `pair`; InvalidArgument naming the
  /// problem otherwise (HierGAT: an entity whose attribute count is not
  /// the trained schema's, which scoring treats as a fatal check).
  /// Serving checks every pair before admitting it. Models that score
  /// any pair keep this default.
  virtual Status ValidatePair(const EntityPair& pair) const {
    (void)pair;
    return Status::Ok();
  }

  /// Drops memoized inference state (entity-summary caches). Called by
  /// the trainer whenever parameters are about to change under a
  /// previously scored model; a no-op for models without caches.
  virtual void InvalidateInferenceCache() const {}

  /// Serializes the trained model (config + weights) to a versioned
  /// binary checkpoint at `path`, and restores it for load-and-serve
  /// inference without retraining (see src/core/serialize.h and
  /// SessionOptions::checkpoint_path). Models without checkpoint
  /// support keep these defaults, which report FailedPrecondition.
  virtual Status Save(const std::string& path) const {
    (void)path;
    return Status::FailedPrecondition(name() +
                                      " does not support checkpointing");
  }
  virtual Status Load(const std::string& path) {
    (void)path;
    return Status::FailedPrecondition(name() +
                                      " does not support checkpointing");
  }

 protected:
  /// Single-pair hook used by the default ScoreBatch loop.
  virtual float ScorePair(const EntityPair& pair) const = 0;
};

/// A collective ER matcher (§2.1, Figure 2): decides a query's N
/// candidates jointly.
class CollectiveModel {
 public:
  virtual ~CollectiveModel() = default;

  virtual std::string name() const = 0;

  virtual void Train(const CollectiveDataset& data,
                     const TrainOptions& options) = 0;

  /// P(match) for each candidate of `query` (size = #candidates). The
  /// query's candidate set *is* the batch in collective ER; inference
  /// is const and thread-safe per the same contract as ScoreBatch.
  virtual std::vector<float> PredictQuery(
      const CollectiveQuery& query) const = 0;

  /// P/R/F1 over all candidates of all queries.
  EvalResult Evaluate(std::span<const CollectiveQuery> queries) const;

  /// See PairwiseModel::InvalidateInferenceCache.
  virtual void InvalidateInferenceCache() const {}

  /// See PairwiseModel::Save / Load.
  virtual Status Save(const std::string& path) const {
    (void)path;
    return Status::FailedPrecondition(name() +
                                      " does not support checkpointing");
  }
  virtual Status Load(const std::string& path) {
    (void)path;
    return Status::FailedPrecondition(name() +
                                      " does not support checkpointing");
  }
};

/// Runs a pairwise matcher on collective data by scoring each
/// (query, candidate) pair independently — how MG/DM/Ditto/HierGAT
/// appear in Table 7. PredictQuery routes the candidate set through the
/// pairwise batch path.
class PairwiseAsCollective : public CollectiveModel {
 public:
  explicit PairwiseAsCollective(PairwiseModel* pairwise)
      : pairwise_(pairwise) {}

  std::string name() const override { return pairwise_->name(); }
  void Train(const CollectiveDataset& data,
             const TrainOptions& options) override;
  std::vector<float> PredictQuery(const CollectiveQuery& query) const override;
  void InvalidateInferenceCache() const override {
    pairwise_->InvalidateInferenceCache();
  }

 private:
  PairwiseModel* pairwise_;  // Not owned.
};

/// Flattens a collective dataset into independent labeled pairs.
PairDataset FlattenCollective(const CollectiveDataset& data);

}  // namespace hiergat

#endif  // HIERGAT_ER_MODEL_H_
