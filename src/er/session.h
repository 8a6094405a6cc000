#ifndef HIERGAT_ER_SESSION_H_
#define HIERGAT_ER_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "er/engine.h"
#include "er/metrics.h"
#include "er/model.h"
#include "text/mini_lm.h"

namespace hiergat {

/// Everything needed to stand up a ready-to-serve matcher, in one
/// struct. Session::Open is the only way to construct a model by name
/// or restore one from a checkpoint.
struct SessionOptions {
  /// Matcher name for a fresh model (case-insensitive). Pairwise:
  /// "hiergat", "ditto", "deepmatcher" (alias "dm"), "dm+" (alias
  /// "dmplus"), "magellan". Collective: "hiergat+" (alias
  /// "hiergatplus"), "gcn", "gat", "hgat". Ignored when
  /// `checkpoint_path` is set: the checkpoint's embedded tag picks the
  /// model type.
  std::string matcher = "hiergat";
  /// Collective (query + candidate set) vs pairwise matching.
  bool collective = false;
  /// When non-empty, Open restores a trained model from this
  /// checkpoint instead of constructing an untrained one.
  std::string checkpoint_path;
  /// Backbone size for fresh LM-backed matchers (HierGAT, Ditto,
  /// HierGAT+); the config of a checkpoint travels with its weights.
  LmSize lm_size = LmSize::kMedium;
  /// Masked-LM pre-training steps for fresh LM-backed matchers;
  /// negative keeps each model's own default.
  int lm_pretrain_steps = -1;

  /// Inference-engine lanes (`engine.num_threads`, the calling thread
  /// included; 0 means hardware concurrency, at most kMaxThreads).
  EngineOptions engine;
};

/// One trained (or trainable) matcher plus the engine that serves it —
/// the recommended top-level API:
///
///   SessionOptions options;
///   options.checkpoint_path = "model.ckpt";
///   auto session_or = Session::Open(options);
///   HG_CHECK(session_or.ok());
///   std::vector<float> probs = session_or.value()->Score(pairs);
///
/// A Session owns its model and engine; scoring entry points route
/// through the engine's thread pool, so concurrent calls from several
/// caller threads are safe (jobs serialize; see InferenceEngine).
class Session {
 public:
  /// Builds (or, with `checkpoint_path`, loads) the model and starts
  /// the engine. An unknown matcher name, a checkpoint of the other
  /// family (pairwise vs collective), or an `engine.num_threads` outside
  /// [0, kMaxThreads] is InvalidArgument (the last before any thread
  /// starts).
  static StatusOr<std::unique_ptr<Session>> Open(
      const SessionOptions& options = SessionOptions());

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool collective() const { return collective_model_ != nullptr; }

  /// --- Pairwise sessions -------------------------------------------
  Status Train(const PairDataset& data, const TrainOptions& options);
  std::vector<float> Score(std::span<const EntityPair> pairs);
  EvalResult Evaluate(std::span<const EntityPair> pairs);

  /// --- Collective sessions -----------------------------------------
  Status Train(const CollectiveDataset& data, const TrainOptions& options);
  std::vector<std::vector<float>> ScoreQueries(
      std::span<const CollectiveQuery> queries);
  EvalResult Evaluate(std::span<const CollectiveQuery> queries);

  /// Serializes the trained model (either kind) to `path`; reload with
  /// SessionOptions::checkpoint_path.
  Status SaveCheckpoint(const std::string& path) const;

  /// Escape hatches for model-specific APIs (compiled stats,
  /// HierGatModel::InspectAttention, which may run on any thread while
  /// the session scores, ...). Null for the other session kind.
  PairwiseModel* model() { return pairwise_model_.get(); }
  const PairwiseModel* model() const { return pairwise_model_.get(); }
  CollectiveModel* collective_model() { return collective_model_.get(); }
  const CollectiveModel* collective_model() const {
    return collective_model_.get();
  }

 private:
  Session() = default;

  std::unique_ptr<PairwiseModel> pairwise_model_;
  std::unique_ptr<CollectiveModel> collective_model_;
  std::unique_ptr<InferenceEngine> engine_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_SESSION_H_
