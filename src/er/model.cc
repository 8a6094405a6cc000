#include "er/model.h"

#include "obs/trace.h"
#include "tensor/tensor.h"

namespace hiergat {

std::vector<float> PairwiseModel::ScoreBatch(
    std::span<const EntityPair> pairs) const {
  // Direct callers get a per-call request context; engine chunks carry
  // their job's context and inherit it here.
  obs::ScopedTraceRoot trace_root;
  HG_TRACE_SPAN("PairwiseModel::ScoreBatch");
  NoGradGuard no_grad;  // Inference never needs the autograd graph.
  std::vector<float> probabilities;
  probabilities.reserve(pairs.size());
  for (const EntityPair& pair : pairs) {
    probabilities.push_back(ScorePair(pair));
  }
  return probabilities;
}

EvalResult PairwiseModel::Evaluate(std::span<const EntityPair> pairs) const {
  const std::vector<float> probabilities = ScoreBatch(pairs);
  std::vector<int> labels;
  labels.reserve(pairs.size());
  for (const EntityPair& pair : pairs) labels.push_back(pair.label);
  return ComputeMetrics(probabilities, labels);
}

EvalResult CollectiveModel::Evaluate(
    std::span<const CollectiveQuery> queries) const {
  std::vector<float> probabilities;
  std::vector<int> labels;
  for (const CollectiveQuery& query : queries) {
    const std::vector<float> probs = PredictQuery(query);
    probabilities.insert(probabilities.end(), probs.begin(), probs.end());
    labels.insert(labels.end(), query.labels.begin(), query.labels.end());
  }
  return ComputeMetrics(probabilities, labels);
}

PairDataset FlattenCollective(const CollectiveDataset& data) {
  PairDataset flat;
  flat.name = data.name;
  auto flatten = [](const std::vector<CollectiveQuery>& queries,
                    std::vector<EntityPair>* out) {
    for (const CollectiveQuery& q : queries) {
      for (size_t i = 0; i < q.candidates.size(); ++i) {
        EntityPair pair;
        pair.left = q.query;
        pair.right = q.candidates[i];
        pair.label = q.labels[i];
        out->push_back(std::move(pair));
      }
    }
  };
  flatten(data.train, &flat.train);
  flatten(data.valid, &flat.valid);
  flatten(data.test, &flat.test);
  return flat;
}

void PairwiseAsCollective::Train(const CollectiveDataset& data,
                                 const TrainOptions& options) {
  pairwise_->Train(FlattenCollective(data), options);
}

std::vector<float> PairwiseAsCollective::PredictQuery(
    const CollectiveQuery& query) const {
  std::vector<EntityPair> pairs;
  pairs.reserve(query.candidates.size());
  for (size_t i = 0; i < query.candidates.size(); ++i) {
    EntityPair pair;
    pair.left = query.query;
    pair.right = query.candidates[i];
    pair.label = query.labels[i];
    pairs.push_back(std::move(pair));
  }
  return pairwise_->ScoreBatch(pairs);
}

}  // namespace hiergat
