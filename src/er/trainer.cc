#include "er/trainer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "er/metrics.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hiergat {

std::vector<std::vector<float>> SnapshotParameters(
    const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> snapshot;
  snapshot.reserve(params.size());
  for (const Tensor& p : params) snapshot.push_back(p.data());
  return snapshot;
}

void RestoreParameters(const std::vector<std::vector<float>>& snapshot,
                       std::vector<Tensor>* params) {
  for (size_t i = 0; i < params->size(); ++i) {
    (*params)[i].data() = snapshot[i];
  }
}

namespace {

/// `valid_labels` are the validation split's labels in order (empty: no
/// validation split).
template <typename Item, typename ForwardFn, typename EvaluateFn>
double RunTrainingLoop(const std::vector<Item>& train_items,
                       const std::vector<int>& valid_labels,
                       const TrainOptions& options,
                       std::vector<Tensor> params,
                       std::vector<float> lr_multipliers, Rng& rng,
                       ForwardFn forward_loss, EvaluateFn evaluate_valid,
                       const std::string& model_name) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<int> order(train_items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  int effective = static_cast<int>(order.size());
  if (options.max_train_items > 0 &&
      options.max_train_items < effective) {
    effective = options.max_train_items;
  }

  Adam optimizer(params, options.lr);
  if (!lr_multipliers.empty()) {
    optimizer.SetLrMultipliers(std::move(lr_multipliers));
  }
  float best_f1 = -1.0f;
  std::vector<std::vector<float>> best_snapshot;

  // Per-epoch observability (DESIGN.md §8): gauges carry the latest
  // epoch's loss/F1, the histogram the wall-time distribution.
  static obs::Counter& epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.train.epochs");
  static obs::Gauge& loss_gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.train.epoch_loss");
  static obs::Gauge& valid_f1_gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.train.valid_f1");
  static obs::Gauge& valid_f1_margin_gauge =
      obs::MetricsRegistry::Global().GetGauge(
          "hiergat.train.valid_f1_margin");
  static obs::Histogram& epoch_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.train.epoch_seconds");

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    HG_TRACE_SPAN("TrainEpoch");
    obs::ScopedLatency epoch_latency(epoch_seconds);
    const auto epoch_start = std::chrono::steady_clock::now();
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUint64(i)]);
    }
    float epoch_loss = 0.0f;
    int steps = 0;
    for (int begin = 0; begin < effective; begin += options.batch_size) {
      const int end = std::min(effective, begin + options.batch_size);
      optimizer.ZeroGrad();
      Tensor batch_loss;
      for (int i = begin; i < end; ++i) {
        Tensor loss = forward_loss(
            train_items[static_cast<size_t>(order[static_cast<size_t>(i)])]);
        batch_loss = batch_loss.defined() ? Add(batch_loss, loss) : loss;
      }
      batch_loss = Scale(batch_loss, 1.0f / static_cast<float>(end - begin));
      batch_loss.Backward();
      optimizer.ClipGradNorm(options.grad_clip);
      optimizer.Step();
      epoch_loss += batch_loss.item();
      ++steps;
    }
    float valid_f1 = 0.0f;
    if (!valid_labels.empty() && options.select_best_on_validation) {
      valid_f1 = evaluate_valid();
      if (valid_f1 > best_f1) {
        best_f1 = valid_f1;
        best_snapshot = SnapshotParameters(params);
      }
    }
    const float mean_loss =
        steps > 0 ? epoch_loss / static_cast<float>(steps) : 0.0f;
    const double epoch_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_start)
            .count();
    epochs_counter.Increment();
    loss_gauge.Set(mean_loss);
    valid_f1_gauge.Set(valid_f1);
    HG_LOG(INFO) << "[" << model_name << "] epoch " << epoch + 1 << "/"
                 << options.epochs << " loss=" << mean_loss
                 << " valid_f1=" << valid_f1 << " wall_s=" << epoch_wall;
    if (options.verbose) {
      std::printf("[%s] epoch %d/%d loss=%.4f valid_f1=%.3f\n",
                  model_name.c_str(), epoch + 1, options.epochs, mean_loss,
                  valid_f1);
    }
  }
  if (!best_snapshot.empty()) {
    RestoreParameters(best_snapshot, &params);
    // The selected epoch against predicting "match" for every pair of
    // the same split (F1 2·pos / (pos + n)): a margin <= 0 means the
    // model does no better than a constant.
    const float always_match_f1 =
        ComputeMetrics(std::vector<float>(valid_labels.size(), 1.0f),
                       valid_labels)
            .f1;
    const float margin = best_f1 - always_match_f1;
    valid_f1_margin_gauge.Set(margin);
    if (margin <= 0.0f) {
      HG_LOG(WARN) << "[" << model_name << "] selected valid_f1=" << best_f1
                   << " does not beat always-match F1 " << always_match_f1
                   << " on the validation split";
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

void NeuralPairwiseModel::Train(const PairDataset& data,
                                const TrainOptions& options) {
  rng_.Seed(options.seed);
  std::vector<int> valid_labels;
  for (const EntityPair& pair : data.valid) valid_labels.push_back(pair.label);
  last_train_seconds_ = RunTrainingLoop(
      data.train, valid_labels, options, TrainableParameters(),
      ParameterLrMultipliers(), rng_,
      [this](const EntityPair& pair) {
        Tensor logits = ForwardLogits(pair, /*training=*/true, rng_);
        return SoftmaxCrossEntropy(logits, {pair.label});
      },
      [this, &data]() {
        // Adam just moved the parameters, so memoized summaries are stale.
        InvalidateInferenceCache();
        return Evaluate(data.valid).f1;
      },
      name());
  // Best-epoch restore (or the final step) changed the parameters again.
  InvalidateInferenceCache();
}

float NeuralPairwiseModel::ScorePair(const EntityPair& pair) const {
  NoGradGuard no_grad;
  // Inference draws nothing from the RNG; a throwaway stream keeps the
  // signature uniform without perturbing the training stream.
  Rng unused(0);
  Tensor logits = ForwardLogits(pair, /*training=*/false, unused);
  Tensor probs = Softmax(logits);
  return probs.at(0, 1);
}

void NeuralCollectiveModel::Train(const CollectiveDataset& data,
                                  const TrainOptions& options) {
  rng_.Seed(options.seed);
  // §6.3: the batch is one query's full candidate set.
  TrainOptions per_query = options;
  per_query.batch_size = 1;
  std::vector<int> valid_labels;
  for (const CollectiveQuery& query : data.valid) {
    valid_labels.insert(valid_labels.end(), query.labels.begin(),
                        query.labels.end());
  }
  last_train_seconds_ = RunTrainingLoop(
      data.train, valid_labels, per_query, TrainableParameters(),
      ParameterLrMultipliers(), rng_,
      [this](const CollectiveQuery& query) {
        Tensor logits = ForwardQueryLogits(query, /*training=*/true, rng_);
        return SoftmaxCrossEntropy(logits, query.labels);
      },
      [this, &data]() {
        InvalidateInferenceCache();
        return Evaluate(data.valid).f1;
      },
      name());
  InvalidateInferenceCache();
}

std::vector<float> NeuralCollectiveModel::PredictQuery(
    const CollectiveQuery& query) const {
  NoGradGuard no_grad;
  Rng unused(0);
  Tensor logits = ForwardQueryLogits(query, /*training=*/false, unused);
  Tensor probs = Softmax(logits);
  std::vector<float> result;
  result.reserve(static_cast<size_t>(probs.dim(0)));
  for (int i = 0; i < probs.dim(0); ++i) result.push_back(probs.at(i, 1));
  return result;
}

}  // namespace hiergat
