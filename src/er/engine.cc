#include "er/engine.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {

namespace {

// Engine metrics (DESIGN.md §8). Resolved once; hot paths touch only
// the metric atomics.
obs::Counter& JobsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.jobs");
  return counter;
}
obs::Counter& ItemsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.items");
  return counter;
}
obs::Histogram& BatchSecondsHistogram() {
  // Jobs run 100us (a handful of cached pairs) to tens of seconds (a
  // full evaluation sweep): doubling buckets over 1e-4s .. ~13s.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.batch_seconds",
          obs::Histogram::ExponentialBounds(1e-4, 2.0, 18));
  return histogram;
}
obs::Histogram& QueueWaitSecondsHistogram() {
  // Queue waits are bimodal — ~1us uncontended lock acquisition or the
  // length of whole queued jobs — so a steep x4 ladder over 1us .. ~4s
  // resolves both ends with few buckets.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.queue_wait_seconds",
          obs::Histogram::ExponentialBounds(1e-6, 4.0, 12));
  return histogram;
}
obs::Histogram& BatchItemsHistogram() {
  // Job sizes in items (pairs/queries), 1 .. 32768 doubling.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.engine.batch_items",
          obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
  return histogram;
}
obs::Gauge& QueueDepthGauge() {
  // Process-wide: every live engine adds its callers (a hot swap or a
  // multi-model server runs several engines at once).
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.engine.queue_depth");
  return gauge;
}

/// Most items per chunk: the model's ScoreBatch sees up to this many at
/// once, so per-batch setup amortizes.
constexpr int kGrain = 4;

}  // namespace

InferenceEngine::InferenceEngine(const EngineOptions& options)
    : pool_(options.num_threads) {}

void InferenceEngine::RunJob(int total,
                             const std::function<void(int, int)>& process) {
  if (total <= 0) return;
  // Each RunJob is one request: root a fresh trace context unless the
  // caller already carries one (e.g. a server wrapping several engine
  // calls in a single request context).
  obs::ScopedTraceRoot trace_root;
  HG_TRACE_SPAN("InferenceEngine::RunJob");
  // One job at a time: Score/Evaluate may be called from multiple
  // caller threads, and they queue here for the pool. queue_wait is the
  // time a caller spends behind other callers' jobs.
  const uint64_t enqueue_ns = obs::MonotonicNowNs();
  const int depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  QueueDepthGauge().Add(1);
  obs::RecordFlightEvent(obs::FlightEventKind::kJobEnqueue, "engine.RunJob",
                         total, depth);
  std::lock_guard<std::mutex> jobs_lock(jobs_mutex_);
  const uint64_t start_ns = obs::MonotonicNowNs();
  QueueWaitSecondsHistogram().Observe(
      static_cast<double>(start_ns - enqueue_ns) * 1e-9);
  JobsCounter().Increment();
  ItemsCounter().Increment(total);
  BatchItemsHistogram().Observe(static_cast<double>(total));
  obs::RecordFlightEvent(obs::FlightEventKind::kJobStart, "engine.RunJob",
                         total);
  // Chunks of up to kGrain items, but no larger than an even split, so
  // a job of fewer than lanes * kGrain items still reaches every lane.
  const int lanes = pool_.num_threads();
  const int grain = std::clamp((total + lanes - 1) / lanes, 1, kGrain);
  pool_.ParallelFor(0, total, grain, [&](int64_t begin, int64_t end) {
    HG_TRACE_SPAN("engine.ScoreRange");
    process(static_cast<int>(begin), static_cast<int>(end));
  });
  BatchSecondsHistogram().Observe(
      static_cast<double>(obs::MonotonicNowNs() - start_ns) * 1e-9);
  obs::RecordFlightEvent(obs::FlightEventKind::kJobDone, "engine.RunJob",
                         total);
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  QueueDepthGauge().Add(-1);
}

std::vector<float> InferenceEngine::Score(const PairwiseModel& model,
                                          std::span<const EntityPair> pairs) {
  std::vector<float> probabilities(pairs.size());
  RunJob(static_cast<int>(pairs.size()), [&](int begin, int end) {
    const std::vector<float> part = model.ScoreBatch(
        pairs.subspan(static_cast<size_t>(begin),
                      static_cast<size_t>(end - begin)));
    std::copy(part.begin(), part.end(),
              probabilities.begin() + begin);
  });
  return probabilities;
}

EvalResult InferenceEngine::Evaluate(const PairwiseModel& model,
                                     std::span<const EntityPair> pairs) {
  const std::vector<float> probabilities = Score(model, pairs);
  std::vector<int> labels;
  labels.reserve(pairs.size());
  for (const EntityPair& pair : pairs) labels.push_back(pair.label);
  return ComputeMetrics(probabilities, labels);
}

std::vector<std::vector<float>> InferenceEngine::ScoreQueries(
    const CollectiveModel& model, std::span<const CollectiveQuery> queries) {
  std::vector<std::vector<float>> results(queries.size());
  RunJob(static_cast<int>(queries.size()), [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      results[static_cast<size_t>(i)] =
          model.PredictQuery(queries[static_cast<size_t>(i)]);
    }
  });
  return results;
}

EvalResult InferenceEngine::Evaluate(const CollectiveModel& model,
                                     std::span<const CollectiveQuery> queries) {
  const std::vector<std::vector<float>> results = ScoreQueries(model, queries);
  std::vector<float> probabilities;
  std::vector<int> labels;
  for (size_t i = 0; i < queries.size(); ++i) {
    probabilities.insert(probabilities.end(), results[i].begin(),
                         results[i].end());
    labels.insert(labels.end(), queries[i].labels.begin(),
                  queries[i].labels.end());
  }
  return ComputeMetrics(probabilities, labels);
}

}  // namespace hiergat
