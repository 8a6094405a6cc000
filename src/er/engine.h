#ifndef HIERGAT_ER_ENGINE_H_
#define HIERGAT_ER_ENGINE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "er/metrics.h"
#include "er/model.h"
#include "tensor/threadpool.h"

namespace hiergat {

struct EngineOptions {
  /// Scoring lanes, the calling thread included; 0 picks
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Batched, multi-threaded inference over trained matchers.
///
/// Each job is one ThreadPool::ParallelFor over the input range on the
/// engine's own pool, whose lanes include the calling thread. Chunks
/// hold up to 4 items (fewer when that is what spreads the job over
/// every lane), so the model's ScoreBatch amortizes per-batch setup.
/// Scored through PairwiseModel::ScoreBatch, whose contract (constness,
/// determinism, split-invariance) makes the result bit-identical for
/// any thread count. Scoring records no attention; to explain a score,
/// call HierGatModel::InspectAttention, which is safe from any thread.
///
/// Thread budget: the engine's lanes are the only parallelism in the
/// process. Kernels run serially on the thread that calls them, so an
/// N-lane engine uses at most N threads. A job that fits one chunk, and
/// every job of a 1-lane engine, runs inline on the caller.
///
/// The engine is reusable across calls and models; it does not own the
/// models it scores. Score/Evaluate may be called from multiple caller
/// threads: the engine runs one job at a time and concurrent calls are
/// serialized internally (each blocks until its own job completes).
/// The engine never refuses work; shedding load is the server edge's
/// job (the serve::DynamicBatcher queue cap, DESIGN.md §14).
class InferenceEngine {
 public:
  explicit InferenceEngine(const EngineOptions& options = EngineOptions());

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  int num_threads() const { return pool_.num_threads(); }

  /// P(match) per pair, in input order. Equivalent to (but faster than)
  /// model.ScoreBatch(pairs) on one thread.
  std::vector<float> Score(const PairwiseModel& model,
                           std::span<const EntityPair> pairs);

  /// P/R/F1 over the pairs, scored through the pool.
  EvalResult Evaluate(const PairwiseModel& model,
                      std::span<const EntityPair> pairs);

  /// Per-query candidate probabilities; queries are distributed across
  /// lanes (each query's candidate set stays whole — it is the unit of
  /// collective inference).
  std::vector<std::vector<float>> ScoreQueries(
      const CollectiveModel& model, std::span<const CollectiveQuery> queries);

  /// P/R/F1 over all candidates of all queries.
  EvalResult Evaluate(const CollectiveModel& model,
                      std::span<const CollectiveQuery> queries);

 private:
  /// Runs `process(begin, end)` over a partition of [0, total) on the
  /// pool and blocks until every index is processed.
  void RunJob(int total, const std::function<void(int, int)>& process);

  ThreadPool pool_;
  /// Serializes RunJob across caller threads; held for a whole job.
  std::mutex jobs_mutex_;
  /// Callers inside RunJob (queued or running); this engine's share of
  /// the process-wide `hiergat.engine.queue_depth` gauge.
  std::atomic<int> queue_depth_{0};
};

}  // namespace hiergat

#endif  // HIERGAT_ER_ENGINE_H_
