#ifndef HIERGAT_ER_ENGINE_H_
#define HIERGAT_ER_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "er/metrics.h"
#include "er/model.h"
#include "obs/trace.h"

namespace hiergat {

struct EngineOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Batched, multi-threaded inference over trained matchers.
///
/// A fixed pool of workers splits the input range evenly; each worker
/// pops grains (4 items, so the model's ScoreBatch amortizes per-batch
/// setup) off the front of its own range and, when dry, steals the
/// back half of a peer's remaining range (lock-free packed-range CAS).
/// Scored through PairwiseModel::ScoreBatch, whose contract (constness,
/// determinism, split-invariance) makes the result bit-identical for
/// any thread count. Workers score with attention recording off, so
/// the models' introspection caches are never raced; call
/// HierGatModel::InspectAttention from the owning thread instead.
///
/// The engine is reusable across calls and models; it does not own the
/// models it scores. Score/Evaluate may be called from multiple caller
/// threads: the pool runs one job at a time and concurrent calls are
/// serialized internally (each blocks until its own job completes).
/// The engine never refuses work; shedding load is the server edge's
/// job (the serve::DynamicBatcher queue cap, DESIGN.md §14).
class InferenceEngine {
 public:
  explicit InferenceEngine(const EngineOptions& options = EngineOptions());
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  int num_threads() const { return num_threads_; }

  /// P(match) per pair, in input order. Equivalent to (but faster than)
  /// model.ScoreBatch(pairs) on one thread.
  std::vector<float> Score(const PairwiseModel& model,
                           std::span<const EntityPair> pairs);

  /// P/R/F1 over the pairs, scored through the pool.
  EvalResult Evaluate(const PairwiseModel& model,
                      std::span<const EntityPair> pairs);

  /// Per-query candidate probabilities; queries are distributed across
  /// workers (each query's candidate set stays whole — it is the unit
  /// of collective inference).
  std::vector<std::vector<float>> ScoreQueries(
      const CollectiveModel& model, std::span<const CollectiveQuery> queries);

  /// P/R/F1 over all candidates of all queries.
  EvalResult Evaluate(const CollectiveModel& model,
                      std::span<const CollectiveQuery> queries);

 private:
  /// One cache line per worker, so owner pops and peer steals on
  /// neighbouring slots never contend.
  struct alignas(64) Slot {
    /// Packed half-open range begin<<32 | end; begin == end means empty.
    std::atomic<uint64_t> range{0};
  };

  /// Runs `process(begin, end)` over a partition of [0, total) on the
  /// pool and blocks until every index is processed and all workers are
  /// idle again.
  void RunJob(int total, const std::function<void(int, int)>& process);
  void WorkerLoop(int worker_id);
  int ProcessRanges(int worker_id, const std::function<void(int, int)>& fn);

  int num_threads_;
  std::vector<Slot> slots_;
  std::vector<std::thread> threads_;

  /// Serializes RunJob across caller threads; held for a whole job.
  std::mutex jobs_mutex_;
  /// Callers inside RunJob (queued or running); this engine's share of
  /// the process-wide `hiergat.engine.queue_depth` gauge.
  std::atomic<int> queue_depth_{0};

  std::mutex mutex_;
  std::condition_variable cv_;       // Wakes workers on a new job.
  std::condition_variable done_cv_;  // Wakes the caller on completion.
  bool shutdown_ = false;
  uint64_t job_generation_ = 0;
  std::function<void(int, int)> job_fn_;
  /// The caller's request context for the in-flight job (same lifecycle
  /// and locking as job_fn_); workers install it so every span they
  /// record carries the request's trace id.
  obs::TraceContext job_context_;
  int job_total_ = 0;
  int done_items_ = 0;
  int active_workers_ = 0;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_ENGINE_H_
