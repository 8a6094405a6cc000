#include "er/engine.h"

#include <algorithm>
#include <optional>
#include <string>

#include "nn/introspection.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/threadpool.h"

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
obs::Counter& StealsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.engine.steals");
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

/// Smallest range a worker pops from its own slot per step: the model's
/// ScoreBatch sees at least this many items at once (when available),
/// so per-batch setup amortizes; stealing may hand out larger chunks.
constexpr int kGrain = 4;

constexpr uint64_t Pack(int begin, int end) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(begin)) << 32) |
         static_cast<uint32_t>(end);
}

constexpr int RangeBegin(uint64_t packed) {
  return static_cast<int>(packed >> 32);
}

constexpr int RangeEnd(uint64_t packed) {
  return static_cast<int>(packed & 0xffffffffu);
}

/// Owner side: claims up to `grain` items off the front of `slot`.
bool PopFront(std::atomic<uint64_t>& slot, int grain, int* out_begin,
              int* out_end) {
  uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    const int begin = RangeBegin(cur);
    const int end = RangeEnd(cur);
    if (begin >= end) return false;
    const int take = std::min(grain, end - begin);
    if (slot.compare_exchange_weak(cur, Pack(begin + take, end),
                                   std::memory_order_acq_rel)) {
      *out_begin = begin;
      *out_end = begin + take;
      return true;
    }
  }
}

/// Thief side: claims the back half of the victim's remaining range.
bool StealBack(std::atomic<uint64_t>& slot, int* out_begin, int* out_end) {
  uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    const int begin = RangeBegin(cur);
    const int end = RangeEnd(cur);
    const int remaining = end - begin;
    if (remaining <= 0) return false;
    const int take = (remaining + 1) / 2;
    if (slot.compare_exchange_weak(cur, Pack(begin, end - take),
                                   std::memory_order_acq_rel)) {
      *out_begin = end - take;
      *out_end = end;
      return true;
    }
  }
}

}  // namespace

InferenceEngine::InferenceEngine(const EngineOptions& options)
    : num_threads_(options.num_threads > 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency())),
      slots_(static_cast<size_t>(num_threads_)) {
  threads_.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void InferenceEngine::WorkerLoop(int worker_id) {
  // Introspection caches (last_attention() and friends) are mutable
  // per-module state; recording from concurrent workers would race, and
  // batch scoring has no use for the values.
  SetAttentionRecording(false);
  obs::SetTraceThreadName("engine-worker-" + std::to_string(worker_id));
  // Shared thread budget with the tensor ThreadPool: when the engine
  // already fans items across >1 workers, intra-op parallelism inside a
  // worker would oversubscribe the machine, so kernels launched from
  // here run serial (see ScopedParallelismBan). A 1-worker engine keeps
  // intra-op parallelism — the pool's lanes are then the only users.
  std::optional<ScopedParallelismBan> intra_op_ban;
  if (num_threads_ > 1) intra_op_ban.emplace();
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      return shutdown_ || job_generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = job_generation_;
    const std::function<void(int, int)> fn = job_fn_;
    // job_fn_ is non-null only while a job is in flight (set before the
    // generation bump, reset after completion, all under mutex_). A null
    // copy means this worker slept through the whole job; it must not
    // enter ProcessRanges, or it could claim ranges of a later job whose
    // accounting it never joined.
    if (!fn) continue;
    const obs::TraceContext job_context = job_context_;
    ++active_workers_;
    lock.unlock();
    int processed;
    {
      // Adopt the caller's request context: spans recorded while
      // scoring (engine.ScoreRange, model spans, graph nodes) link to
      // the request that dispatched this job.
      obs::ScopedTraceContext context_guard(job_context);
      processed = ProcessRanges(worker_id, fn);
    }
    lock.lock();
    --active_workers_;
    done_items_ += processed;
    if (done_items_ == job_total_ && active_workers_ == 0) {
      done_cv_.notify_all();
    }
  }
}

int InferenceEngine::ProcessRanges(int worker_id,
                                   const std::function<void(int, int)>& fn) {
  int processed = 0;
  std::atomic<uint64_t>& own = slots_[static_cast<size_t>(worker_id)].range;
  for (;;) {
    int begin, end;
    if (PopFront(own, kGrain, &begin, &end)) {
      {
        HG_TRACE_SPAN("engine.ScoreRange");
        fn(begin, end);
      }
      processed += end - begin;
      continue;
    }
    bool stole = false;
    for (int k = 1; k < num_threads_ && !stole; ++k) {
      const int victim = (worker_id + k) % num_threads_;
      if (StealBack(slots_[static_cast<size_t>(victim)].range, &begin,
                    &end)) {
        // Publish the stolen range as our own so other thieves can
        // split it further; an empty slot is never CAS-matched, so the
        // plain store cannot clobber a concurrent steal.
        own.store(Pack(begin, end), std::memory_order_release);
        StealsCounter().Increment();
        stole = true;
      }
    }
    if (!stole) return processed;  // Every slot drained.
  }
}

void InferenceEngine::RunJob(int total,
                             const std::function<void(int, int)>& process) {
  if (total <= 0) return;
  // Each RunJob is one request: root a fresh trace context unless the
  // caller already carries one (e.g. a server wrapping several engine
  // calls in a single request context).
  obs::ScopedTraceRoot trace_root;
  HG_TRACE_SPAN("InferenceEngine::RunJob");
  // One job at a time: Score/Evaluate may be called from multiple
  // caller threads, but slots_/job_fn_/done_items_ describe a single
  // in-flight job, so callers queue here for the pool. queue_wait is
  // the time a caller spends behind other callers' jobs.
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
  std::unique_lock<std::mutex> lock(mutex_);
  // Even contiguous partition of [0, total); trailing workers may get
  // an empty slot when there are fewer items than threads.
  const int chunk = total / num_threads_;
  const int remainder = total % num_threads_;
  int begin = 0;
  for (int w = 0; w < num_threads_; ++w) {
    const int len = chunk + (w < remainder ? 1 : 0);
    slots_[static_cast<size_t>(w)].range.store(Pack(begin, begin + len),
                                               std::memory_order_release);
    begin += len;
  }
  job_fn_ = process;
  job_context_ = obs::CurrentTraceContext();
  job_total_ = total;
  done_items_ = 0;
  ++job_generation_;
  cv_.notify_all();
  // Wait until all items are scored AND every worker left ProcessRanges
  // (a worker still inside could otherwise race the next job's slots).
  done_cv_.wait(lock,
                [&] { return done_items_ == job_total_ && active_workers_ == 0; });
  job_fn_ = nullptr;
  job_context_ = obs::TraceContext{};
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
