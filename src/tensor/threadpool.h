#ifndef HIERGAT_TENSOR_THREADPOOL_H_
#define HIERGAT_TENSOR_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace hiergat {

/// Most threads any configured count may ask for: hiergat_serve
/// --threads and Session::Open's EngineOptions are refused above it,
/// and a ThreadPool check-fails above it, so a typo cannot start
/// millions of threads.
inline constexpr int kMaxThreads = 1024;

/// Persistent worker pool: the lanes of one InferenceEngine, the only
/// parallelism in the process (kernels run serially on the thread that
/// calls them). Workers are started once and live for the pool's
/// lifetime: a dispatch is one atomic epoch bump plus (when a worker
/// has parked) one condvar notify, not a thread spawn. Workers spin for
/// up to 50us between tasks before parking, so back-to-back ParallelFor
/// calls never pay a futex round trip, while a pool idle for longer (an
/// engine between batches) parks.
///
/// Determinism contract: ParallelFor partitions [begin, end) into
/// fixed chunks of `grain` iterations derived from the arguments alone,
/// never from thread timing. Which *thread* runs a chunk varies between
/// runs, but the chunk boundaries do not — so work whose result
/// depends only on the items it is handed (an engine's ScoreBatch
/// chunks) is bit-identical at any thread count, including the serial
/// num_threads == 1 case.
///
/// Exported metrics: `hiergat.threadpool.{tasks,chunks,parks}` counters
/// and the `hiergat.threadpool.threads` gauge (lanes summed over every
/// live pool).
class ThreadPool {
 public:
  /// `num_threads` counts the caller as one lane: a pool of N runs
  /// N - 1 background workers and the dispatching thread participates.
  /// 0 means std::thread::hardware_concurrency(); more than kMaxThreads
  /// is a fatal check, raised before any thread starts.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes including the calling thread (>= 1).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into
  /// chunks of `grain` iterations, blocking until every chunk is done.
  /// The caller executes chunks alongside the workers. Runs inline
  /// (one fn(begin, end) call) when the pool has no workers, the range
  /// fits in one chunk, or the call is nested inside a ParallelFor chunk
  /// of this or any other pool: the outer fan-out already owns the
  /// lanes, and a nested dispatch to this pool would deadlock on the
  /// running task. Concurrent callers are serialized: the pool executes
  /// one task at a time.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  void WorkerLoop(int worker_index);
  /// Claims and runs chunks of the current task; returns when none are
  /// left to claim.
  void RunChunks();

  // Current task state. Written by the dispatching caller under
  // state_mutex_ (exclusive) while holding task_mutex_, published to
  // workers by the epoch_ bump; workers read it only while holding
  // state_mutex_ shared (see RunChunks).
  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t task_begin_ = 0;
  int64_t task_end_ = 0;
  int64_t task_grain_ = 1;
  int64_t num_chunks_ = 0;
  // The dispatcher's request context, captured at ParallelFor and
  // installed on each worker for the task's chunks — spans recorded
  // inside a chunk inherit the dispatching request's trace id.
  obs::TraceContext task_context_;
  std::atomic<int64_t> next_chunk_{0};
  std::atomic<int64_t> done_chunks_{0};

  // Guards the task-state fields above. done_chunks_ reaching
  // num_chunks_ proves the previous task's *work* is finished, not that
  // every worker has left RunChunks — a straggler that lost the chunk
  // race may still be reading the fields. Workers hold this shared for
  // the duration of RunChunks; the next dispatcher takes it exclusive
  // before rewriting the fields, which waits the stragglers out.
  std::shared_mutex state_mutex_;

  // Bumped once per dispatched task; workers wait for it to move.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex task_mutex_;  // Serializes concurrent ParallelFor callers.
  std::mutex wake_mutex_;  // Guards parking only.
  std::condition_variable wake_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace hiergat

#endif  // HIERGAT_TENSOR_THREADPOOL_H_
