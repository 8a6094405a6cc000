#include "tensor/threadpool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {

namespace {

// How long a worker spins (yielding) for the next task before it parks
// on the condvar. The spin catches a back-to-back dispatch; a pool idle
// for longer (an engine between serving batches) parks, and its lanes
// stop taking CPU from the threads that produce the next batch. Bounded
// in time, not in yields: a yield takes ~0.4us on an idle host and
// longer on a busy one.
constexpr std::chrono::microseconds kSpinTime(50);

// True while this thread is executing a ParallelFor chunk of any pool;
// a nested ParallelFor runs inline instead of deadlocking on the
// single-task pool.
thread_local bool tls_in_chunk = false;

obs::Counter& Tasks() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.threadpool.tasks");
  return counter;
}
obs::Counter& Chunks() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.threadpool.chunks");
  return counter;
}
obs::Counter& Parks() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.threadpool.parks");
  return counter;
}
obs::Gauge& ThreadsGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.threadpool.threads");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  HG_CHECK_LE(num_threads, kMaxThreads);
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Summed over live pools: every engine owns one.
  ThreadsGauge().Add(num_threads);
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker that checked the predicate just
    // before the store is now inside wait() and will see the notify.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  ThreadsGauge().Add(-num_threads());
}

void ThreadPool::WorkerLoop(int worker_index) {
  obs::SetTraceThreadName("pool-worker-" + std::to_string(worker_index));
  uint64_t seen_epoch = 0;
  for (;;) {
    // Spin-then-park until a new task is published or we shut down.
    const auto spin_end = std::chrono::steady_clock::now() + kSpinTime;
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) return;
      const uint64_t epoch = epoch_.load(std::memory_order_acquire);
      if (epoch != seen_epoch) {
        seen_epoch = epoch;
        break;
      }
      if (std::chrono::steady_clock::now() < spin_end) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(wake_mutex_);
      Parks().Increment();
      wake_cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) ||
               epoch_.load(std::memory_order_relaxed) != seen_epoch;
      });
    }
    {
      // Shared hold for the whole claim loop: the next dispatcher's
      // exclusive acquisition in ParallelFor waits for us to leave
      // before it rewrites the task fields we read.
      std::shared_lock<std::shared_mutex> state_lock(state_mutex_);
      // Run the task under the dispatcher's request context so chunk
      // spans (and anything recorded inside the kernels) carry the
      // request's trace id.
      obs::ScopedTraceContext context_guard(task_context_);
      RunChunks();
    }
  }
}

void ThreadPool::RunChunks() {
  tls_in_chunk = true;
  for (;;) {
    // The acquire on the claim orders the task-state reads below after
    // the dispatcher's release store of next_chunk_.
    const int64_t i = next_chunk_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= num_chunks_) break;
    const int64_t chunk_begin = task_begin_ + i * task_grain_;
    const int64_t chunk_end = std::min(task_end_, chunk_begin + task_grain_);
    (*fn_)(chunk_begin, chunk_end);
    Chunks().Increment();
    done_chunks_.fetch_add(1, std::memory_order_acq_rel);
  }
  tls_in_chunk = false;
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  if (workers_.empty() || end - begin <= grain || tls_in_chunk) {
    fn(begin, end);
    return;
  }

  std::lock_guard<std::mutex> task_lock(task_mutex_);
  {
    // Exclusive access to the task fields: waiting for done_chunks_ ==
    // num_chunks_ (below) proves the previous task's work finished, but
    // a worker that lost the chunk race can still be inside RunChunks
    // reading the fields — the exclusive acquisition waits it out.
    std::unique_lock<std::shared_mutex> state_lock(state_mutex_);
    fn_ = &fn;
    task_begin_ = begin;
    task_end_ = end;
    task_grain_ = grain;
    task_context_ = obs::CurrentTraceContext();
    num_chunks_ = (end - begin + grain - 1) / grain;
    done_chunks_.store(0, std::memory_order_relaxed);
    next_chunk_.store(0, std::memory_order_release);
  }
  epoch_.fetch_add(1, std::memory_order_release);
  {
    // Pair with the worker's predicate check: any worker about to park
    // re-checks the epoch under wake_mutex_.
    std::lock_guard<std::mutex> wake_lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  Tasks().Increment();

  // The dispatching thread is a full lane: claim chunks until none
  // remain, then wait for workers still finishing theirs.
  RunChunks();
  int spins = 0;
  while (done_chunks_.load(std::memory_order_acquire) < num_chunks_) {
    if (++spins > 128) std::this_thread::yield();
  }
  fn_ = nullptr;
}

}  // namespace hiergat
