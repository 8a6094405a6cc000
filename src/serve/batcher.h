#ifndef HIERGAT_SERVE_BATCHER_H_
#define HIERGAT_SERVE_BATCHER_H_

/// Dynamic batching and admission for the serving layer (DESIGN.md
/// §14). Network requests arrive as small pair lists (often a single
/// pair); scoring each one as its own engine job wastes the thread pool
/// — a 1-pair job keeps at most one of the engine's lanes busy, and
/// per-job dispatch overhead is paid per pair. The batcher coalesces
/// concurrent requests targeting the same Session into one Score call.
///
/// It is a group commit (the write-group idiom of LevelDB's
/// DBImpl::Write), with no thread of its own. Each caller enqueues its
/// request and waits. The request at the front of the queue is the
/// leader: its caller holds the batch window open until
/// `max_batch_size` pairs are queued or `max_delay_us` after the
/// leader's own arrival, whichever is first (so an idle server adds at
/// most max_delay_us of latency). It then scores the same-session run
/// at the front on its own thread, hands each member its scores,
/// removes the batch from the queue and wakes the next front request.
///
/// A request leaves the queue only once it is answered, so the queued
/// pair count is the admitted-but-unanswered count; `max_pending_pairs`
/// caps it, and a request that would exceed the cap is shed with
/// ResourceExhausted instead of queued.
///
/// Each request keeps its own obs::TraceContext across coalescing: the
/// batch executes on the leader's thread under the oldest request's
/// context (engine/graph spans attach there), and every coalesced
/// request additionally gets a "serve.batch.Score" span stamped with
/// its own trace id covering the execution interval — so per-request
/// traces survive batching.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "er/session.h"
#include "obs/trace.h"

namespace hiergat {
namespace serve {

struct BatcherOptions {
  /// Pairs per coalesced Score call. A single request larger than this
  /// runs alone (never split) — the engine handles any size.
  int max_batch_size = 32;
  /// How long the oldest queued request may wait for the batch to
  /// fill, measured from its arrival. 0 disables coalescing-by-time:
  /// the leader takes whatever is queued the moment it reaches the
  /// front.
  int max_delay_us = 1000;
  /// Cap on pairs queued and not yet answered; a request that would
  /// exceed it is shed with ResourceExhausted. 0 = unlimited.
  int max_pending_pairs = 8192;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(const BatcherOptions& options = BatcherOptions());

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Scores `pairs` on `session`, blocking until the results are ready.
  /// Concurrent callers coalesce; results come back in the caller's
  /// pair order, bit-identical to session->Score(pairs) (ScoreBatch is
  /// split-invariant). The caller holds the session shared_ptr until
  /// its batch completes, which is what lets the registry hot-swap
  /// drain in-flight batches. Returns InvalidArgument for a pair the
  /// model cannot score (PairwiseModel::ValidatePair), ResourceExhausted
  /// when the queue is full (see max_pending_pairs) and Unavailable
  /// after Shutdown.
  StatusOr<std::vector<float>> Score(std::shared_ptr<Session> session,
                                     std::vector<EntityPair> pairs);

  /// Stops admitting: later Score calls return Unavailable. Requests
  /// already queued are still scored by their callers, and a leader
  /// holding its window closes it at once. Idempotent.
  void Shutdown();

  struct Stats {
    int64_t requests = 0;  ///< Score() calls answered by a batch.
    int64_t batches = 0;   ///< Coalesced Score calls issued.
    int64_t pairs = 0;     ///< Total pairs scored.
  };
  Stats stats() const;

 private:
  /// One queued request; lives on its caller's stack.
  struct Pending {
    Session* session = nullptr;  ///< Kept alive by the caller.
    std::span<const EntityPair> pairs;
    obs::TraceContext context;
    uint64_t enqueue_ns = 0;

    std::vector<float> scores;  ///< Filled by the leader.
    bool done = false;
    std::condition_variable cv;  ///< Wakes this caller.
  };

  /// Runs the batch led by `leader` (the queue front) and answers its
  /// members; call with `lock` held.
  void LeadBatch(Pending& leader, std::unique_lock<std::mutex>& lock);

  const BatcherOptions options_;

  mutable std::mutex mutex_;
  std::deque<Pending*> queue_;
  int64_t queued_pairs_ = 0;
  bool shutdown_ = false;

  int64_t requests_ = 0;
  int64_t batches_ = 0;
  int64_t pairs_ = 0;
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_BATCHER_H_
