#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace hiergat {
namespace serve {

namespace {

obs::Counter& BatchesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.batch.batches");
  return counter;
}
obs::Counter& RequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.batch.requests");
  return counter;
}
obs::Counter& PairsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.serve.batch.pairs");
  return counter;
}
obs::Counter& RejectedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.admission.rejected");
  return counter;
}
obs::Histogram& BatchPairsHistogram() {
  // Coalesced batch sizes in pairs, 1 .. 4096 doubling.
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.serve.batch.size_pairs",
          obs::Histogram::ExponentialBounds(1.0, 2.0, 13));
  return histogram;
}
obs::Histogram& QueueWaitSecondsHistogram() {
  // Request waits span the configured delay budget (~1ms) down to the
  // uncontended enqueue/dequeue handoff (~1us).
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.serve.batch.queue_wait_seconds",
          obs::Histogram::ExponentialBounds(1e-6, 4.0, 12));
  return histogram;
}
obs::Gauge& QueuedPairsGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "hiergat.serve.batch.queue_pairs");
  return gauge;
}

}  // namespace

DynamicBatcher::DynamicBatcher(const BatcherOptions& options)
    : options_{std::max(1, options.max_batch_size),
               std::max(0, options.max_delay_us),
               std::max(0, options.max_pending_pairs)} {}

StatusOr<std::vector<float>> DynamicBatcher::Score(
    std::shared_ptr<Session> session, std::vector<EntityPair> pairs) {
  if (session == nullptr || session->collective()) {
    return Status::InvalidArgument("batcher: needs a pairwise session");
  }
  if (pairs.empty()) return std::vector<float>();
  // A pair the model cannot score would fail a fatal check inside the
  // batch it joined; refuse it before admission instead.
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Status valid = session->model()->ValidatePair(pairs[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument("pair " + std::to_string(i) + ": " +
                                     valid.message());
    }
  }

  Pending pending;
  pending.session = session.get();
  pending.pairs = pairs;
  pending.context = obs::CurrentTraceContext();
  pending.enqueue_ns = obs::MonotonicNowNs();
  const int64_t n = static_cast<int64_t>(pairs.size());

  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return Status::Unavailable("batcher: shut down");
  }
  if (options_.max_pending_pairs > 0 &&
      queued_pairs_ + n > options_.max_pending_pairs) {
    RejectedCounter().Increment();
    obs::RecordFlightEvent(obs::FlightEventKind::kServeShed,
                           "admission.queue", n, queued_pairs_);
    return Status::ResourceExhausted(
        "admission: " + std::to_string(queued_pairs_) +
        " pair(s) already pending (max_pending_pairs " +
        std::to_string(options_.max_pending_pairs) + ")");
  }
  queue_.push_back(&pending);
  queued_pairs_ += n;
  QueuedPairsGauge().Add(static_cast<double>(n));
  // A full batch ends the leader's window early.
  if (queue_.front() != &pending &&
      queued_pairs_ >= options_.max_batch_size) {
    queue_.front()->cv.notify_one();
  }

  pending.cv.wait(
      lock, [&] { return pending.done || queue_.front() == &pending; });
  if (!pending.done) LeadBatch(pending, lock);
  lock.unlock();

  QueueWaitSecondsHistogram().Observe(
      static_cast<double>(obs::MonotonicNowNs() - pending.enqueue_ns) * 1e-9);
  return std::move(pending.scores);
}

void DynamicBatcher::LeadBatch(Pending& leader,
                               std::unique_lock<std::mutex>& lock) {
  // Batch window: hold the batch open until it is full or the leader —
  // the oldest queued request — has waited max_delay_us since its own
  // arrival. During shutdown the queue is drained without waiting.
  const auto deadline =
      std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(leader.enqueue_ns)) +
      std::chrono::microseconds(options_.max_delay_us);
  leader.cv.wait_until(lock, deadline, [&] {
    return shutdown_ || queued_pairs_ >= options_.max_batch_size;
  });

  // The batch is the same-session run at the front. Never split a
  // request; close the batch when adding the next one would overflow
  // (an oversized leader runs alone).
  std::vector<Pending*> batch;
  int64_t total = 0;
  for (Pending* pending : queue_) {
    const int64_t next = static_cast<int64_t>(pending->pairs.size());
    if (pending->session != leader.session ||
        (!batch.empty() && total + next > options_.max_batch_size)) {
      break;
    }
    batch.push_back(pending);
    total += next;
    if (total >= options_.max_batch_size) break;
  }
  lock.unlock();

  // Concatenate, score once on this thread, split back. The leader's
  // thread already runs under the oldest request's trace context, so
  // engine/graph spans attach to a real request id.
  std::vector<EntityPair> joined;
  std::span<const EntityPair> all_pairs = leader.pairs;
  if (batch.size() > 1) {
    joined.reserve(static_cast<size_t>(total));
    for (const Pending* pending : batch) {
      joined.insert(joined.end(), pending->pairs.begin(),
                    pending->pairs.end());
    }
    all_pairs = joined;
  }
  const uint64_t exec_start_ns = obs::MonotonicNowNs();
  std::vector<float> scores;
  {
    HG_TRACE_SPAN("serve.batch.Dispatch");
    scores = leader.session->Score(all_pairs);
  }
  const uint64_t exec_dur_ns = obs::MonotonicNowNs() - exec_start_ns;

  BatchesCounter().Increment();
  RequestsCounter().Increment(static_cast<int64_t>(batch.size()));
  PairsCounter().Increment(total);
  BatchPairsHistogram().Observe(static_cast<double>(total));

  size_t offset = 0;
  for (Pending* pending : batch) {
    const size_t n = pending->pairs.size();
    pending->scores.assign(
        scores.begin() + static_cast<ptrdiff_t>(offset),
        scores.begin() + static_cast<ptrdiff_t>(offset + n));
    offset += n;
    // Per-request span: every coalesced request records the batch's
    // execution interval under its own trace id, so a request-scoped
    // Perfetto view shows when (and for how long) its scores were
    // computed even though the work was shared.
    if (obs::TraceRecorder::Global().enabled()) {
      obs::TraceRecorder::Global().Record("serve.batch.Score", exec_start_ns,
                                          exec_dur_ns,
                                          pending->context.trace_id);
    }
  }

  lock.lock();
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<ptrdiff_t>(batch.size()));
  queued_pairs_ -= total;
  QueuedPairsGauge().Add(-static_cast<double>(total));
  requests_ += static_cast<int64_t>(batch.size());
  ++batches_;
  pairs_ += total;
  for (Pending* pending : batch) {
    pending->done = true;
    if (pending != &leader) pending->cv.notify_one();
  }
  if (!queue_.empty()) queue_.front()->cv.notify_one();
}

void DynamicBatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
  if (!queue_.empty()) queue_.front()->cv.notify_one();
}

DynamicBatcher::Stats DynamicBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{requests_, batches_, pairs_};
}

}  // namespace serve
}  // namespace hiergat
