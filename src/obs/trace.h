#ifndef HIERGAT_OBS_TRACE_H_
#define HIERGAT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hiergat {
namespace obs {

/// Request-scoped trace identity: a trace id naming one logical request
/// (one Session::Score / ScoreBatch call) plus the span id of the
/// request's root span. The context lives in a thread-local slot and is
/// copied — not shared — across thread hops: a ThreadPool (an engine's
/// lanes) hands it to chunk runners with each task, and compiled-graph
/// replay inherits whatever the executing thread carries. Every
/// completed span is stamped with the current trace id, so a Perfetto
/// trace groups engine-job, threadpool-chunk, and graph-node spans under
/// one per-request id instead of showing disconnected per-thread tracks.
struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 means "no request context".
  uint64_t span_id = 0;   ///< Root span of the request.

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current context ({0, 0} when none installed).
TraceContext CurrentTraceContext();

/// Fresh ids from process-wide atomic counters (never returns 0 ids).
TraceContext NewTraceContext();

/// RAII: installs `context` on this thread, restoring the previous
/// context on destruction. Used at every thread hop (threadpool chunk
/// runners) to re-home the dispatcher's context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// RAII: installs a fresh context only when the thread has none — the
/// request-entry guard. Nested entry points (ScoreBatch called from an
/// engine chunk that already carries the job's context) inherit
/// instead of re-rooting.
class ScopedTraceRoot {
 public:
  ScopedTraceRoot();
  ~ScopedTraceRoot();
  ScopedTraceRoot(const ScopedTraceRoot&) = delete;
  ScopedTraceRoot& operator=(const ScopedTraceRoot&) = delete;

  const TraceContext& context() const { return context_; }

 private:
  TraceContext context_;
  bool installed_ = false;
};

/// One completed span: a Chrome trace_event "X" (complete) event.
/// `trace_id` links the span to its request (0 = recorded outside any
/// request context); `flops`/`bytes` carry the static cost estimate for
/// graph-node spans (0 elsewhere) so tools/hg_trace_report.py can rank
/// hot nodes with arithmetic-intensity context.
struct TraceEvent {
  const char* name = nullptr;  ///< Must be a string with static lifetime.
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
};

/// Process-wide trace collector. Each thread writes completed spans into
/// its own fixed-capacity ring buffer (oldest events overwritten), so
/// recording never allocates on the hot path and threads never contend
/// with each other — only a snapshot briefly locks each ring.
///
/// Overwrites are not silent: each ring counts how many events it
/// dropped since the last Clear(), the total is exported as the
/// `hiergat.trace.dropped_events` counter, and the Chrome JSON reports
/// it in a `hiergatTrace` footer object so a truncated trace is
/// distinguishable from a quiet one.
///
/// Tracing is off by default: a disabled HG_TRACE_SPAN costs one relaxed
/// atomic load. Compiling with -DHIERGAT_NO_TRACING removes spans
/// entirely (the macro expands to nothing).
///
/// Usage:
///   obs::TraceRecorder::Global().Start();
///   ... run the workload (spans record automatically) ...
///   obs::TraceRecorder::Global().Stop();
///   obs::TraceRecorder::Global().WriteChromeTrace("trace.json");
/// Open the file in chrome://tracing or https://ui.perfetto.dev — one
/// track per thread, named via SetTraceThreadName, spans grouped per
/// request by the "trace" arg.
class TraceRecorder {
 public:
  /// Ring capacity per thread, in events.
  static constexpr size_t kEventsPerThread = 1 << 14;

  static TraceRecorder& Global();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Start() { enabled_.store(true, std::memory_order_relaxed); }
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span to the calling thread's ring. `trace_id`
  /// stamps the span's request; `flops`/`bytes` annotate graph-node
  /// cost (0 = omit from the serialized args).
  void Record(const char* name, uint64_t start_ns, uint64_t dur_ns,
              uint64_t trace_id = 0, int64_t flops = 0, int64_t bytes = 0);

  /// Names the calling thread's track in the exported trace (emitted as
  /// a thread_name metadata event). Safe to call with tracing disabled.
  void SetCurrentThreadName(const std::string& name);

  /// Drops all recorded events and drop counts (thread rings stay
  /// registered).
  void Clear();

  /// Total events currently buffered across all threads.
  size_t event_count() const;

  /// Events lost to ring wrap since the last Clear() (also exported as
  /// the `hiergat.trace.dropped_events` counter, which is cumulative).
  uint64_t dropped_count() const;

  /// Copies out every buffered event (all threads, ring order). Test
  /// and report hook — not meant for hot paths.
  std::vector<TraceEvent> SnapshotEvents() const;

  /// Chrome trace_event JSON ({"traceEvents": [...], "hiergatTrace":
  /// {"events": N, "dropped_events": M}}; ts/dur in microseconds, one
  /// tid per recording thread, per-request "trace" arg on each span).
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadRing {
    std::mutex mutex;
    uint64_t tid = 0;
    std::string name;
    std::vector<TraceEvent> events;  ///< Ring storage.
    size_t next = 0;
    bool wrapped = false;
    uint64_t dropped = 0;  ///< Events overwritten since last Clear().
  };

  ThreadRing& RingForThisThread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex rings_mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  uint64_t next_tid_ = 1;
};

/// Convenience wrapper for TraceRecorder::SetCurrentThreadName.
void SetTraceThreadName(const std::string& name);

/// RAII span. Construction samples the clock (and the thread's current
/// TraceContext) only when tracing is enabled; destruction records the
/// completed event. Use through HG_TRACE_SPAN so spans compile away
/// under HIERGAT_NO_TRACING.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceRecorder::Global().enabled()) {
      name_ = name;
      start_ns_ = MonotonicNowNs();
      trace_id_ = CurrentTraceContext().trace_id;
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Global().Record(name_, start_ns_,
                                     MonotonicNowNs() - start_ns_, trace_id_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< Null when tracing was off at entry.
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;
};

}  // namespace obs
}  // namespace hiergat

#define HG_TRACE_CONCAT_INNER(a, b) a##b
#define HG_TRACE_CONCAT(a, b) HG_TRACE_CONCAT_INNER(a, b)

#if defined(HIERGAT_NO_TRACING)
/// Tracing compiled out: spans are no-ops with zero code size/overhead.
#define HG_TRACE_SPAN(name) \
  do {                      \
  } while (false)
#else
/// Scoped trace span; `name` must be a string literal (or other
/// static-lifetime string). The span covers the rest of the enclosing
/// block.
#define HG_TRACE_SPAN(name) \
  ::hiergat::obs::TraceSpan HG_TRACE_CONCAT(hg_trace_span_, __LINE__)(name)
#endif

#endif  // HIERGAT_OBS_TRACE_H_
