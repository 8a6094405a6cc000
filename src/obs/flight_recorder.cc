#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "core/logging.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {
namespace obs {

namespace {

// Set once a crash path has dumped the ring, so a fatal-hook dump
// followed by the SIGABRT from std::abort does not dump twice.
std::atomic<bool> g_dumped{false};

// Formats and writes one line with write(2); snprintf into a stack
// buffer keeps the path allocation-free (async-signal-safe in practice,
// which is the bar for a crash handler that ends in abort anyway).
void WriteLine(const char* buf, size_t len) {
  ssize_t ignored = write(STDERR_FILENO, buf, len);
  (void)ignored;
}

// Trace drain destination for clean shutdowns; guarded by its own mutex
// (never touched from signal handlers).
std::mutex g_drain_path_mutex;
std::string g_drain_path;  // NOLINT: process-lifetime, set-before-drain.

void CrashSignalHandler(int signum) {
  char header[96];
  const int n = std::snprintf(header, sizeof(header),
                              "[flight recorder] fatal signal %d\n", signum);
  if (n > 0 && !g_dumped.load(std::memory_order_acquire)) {
    WriteLine(header, static_cast<size_t>(n));
  }
  DrainAndDump(/*fatal=*/true);
  // Restore default disposition and re-raise so the process still dies
  // with the original signal (and core-dumps where configured).
  std::signal(signum, SIG_DFL);
  raise(signum);
}

void FatalCheckHook(const char* /*message*/) {
  // The failing check's message already went to stderr; record the
  // failure itself, then dump the tail of recent events once.
  RecordFlightEvent(FlightEventKind::kCheckFail, "HG_CHECK");
  DrainAndDump(/*fatal=*/true);
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kJobEnqueue: return "job_enqueue";
    case FlightEventKind::kJobStart: return "job_start";
    case FlightEventKind::kJobDone: return "job_done";
    case FlightEventKind::kCacheEviction: return "cache_eviction";
    case FlightEventKind::kGraphCompile: return "graph_compile";
    case FlightEventKind::kGraphCaptureFail: return "graph_capture_fail";
    case FlightEventKind::kGraphInvalidate: return "graph_invalidate";
    case FlightEventKind::kCheckFail: return "check_fail";
    case FlightEventKind::kLogError: return "log_error";
    case FlightEventKind::kSessionOpen: return "session_open";
    case FlightEventKind::kServeReload: return "serve_reload";
    case FlightEventKind::kServeShed: return "serve_shed";
  }
  return "unknown";
}

void SetTraceDrainPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_drain_path_mutex);
  g_drain_path = path;
}

std::string TraceDrainPath() {
  std::lock_guard<std::mutex> lock(g_drain_path_mutex);
  return g_drain_path;
}

void DrainAndDump(bool fatal) {
  if (!fatal) {
    // Clean path only: serializing the trace rings allocates, which a
    // crash handler must not do.
    const std::string path = TraceDrainPath();
    if (!path.empty() && TraceRecorder::Global().event_count() > 0) {
      if (TraceRecorder::Global().WriteChromeTrace(path)) {
        HG_LOG(INFO) << "drained " << TraceRecorder::Global().event_count()
                     << " trace event(s) to " << path;
      } else {
        HG_LOG(ERROR) << "failed to drain trace events to " << path;
      }
    }
  }
  if (!g_dumped.exchange(true, std::memory_order_acq_rel)) {
    FlightRecorder::Global().DumpToStderr();
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder() { InstallCrashHandlers(); }

void FlightRecorder::InstallCrashHandlers() {
  internal_logging::SetFatalHook(&FatalCheckHook);
  const int kSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};
  for (int signum : kSignals) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &CrashSignalHandler;
    sigemptyset(&action.sa_mask);
    // NODEFER so the re-raise inside the handler is delivered.
    action.sa_flags = SA_NODEFER;
    sigaction(signum, &action, nullptr);
  }
}

void FlightRecorder::Record(FlightEventKind kind, const char* detail,
                            int64_t a, int64_t b) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(seq - 1) % kCapacity];
  // Relaxed stores: a concurrent dump may read a half-written slot (one
  // misreported event in a post-mortem tail) — accepted so the write
  // path stays wait-free. seq is stored last with release so a slot
  // whose seq matches usually carries that event's fields.
  slot.ts_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
  slot.trace_id.store(CurrentTraceContext().trace_id,
                      std::memory_order_relaxed);
  slot.kind.store(static_cast<int32_t>(kind), std::memory_order_relaxed);
  slot.detail.store(detail, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(kCapacity);
  for (const Slot& slot : slots_) {
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    FlightEvent event;
    event.seq = seq;
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    event.kind = static_cast<FlightEventKind>(
        slot.kind.load(std::memory_order_relaxed));
    event.detail = slot.detail.load(std::memory_order_relaxed);
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return events;
}

void FlightRecorder::DumpToStderr() const {
  // No Snapshot()/sort here: stack buffers and write(2) only. Events
  // print in slot order starting after the newest slot, which is ring
  // (oldest-first) order once the ring has wrapped.
  const uint64_t recorded = next_seq_.load(std::memory_order_relaxed);
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "[flight recorder] last events (%llu recorded, "
                        "capacity %llu):\n",
                        static_cast<unsigned long long>(recorded),
                        static_cast<unsigned long long>(kCapacity));
  if (n > 0) WriteLine(buf, static_cast<size_t>(n));
  const size_t start = recorded % kCapacity;
  for (size_t i = 0; i < kCapacity; ++i) {
    const Slot& slot = slots_[(start + i) % kCapacity];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    const FlightEventKind kind = static_cast<FlightEventKind>(
        slot.kind.load(std::memory_order_relaxed));
    const char* detail = slot.detail.load(std::memory_order_relaxed);
    n = std::snprintf(
        buf, sizeof(buf),
        "  #%-6llu ts=%lldns trace=%llu %-18s %s a=%lld b=%lld\n",
        static_cast<unsigned long long>(seq),
        static_cast<long long>(slot.ts_ns.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            slot.trace_id.load(std::memory_order_relaxed)),
        FlightEventKindName(kind), detail != nullptr ? detail : "",
        static_cast<long long>(slot.a.load(std::memory_order_relaxed)),
        static_cast<long long>(slot.b.load(std::memory_order_relaxed)));
    if (n > 0) WriteLine(buf, static_cast<size_t>(n));
  }
}

void FlightRecorder::Clear() {
  for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
  next_seq_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace hiergat
