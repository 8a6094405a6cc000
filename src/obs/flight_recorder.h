#ifndef HIERGAT_OBS_FLIGHT_RECORDER_H_
#define HIERGAT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hiergat {
namespace obs {

/// What a flight-recorder event describes. Keep this list in sync with
/// FlightEventKindName() — the names appear in crash dumps. Values are
/// stable across releases; 4 is retired and must not be reused.
enum class FlightEventKind : int32_t {
  kJobEnqueue = 1,    ///< Engine job queued; a = items, b = engine depth.
  kJobStart = 2,      ///< Engine job began executing; a = items.
  kJobDone = 3,       ///< Engine job finished; a = items.
  kCacheEviction = 5,   ///< Summary-cache flush; a = evicted, b = size after.
  kGraphCompile = 6,    ///< Scoring graph captured; a = key (e.g. length).
  kGraphCaptureFail = 7,  ///< Capture hit an unsupported op; eager fallback.
  kGraphInvalidate = 8,   ///< Compiled graphs dropped; a = graphs discarded.
  kCheckFail = 9,     ///< HG_CHECK failed (recorded by the fatal hook).
  kLogError = 10,     ///< HG_LOG(ERROR) emitted.
  kSessionOpen = 11,  ///< er::Session opened a model.
  kServeReload = 12,  ///< Registry hot-swapped a model; a = old refcount.
  kServeShed = 13,    ///< DynamicBatcher queue cap hit; a = pairs, b = queued.
};

/// Name for dumps; never returns null.
const char* FlightEventKindName(FlightEventKind kind);

/// One recorded event. `detail` must point at a string with static
/// lifetime (a literal at the call site) — the recorder stores the
/// pointer, never copies, so dumping from a signal handler needs no
/// allocation and a torn slot cannot dangle.
struct FlightEvent {
  uint64_t seq = 0;    ///< 1-based global sequence number.
  uint64_t ts_ns = 0;  ///< MonotonicNowNs() at record time.
  uint64_t trace_id = 0;  ///< Request context at record time (0 = none).
  FlightEventKind kind = FlightEventKind::kJobEnqueue;
  const char* detail = nullptr;
  int64_t a = 0;
  int64_t b = 0;
};

/// Lock-free ring of the last kCapacity structured events — the "what
/// was the process doing just before it died" record. Writers claim a
/// slot with one atomic increment and fill it with relaxed stores;
/// there are no locks anywhere on the write or dump path, so the dump
/// can run from the HG_CHECK fatal hook or a fatal-signal handler
/// without deadlocking on a mutex the crashing thread may hold.
///
/// The trade-off is that a dump taken while writers race may contain a
/// few torn slots (fields from two events). Slots are all-atomic so the
/// races are benign for TSan and for the reader; a torn slot misreports
/// an event, never corrupts the process. For a post-mortem tail of
/// recent events that is the right trade.
///
/// Events record unconditionally (independent of TraceRecorder's
/// enabled flag): recording is ~6 relaxed atomic stores and the sites
/// are coarse (jobs, evictions, invalidations), so the cost is noise
/// and the recorder is never empty when a crash needs it.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 1 << 10;

  /// Process-wide recorder (leaky singleton). First use installs the
  /// HG_CHECK fatal hook and fatal-signal handlers (SIGSEGV, SIGBUS,
  /// SIGILL, SIGFPE, SIGABRT) that dump the ring to stderr before the
  /// process dies.
  static FlightRecorder& Global();

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event, stamped with the calling thread's current
  /// TraceContext. `detail` must have static lifetime.
  void Record(FlightEventKind kind, const char* detail, int64_t a = 0,
              int64_t b = 0);

  /// Total events ever recorded (>= what the ring still holds).
  uint64_t recorded_count() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Copies out the buffered events, oldest first. Skips slots being
  /// written this instant; best-effort by design.
  std::vector<FlightEvent> Snapshot() const;

  /// Writes the ring to stderr using only write(2) and stack buffers —
  /// safe from the fatal hook and from signal handlers.
  void DumpToStderr() const;

  /// Empties the ring (test hook; not signal-safe).
  void Clear();

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = never written.
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<int32_t> kind{0};
    std::atomic<const char*> detail{nullptr};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
  };

  void InstallCrashHandlers();

  Slot slots_[kCapacity];
  std::atomic<uint64_t> next_seq_{0};
};

/// Shorthand for FlightRecorder::Global().Record(...). The instrumented
/// subsystems (engine, caches, graph compiler) call this; it is cheap
/// enough to stay on in release builds.
inline void RecordFlightEvent(FlightEventKind kind, const char* detail,
                              int64_t a = 0, int64_t b = 0) {
  FlightRecorder::Global().Record(kind, detail, a, b);
}

/// Where DrainAndDump writes buffered trace spans ("" = skip the trace
/// flush, the default). Long-lived processes (tools/hiergat_serve) set
/// this from a --trace_out flag so a clean-shutdown drain lands the
/// Perfetto JSON on disk.
void SetTraceDrainPath(const std::string& path);
std::string TraceDrainPath();

/// Flushes observability state before the process exits, exactly once:
/// writes the trace rings to the drain path (when set and events are
/// buffered) and dumps the flight-recorder ring to stderr. Both exit
/// paths share it — the fatal path (HG_CHECK hook, fatal-signal
/// handlers) calls DrainAndDump(/*fatal=*/true), which restricts to
/// async-signal-safe work (the write(2) flight dump only); a clean
/// SIGTERM/SIGINT drain calls DrainAndDump() and also gets the trace
/// flush. Subsequent calls are no-ops, so a clean drain followed by a
/// crash does not dump twice.
void DrainAndDump(bool fatal = false);

}  // namespace obs
}  // namespace hiergat

#endif  // HIERGAT_OBS_FLIGHT_RECORDER_H_
