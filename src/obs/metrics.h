#ifndef HIERGAT_OBS_METRICS_H_
#define HIERGAT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hiergat {
namespace obs {

/// Monotonic event counter. Increment is a single relaxed atomic add, so
/// counters are safe (and cheap) on scoring hot paths.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, cache size, epoch
/// loss). Set/Add are lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Observe is a handful of relaxed atomics (no
/// lock), so it is safe on hot paths; reads take a consistent-enough
/// snapshot for percentile estimation. The default bucket ladder is a
/// 1-2-5 decade sequence from 1 microsecond to 10 seconds, sized for
/// latencies recorded in seconds.
class Histogram {
 public:
  /// Upper bucket bounds in ascending order; an implicit overflow bucket
  /// catches everything above the last bound.
  explicit Histogram(std::vector<double> bounds = DefaultLatencyBounds());

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;   ///< Upper bounds, parallel to counts.
    std::vector<int64_t> counts;  ///< counts.size() == bounds.size() + 1.
    int64_t count = 0;
    double sum = 0.0;

    /// Percentile estimate (q in [0, 1]) by linear interpolation inside
    /// the containing bucket; values in the overflow bucket report the
    /// last bound. Returns 0 for an empty histogram.
    double Percentile(double q) const;
  };
  Snapshot TakeSnapshot() const;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

  static std::vector<double> DefaultLatencyBounds();

  /// Geometric ladder: n bounds {start, start*factor, start*factor^2,
  /// ...}. The purpose-fit alternative to DefaultLatencyBounds when a
  /// metric's dynamic range is known — e.g. ExponentialBounds(1, 2, 16)
  /// for batch sizes (1 .. 32768 items) or ExponentialBounds(1e-7, 4,
  /// 12) for graph-node times (100ns .. ~0.4s). Requires start > 0,
  /// factor > 1, n >= 1.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int n);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1 slots.
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide registry of named metrics. Lookup takes a mutex; the
/// returned references are stable for the process lifetime, so hot paths
/// resolve a metric once (static local) and then touch only its atomics.
///
/// Naming scheme: `hiergat.<component>.<name>` — e.g.
/// `hiergat.engine.jobs`, `hiergat.cache.hits` (see DESIGN.md §8).
class MetricsRegistry {
 public:
  /// The process-wide registry (leaky singleton: never destructed, so
  /// metric references stay valid in static destructors).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. A name registers as exactly one
  /// kind; requesting an existing name as a different kind is fatal.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds =
                              Histogram::DefaultLatencyBounds());

  /// Prometheus text exposition (dots in names become underscores;
  /// histograms emit cumulative `_bucket{le=...}`, `_sum`, `_count`).
  std::string PrometheusText() const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, p50, p95}}}.
  std::string JsonDump() const;

  /// Name/value snapshot of every counter whose name starts with
  /// `prefix`, in name order. Lets callers enumerate families of
  /// dynamically named counters (e.g. `hiergat.graph.node.*`) without
  /// parsing a JSON dump.
  std::vector<std::pair<std::string, int64_t>> CounterValues(
      const std::string& prefix) const;

  /// Zeroes every metric's value. Registered objects (and references to
  /// them) stay valid — this resets data, not the registry shape.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Monotonic (steady_clock) nanoseconds; the shared timebase of latency
/// metrics and trace spans.
uint64_t MonotonicNowNs();

/// Wall-clock span helper: records seconds since construction into a
/// histogram on destruction. For trace spans use HG_TRACE_SPAN instead;
/// this feeds aggregate latency metrics.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram);
  ~ScopedLatency();

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace hiergat

#endif  // HIERGAT_OBS_METRICS_H_
