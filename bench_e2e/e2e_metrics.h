#ifndef HIERGAT_BENCH_E2E_E2E_METRICS_H_
#define HIERGAT_BENCH_E2E_E2E_METRICS_H_

// Quality, latency and host-speed arithmetic of the end-to-end bench,
// kept apart from bench_e2e.cc so e2e_metrics_test can check it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hiergat {
namespace e2e {

/// Disjoint-set forest over record ids 0..n-1 (path halving, union by
/// size). The bench's clustering stage: every pair scored at or above
/// the match threshold merges its two records.
class UnionFind {
 public:
  explicit UnionFind(int n)
      : parent_(static_cast<size_t>(n)), size_(parent_.size(), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      int& p = parent_[static_cast<size_t>(x)];
      p = parent_[static_cast<size_t>(p)];
      x = p;
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[static_cast<size_t>(a)] < size_[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<size_t>(b)] = a;
    size_[static_cast<size_t>(a)] += size_[static_cast<size_t>(b)];
  }

  /// Root of every record: the predicted cluster labels.
  std::vector<int> Labels() {
    std::vector<int> labels(parent_.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = Find(static_cast<int>(i));
    }
    return labels;
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

/// Pair counts behind a pairwise precision / recall / F1.
struct PairCounts {
  int64_t true_pairs = 0;  ///< Predicted pairs that are gold pairs.
  int64_t predicted_pairs = 0;
  int64_t gold_pairs = 0;

  double F1() const {
    const int64_t denominator = predicted_pairs + gold_pairs;
    return denominator > 0 ? 2.0 * static_cast<double>(true_pairs) /
                                 static_cast<double>(denominator)
                           : 0.0;
  }
};

inline int64_t PairsIn(int64_t n) { return n * (n - 1) / 2; }

/// Pairwise cluster F1 counts from the predicted-by-gold contingency
/// table: a record pair is predicted when both records share a
/// predicted label, gold when they share a gold label. Summing C(n, 2)
/// over cells, rows and columns never enumerates the pairs, which are
/// quadratic in the size of one giant predicted cluster.
inline PairCounts ClusterPairCounts(const std::vector<int>& predicted,
                                    const std::vector<int>& gold) {
  std::unordered_map<int, int64_t> rows, columns;
  std::unordered_map<uint64_t, int64_t> cells;
  for (size_t i = 0; i < predicted.size(); ++i) {
    ++rows[predicted[i]];
    ++columns[gold[i]];
    const uint64_t cell =
        static_cast<uint64_t>(static_cast<uint32_t>(predicted[i])) << 32 |
        static_cast<uint32_t>(gold[i]);
    ++cells[cell];
  }
  PairCounts counts;
  for (const auto& [cell, n] : cells) counts.true_pairs += PairsIn(n);
  for (const auto& [label, n] : rows) counts.predicted_pairs += PairsIn(n);
  for (const auto& [label, n] : columns) counts.gold_pairs += PairsIn(n);
  return counts;
}

/// Cumulative blocking recall after each band: entry k counts the gold
/// pairs emitted in bands 0..k over all gold pairs. `gold_hit_bands`
/// holds the band of every emitted candidate pair that is a gold pair.
inline std::vector<double> CumulativeBandRecall(
    const std::vector<int>& gold_hit_bands, int bands, int64_t gold_pairs) {
  std::vector<double> recall(static_cast<size_t>(bands), 0.0);
  if (gold_pairs <= 0) return recall;
  std::vector<int64_t> hits(static_cast<size_t>(bands), 0);
  for (const int band : gold_hit_bands) ++hits[static_cast<size_t>(band)];
  int64_t running = 0;
  for (size_t k = 0; k < hits.size(); ++k) {
    running += hits[k];
    recall[k] =
        static_cast<double>(running) / static_cast<double>(gold_pairs);
  }
  return recall;
}

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// A latency summary carries its sample count, so a reader can tell
/// whether its tail percentile has the samples beyond it that make it a
/// measurement rather than the maximum.
struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  size_t samples = 0;
  size_t beyond_p95 = 0;  ///< Samples strictly above the p95.
};

inline LatencySummary SummarizeLatencies(const std::vector<double>& values) {
  LatencySummary summary;
  summary.samples = values.size();
  summary.p50 = Percentile(values, 0.50);
  summary.p95 = Percentile(values, 0.95);
  summary.beyond_p95 = static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > summary.p95; }));
  return summary;
}

/// The times of one fixed piece of reference work, run again and again
/// between the timed intervals of a run. Its time tracks the speed the
/// host gives the process at that moment; ReferenceSeconds converts a
/// wall interval into the seconds it would have taken at the reference
/// speed, the speed at which the work takes `reference_s`.
class HostSpeed {
 public:
  explicit HostSpeed(double reference_s) : reference_s_(reference_s) {}

  /// Records one run of the reference work. Runs are added in time
  /// order and do not overlap.
  void Add(uint64_t start_ns, uint64_t end_ns) {
    probes_.push_back({start_ns, end_ns});
  }

  /// Wall seconds of [start_ns, end_ns) times the reference time over
  /// the mean time of the last probe that ended by start_ns and the
  /// first that started at or after end_ns (or of the one of them that
  /// exists; the wall seconds if neither does).
  double ReferenceSeconds(uint64_t start_ns, uint64_t end_ns) const {
    const double wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
    const auto after = std::partition_point(
        probes_.begin(), probes_.end(),
        [&](const Probe& p) { return p.start_ns < end_ns; });
    const auto ended = std::partition_point(
        probes_.begin(), probes_.end(),
        [&](const Probe& p) { return p.end_ns <= start_ns; });
    double sum = 0.0;
    int n = 0;
    if (ended != probes_.begin()) {
      sum += std::prev(ended)->Seconds();
      ++n;
    }
    if (after != probes_.end()) {
      sum += after->Seconds();
      ++n;
    }
    return n == 0 ? wall_s : wall_s * reference_s_ * n / sum;
  }

  /// Seconds spent in probes that lie wholly inside [start_ns, end_ns).
  double ProbeSecondsWithin(uint64_t start_ns, uint64_t end_ns) const {
    double sum = 0.0;
    for (const Probe& p : probes_) {
      if (p.start_ns >= start_ns && p.end_ns <= end_ns) sum += p.Seconds();
    }
    return sum;
  }

  /// Median probe time over the reference time: how many times slower
  /// than the reference the host ran.
  double MedianSlowdown() const {
    std::vector<double> seconds;
    for (const Probe& p : probes_) seconds.push_back(p.Seconds());
    return Percentile(seconds, 0.5) / reference_s_;
  }

 private:
  struct Probe {
    uint64_t start_ns;
    uint64_t end_ns;
    double Seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  double reference_s_;
  std::vector<Probe> probes_;
};

}  // namespace e2e
}  // namespace hiergat

#endif  // HIERGAT_BENCH_E2E_E2E_METRICS_H_
