#ifndef HIERGAT_BENCH_BENCH_COMMON_H_
#define HIERGAT_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "er/model.h"

namespace hiergat {
namespace bench {

/// Standardized machine-readable bench result. Every bench binary that
/// accepts `--json_out=PATH` serializes one of these so result
/// trajectories (BENCH_*.json) can be recorded and diffed; the schema
/// ("hiergat-bench-v1", validated by tools/check_bench_json.py) is:
///
///   {
///     "schema": "hiergat-bench-v1",
///     "benchmark": "<name>",
///     "params": { "backend": <string>, "<key>": <string|number>, ... },
///     "repetitions": <int >= 1>,
///     "latency_seconds": { "p50": <num>, "p95": <num> },
///     "throughput_items_per_sec": <num>,
///     "metrics": { "<key>": <num>, ... },
///     "graph_nodes": [ { "name": <string>, "replays": <int>,
///                        "seconds": <num>, "est_flops": <num>,
///                        "est_bytes": <num> }, ... ]   // optional
///   }
class BenchResult {
 public:
  explicit BenchResult(std::string benchmark);

  void AddParam(const std::string& key, const std::string& value);
  void AddParam(const std::string& key, const char* value);
  void AddParam(const std::string& key, double value);
  void AddParam(const std::string& key, int value);

  /// Extra numeric results (F1 scores, cache hit rates, speedups).
  void AddMetric(const std::string& key, double value);

  /// Per-op cost accounting row (DESIGN.md §12); `seconds` is the sampled
  /// replay wall time, zero when tracing was off for the run.
  void AddGraphNode(const std::string& name, int64_t replays, double seconds,
                    double est_flops, double est_bytes);

  /// Per-repetition wall times of the measured section; sets
  /// `repetitions` and the p50/p95 latency fields.
  void SetLatencies(const std::vector<double>& seconds);

  void set_throughput(double items_per_sec) { throughput_ = items_per_sec; }

  std::string ToJson() const;

 private:
  struct GraphNodeRow {
    std::string name;
    int64_t replays = 0;
    double seconds = 0.0;
    double est_flops = 0.0;
    double est_bytes = 0.0;
  };

  std::string benchmark_;
  /// Values pre-rendered as JSON (quoted strings or bare numbers).
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<GraphNodeRow> graph_nodes_;
  int repetitions_ = 1;
  double p50_latency_seconds_ = 0.0;
  double p95_latency_seconds_ = 0.0;
  double throughput_ = 0.0;
};

/// Extracts PATH from a `--json_out=PATH` argument ("" when absent).
std::string JsonOutPath(int argc, char** argv);

/// Writes `result` to `path` (no-op returning true for an empty path);
/// prints a warning and returns false on I/O failure.
bool WriteBenchJson(const std::string& path, const BenchResult& result);

/// Nearest-rank-with-interpolation percentile of a sample; p in [0, 1].
double PercentileOf(std::vector<double> values, double p);

/// Global size multiplier for all experiment harnesses. Defaults to a
/// single-core-friendly scale; set HIERGAT_BENCH_SCALE (e.g. 4.0) to run
/// closer to paper-sized workloads.
double Scale();

/// Integer environment knob with default.
int IntEnv(const char* name, int fallback);

/// Epochs for bench training runs (HIERGAT_BENCH_EPOCHS, default 6).
int BenchEpochs();

/// Clamps a scaled dataset size into the trainable band
/// [HIERGAT_BENCH_MIN_PAIRS=500, HIERGAT_BENCH_MAX_PAIRS=560]: below the
/// floor nothing learns; above the cap single-core runs crawl.
int ClampPairs(int scaled);

/// Shared training options for bench runs.
TrainOptions BenchTrainOptions(uint64_t seed = 42);

/// Fixed-width console table with a title and a footnote, used by every
/// experiment harness to print paper-vs-measured rows.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  /// Inserts a horizontal separator before the next row.
  void AddSeparator();
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;  // Empty row = separator.
};

/// Formats a float with fixed precision ("93.3").
std::string Fmt(double value, int precision = 1);
/// Formats an F1 in percent from [0,1] ("93.3").
std::string Pct(double f1);

/// Prints the standard bench header (what the experiment reproduces and
/// at which scale).
void PrintHeader(const std::string& experiment, const std::string& claim);

}  // namespace bench
}  // namespace hiergat

#endif  // HIERGAT_BENCH_BENCH_COMMON_H_
