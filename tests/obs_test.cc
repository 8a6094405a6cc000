// Tests for the observability layer (src/obs): metrics correctness
// under contention, trace span capture and Chrome JSON shape,
// request-scoped trace-context propagation across the engine /
// threadpool / graph replay, the flight recorder, and log-level
// filtering. Runs under the TSan preset (ctest -L obs).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <sstream>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/logging.h"
#include "er/engine.h"
#include "er/model.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace hiergat {
namespace obs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 5000;

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kOpsPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kOpsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, ConcurrentAddsAllLand) {
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge]() {
      for (int i = 0; i < kOpsPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), double{kThreads} * kOpsPerThread);
  gauge.Set(-2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.5);
}

TEST(HistogramTest, ConcurrentObservesStayConsistent) {
  Histogram histogram({1.0, 2.0, 5.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        histogram.Observe(0.5 + t);  // Spread across buckets.
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kOpsPerThread);
  ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
  int64_t bucket_total = 0;
  for (int64_t c : snap.counts) bucket_total += c;
  // Snapshot invariant: the reported count is derived from the buckets.
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram histogram({1.0, 2.0, 5.0, 10.0});
  for (int i = 0; i < 100; ++i) histogram.Observe(1.5);  // (1, 2] bucket.
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  const double p50 = snap.Percentile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_EQ(Histogram().TakeSnapshot().Percentile(0.5), 0.0);
}

TEST(MetricsRegistryTest, NamesResolveToStableObjects) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("hiergat.test.stable");
  Counter& b = registry.GetCounter("hiergat.test.stable");
  EXPECT_EQ(&a, &b);
  a.Increment(7);
  registry.ResetAll();
  // ResetAll zeroes data but keeps the object (hot-path references
  // cached in static locals must survive).
  EXPECT_EQ(&registry.GetCounter("hiergat.test.stable"), &a);
  EXPECT_EQ(a.Value(), 0);
}

TEST(MetricsRegistryTest, CounterValuesFiltersByPrefix) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("hiergat.test.prefix.alpha").Increment(3);
  registry.GetCounter("hiergat.test.prefix.beta").Increment(5);
  registry.GetCounter("hiergat.test.prefixz.gamma").Increment(7);
  const auto values = registry.CounterValues("hiergat.test.prefix.");
  ASSERT_EQ(values.size(), 2u);
  // Map iteration order: lexicographic by name.
  EXPECT_EQ(values[0].first, "hiergat.test.prefix.alpha");
  EXPECT_EQ(values[0].second, 3);
  EXPECT_EQ(values[1].first, "hiergat.test.prefix.beta");
  EXPECT_EQ(values[1].second, 5);
}

TEST(HistogramTest, ExponentialBoundsBuildGeometricLadder) {
  const std::vector<double> bounds = Histogram::ExponentialBounds(1e-6, 4.0, 12);
  ASSERT_EQ(bounds.size(), 12u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_NEAR(bounds[i] / bounds[i - 1], 4.0, 1e-9);
  }
  // A histogram built from the ladder keeps the snapshot invariant.
  Histogram histogram(Histogram::ExponentialBounds(1.0, 2.0, 4));
  histogram.Observe(3.0);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.bounds.size(), 4u);
  EXPECT_EQ(snap.count, 1);
}

TEST(MetricsRegistryTest, SnapshotExportsStayWellFormedUnderWrites) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("hiergat.test.export_counter");
  Gauge& gauge = registry.GetGauge("hiergat.test.export_gauge");
  Histogram& histogram =
      registry.GetHistogram("hiergat.test.export_histogram");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&]() {
      // At least one write even if `stop` lands before this thread is
      // ever scheduled (single-core hosts).
      do {
        counter.Increment();
        gauge.Add(0.25);
        histogram.Observe(0.001);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string prom = registry.PrometheusText();
    EXPECT_NE(prom.find("hiergat_test_export_counter"), std::string::npos);
    EXPECT_NE(prom.find("hiergat_test_export_histogram_bucket"),
              std::string::npos);
    const std::string json = registry.JsonDump();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"hiergat.test.export_gauge\""), std::string::npos);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(counter.Value(), 0);
}

#if !defined(HIERGAT_NO_TRACING)

TEST(TraceTest, NestedSpansRecordWithContainment) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Start();
  {
    HG_TRACE_SPAN("outer");
    {
      HG_TRACE_SPAN("inner");
    }
  }
  recorder.Stop();
  EXPECT_EQ(recorder.event_count(), 2u);

  const std::string json = recorder.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Inner closes before outer, so it serializes first; both carry the
  // same tid (this thread's track).
  EXPECT_LT(json.find("\"inner\""), json.find("\"outer\""));
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(TraceTest, MultiThreadSpansGetDistinctTracks) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t]() {
      SetTraceThreadName("obs-test-worker-" + std::to_string(t));
      for (int i = 0; i < 10; ++i) {
        HG_TRACE_SPAN("work");
      }
    });
  }
  for (auto& t : threads) t.join();
  recorder.Stop();
  EXPECT_GE(recorder.event_count(), 40u);
  const std::string json = recorder.ChromeTraceJson();
  for (int t = 0; t < 4; ++t) {
    EXPECT_NE(json.find("obs-test-worker-" + std::to_string(t)),
              std::string::npos);
  }
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  recorder.Clear();
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  ASSERT_FALSE(recorder.enabled());
  {
    HG_TRACE_SPAN("ignored");
  }
  EXPECT_EQ(recorder.event_count(), 0u);
}

#endif  // !HIERGAT_NO_TRACING

TEST(TraceContextTest, ScopedRootInstallsOnlyWhenAbsent) {
  ASSERT_FALSE(CurrentTraceContext().active());
  uint64_t outer_id = 0;
  {
    ScopedTraceRoot root;
    outer_id = root.context().trace_id;
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(CurrentTraceContext().trace_id, outer_id);
    {
      // A nested entry point (ScoreBatch called from an engine worker)
      // must inherit the live request, not start a new one.
      ScopedTraceRoot nested;
      EXPECT_EQ(nested.context().trace_id, outer_id);
      EXPECT_EQ(CurrentTraceContext().trace_id, outer_id);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, outer_id);
  }
  EXPECT_FALSE(CurrentTraceContext().active());
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  const TraceContext first = NewTraceContext();
  const TraceContext second = NewTraceContext();
  EXPECT_NE(first.trace_id, second.trace_id);
  {
    ScopedTraceContext outer(first);
    EXPECT_EQ(CurrentTraceContext().trace_id, first.trace_id);
    {
      ScopedTraceContext inner(second);
      EXPECT_EQ(CurrentTraceContext().trace_id, second.trace_id);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, first.trace_id);
  }
  EXPECT_FALSE(CurrentTraceContext().active());
}

#if !defined(HIERGAT_NO_TRACING)

TEST(TraceContextTest, ThreadPoolChunksInheritDispatcherContext) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();

  const TraceContext context = NewTraceContext();
  std::mutex seen_mutex;
  std::set<uint64_t> seen_ids;

  ThreadPool pool(3);
  recorder.Start();
  {
    ScopedTraceContext request(context);
    pool.ParallelFor(0, 64, 4, [&](int64_t begin, int64_t end) {
      (void)begin;
      (void)end;
      HG_TRACE_SPAN("obs-test.chunk");
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen_ids.insert(CurrentTraceContext().trace_id);
    });
  }
  recorder.Stop();

  // Every chunk — worker-run or caller-run — saw exactly the
  // dispatcher's context.
  ASSERT_EQ(seen_ids.size(), 1u);
  EXPECT_EQ(*seen_ids.begin(), context.trace_id);
  size_t chunk_spans = 0;
  for (const TraceEvent& event : recorder.SnapshotEvents()) {
    if (std::string(event.name) != "obs-test.chunk") continue;
    ++chunk_spans;
    EXPECT_EQ(event.trace_id, context.trace_id);
  }
  EXPECT_GE(chunk_spans, 1u);
  recorder.Clear();
}

// A scoring model that records which trace context its ScoreBatch calls
// observe — the engine must hand the caller's request context to every
// worker thread.
class ContextProbeModel : public PairwiseModel {
 public:
  std::string name() const override { return "context-probe"; }
  void Train(const PairDataset&, const TrainOptions&) override {}

  std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const override {
    HG_TRACE_SPAN("obs-test.score_batch");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen_ids_.insert(CurrentTraceContext().trace_id);
    }
    return std::vector<float>(pairs.size(), 0.5f);
  }

  std::set<uint64_t> seen_ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_ids_;
  }

 protected:
  float ScorePair(const EntityPair&) const override { return 0.5f; }

 private:
  mutable std::mutex mutex_;
  mutable std::set<uint64_t> seen_ids_;
};

TEST(TraceContextTest, EngineWorkersCarryCallerRequestContext) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();

  ContextProbeModel model;
  EngineOptions options;
  options.num_threads = 3;
  InferenceEngine engine(options);
  const std::vector<EntityPair> pairs(64);

  const TraceContext context = NewTraceContext();
  recorder.Start();
  {
    ScopedTraceContext request(context);
    const std::vector<float> scores = engine.Score(model, pairs);
    ASSERT_EQ(scores.size(), pairs.size());
  }
  recorder.Stop();

  // Every worker's ScoreBatch ran under the caller's request id — the
  // whole fan-out is one trace, not one per worker thread.
  const std::set<uint64_t> seen = model.seen_ids();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), context.trace_id);
  // And every span recorded during the job (engine job, per-range
  // spans, model spans) carries that id.
  size_t spans = 0;
  for (const TraceEvent& event : recorder.SnapshotEvents()) {
    ++spans;
    EXPECT_EQ(event.trace_id, context.trace_id)
        << "span " << event.name << " lost the request context";
  }
  EXPECT_GE(spans, 2u);
  recorder.Clear();
}

TEST(TraceContextTest, ScoreWithoutCallerContextRootsItself) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();

  ContextProbeModel model;
  EngineOptions options;
  options.num_threads = 2;
  InferenceEngine engine(options);
  const std::vector<EntityPair> pairs(16);

  ASSERT_FALSE(CurrentTraceContext().active());
  recorder.Start();
  (void)engine.Score(model, pairs);
  recorder.Stop();

  // RunJob's ScopedTraceRoot minted a request id; workers inherited it.
  const std::set<uint64_t> seen = model.seen_ids();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_NE(*seen.begin(), 0u);
  EXPECT_FALSE(CurrentTraceContext().active());
  recorder.Clear();
}

TEST(TraceContextTest, GraphReplayNodesCarryContextAndCosts) {
  NoGradGuard no_grad;
  const int m = 4, k = 8, n = 2;
  std::vector<float> weight_data(static_cast<size_t>(k * n), 0.25f);
  Tensor w = Tensor::FromVector({k, n}, weight_data);
  Tensor x = Tensor::Zeros({m, k});
  graph::GraphCapture capture;
  capture.MarkInput(x);
  Tensor y = MatMul(x, w);
  capture.MarkOutput(y);
  auto compiled_or = capture.Finish();
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  auto compiled = std::move(compiled_or).value();

  // Plan-time static costs: one MatMul node, exact 2*m*n*k FLOPs,
  // nonzero f32 traffic.
  const auto& costs = compiled->node_costs();
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_EQ(std::string(costs[0].name), "MatMul");
  EXPECT_EQ(costs[0].flops, int64_t{2} * m * n * k);
  EXPECT_GT(costs[0].bytes, 0);
  EXPECT_EQ(compiled->stats().est_flops, costs[0].flops);

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const TraceContext context = NewTraceContext();
  std::vector<float> input(static_cast<size_t>(m * k), 1.0f);
  std::vector<float> output(static_cast<size_t>(m * n));
  const float* inputs[] = {input.data()};
  float* outputs[] = {output.data()};
  recorder.Start();
  {
    ScopedTraceContext request(context);
    compiled->Run(inputs, outputs);
  }
  recorder.Stop();

  // The replayed node's span is stamped with the request id and the
  // static cost estimate.
  bool found = false;
  for (const TraceEvent& event : recorder.SnapshotEvents()) {
    if (std::string(event.name) != "MatMul") continue;
    found = true;
    EXPECT_EQ(event.trace_id, context.trace_id);
    EXPECT_EQ(event.flops, costs[0].flops);
    EXPECT_EQ(event.bytes, costs[0].bytes);
  }
  EXPECT_TRUE(found);
  recorder.Clear();

  // Replay counters accumulated under hiergat.graph.node.MatMul.*.
  const auto node_counters =
      MetricsRegistry::Global().CounterValues("hiergat.graph.node.MatMul.");
  bool saw_replays = false;
  for (const auto& [metric_name, value] : node_counters) {
    if (metric_name == "hiergat.graph.node.MatMul.replays") {
      saw_replays = true;
      EXPECT_GE(value, 1);
    }
  }
  EXPECT_TRUE(saw_replays);
}

TEST(TraceTest, RingOverwritesAreCountedAndReported) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  ASSERT_EQ(recorder.dropped_count(), 0u);

  Counter& global_drops =
      MetricsRegistry::Global().GetCounter("hiergat.trace.dropped_events");
  const int64_t drops_before = global_drops.Value();

  constexpr uint64_t kOverflow = 100;
  const uint64_t total = TraceRecorder::kEventsPerThread + kOverflow;
  // Record on a dedicated thread so exactly one ring wraps.
  std::thread writer([&recorder, total]() {
    for (uint64_t i = 0; i < total; ++i) {
      recorder.Record("obs-test.flood", i, 1);
    }
  });
  writer.join();

  EXPECT_EQ(recorder.dropped_count(), kOverflow);
  EXPECT_EQ(global_drops.Value() - drops_before,
            static_cast<int64_t>(kOverflow));
  // The Chrome JSON footer carries the per-export drop total, so a
  // truncated trace is distinguishable from a quiet one.
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_NE(json.find("\"hiergatTrace\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":100"), std::string::npos);
  recorder.Clear();
  EXPECT_EQ(recorder.dropped_count(), 0u);
}

#endif  // !HIERGAT_NO_TRACING

TEST(FlightRecorderTest, RecordsSnapshotInSequenceOrder) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();

  const obs::TraceContext context = NewTraceContext();
  {
    ScopedTraceContext request(context);
    RecordFlightEvent(FlightEventKind::kJobEnqueue, "obs-test", 10, 2);
    RecordFlightEvent(FlightEventKind::kJobStart, "obs-test", 10);
    RecordFlightEvent(FlightEventKind::kJobDone, "obs-test", 10);
  }

  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kJobEnqueue);
  EXPECT_EQ(events[1].kind, FlightEventKind::kJobStart);
  EXPECT_EQ(events[2].kind, FlightEventKind::kJobDone);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].a, 10);
  EXPECT_EQ(events[0].b, 2);
  EXPECT_EQ(std::string(events[0].detail), "obs-test");
  // Flight events are stamped with the request context too, so a crash
  // dump names the request that was in flight.
  EXPECT_EQ(events[0].trace_id, context.trace_id);
  recorder.Clear();
}

TEST(FlightRecorderTest, RingWrapKeepsNewestEvents) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  const uint64_t total = FlightRecorder::kCapacity + 5;
  for (uint64_t i = 0; i < total; ++i) {
    RecordFlightEvent(FlightEventKind::kLogError, "obs-test-wrap",
                      static_cast<int64_t>(i));
  }
  EXPECT_EQ(recorder.recorded_count(), total);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // Oldest 5 events were overwritten; the tail survives in order.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, total);
  EXPECT_EQ(events.back().a, static_cast<int64_t>(total - 1));
  recorder.Clear();
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearSequenceAccounting) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t]() {
      for (int i = 0; i < kPerWriter; ++i) {
        RecordFlightEvent(FlightEventKind::kCacheEviction, "obs-test-mt", t,
                          i);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(recorder.recorded_count(),
            uint64_t{kWriters} * kPerWriter);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // Snapshot yields strictly increasing, unique sequence numbers.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  recorder.Clear();
}

TEST(FlightRecorderDeathTest, CheckFailureDumpsRecentEvents) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // The child process re-records its own tail; the fatal hook must
        // print it before aborting.
        RecordFlightEvent(FlightEventKind::kJobStart, "obs-test-death", 42);
        HG_CHECK(false) << "obs-test deliberate failure";
      },
      "flight recorder.*last events.*job_start.*obs-test-death");
}

TEST(FlightRecorderTest, DrainAndDumpWritesTraceRingsToDrainPath) {
  // The clean-shutdown half of DrainAndDump (SIGTERM path of
  // tools/hiergat_serve): trace rings flush to the configured drain
  // path as Chrome JSON. The fatal half stays covered by the death test
  // below — it must not touch the (non-async-signal-safe) trace writer.
  const std::string path =
      ::testing::TempDir() + "/obs_drain_and_dump_trace.json";
  SetTraceDrainPath(path);
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Start();
  { HG_TRACE_SPAN("drain-test-span"); }
  TraceRecorder::Global().Stop();

  DrainAndDump(/*fatal=*/false);
  SetTraceDrainPath("");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "drain path not written: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("drain-test-span"), std::string::npos);
  TraceRecorder::Global().Clear();
}

TEST(TraceMacroTest, CompilesInUnbracedIf) {
  // HG_TRACE_SPAN must be usable as a statement everywhere, including
  // the no-op HIERGAT_NO_TRACING expansion.
  if (true) HG_TRACE_SPAN("branch");
  SUCCEED();
}

class LogTest : public ::testing::Test {
 protected:
  /// The threshold, read back through the public predicate.
  static LogLevel CurrentLevel() {
    for (const LogLevel level :
         {LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError}) {
      if (LogLevelEnabled(level)) return level;
    }
    return LogLevel::kOff;
  }

  void SetUp() override {
    previous_level_ = CurrentLevel();
    records_.clear();
    SetLogSink([this](LogLevel level, const char* file, int line,
                      const std::string& message) {
      (void)file;
      (void)line;
      records_.emplace_back(level, message);
    });
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogLevel(previous_level_);
  }

  std::vector<std::pair<LogLevel, std::string>> records_;
  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(LogTest, ThresholdFiltersBySeverity) {
  SetLogLevel(LogLevel::kWarn);
  HG_LOG(INFO) << "dropped";
  HG_LOG(WARN) << "kept-warn";
  HG_LOG(ERROR) << "kept-error";
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].first, LogLevel::kWarn);
  EXPECT_EQ(records_[0].second, "kept-warn");
  EXPECT_EQ(records_[1].first, LogLevel::kError);
  EXPECT_EQ(records_[1].second, "kept-error");

  SetLogLevel(LogLevel::kOff);
  HG_LOG(ERROR) << "silenced";
  EXPECT_EQ(records_.size(), 2u);
}

TEST_F(LogTest, FilteredOperandsAreNotEvaluated) {
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return "payload";
  };
  HG_LOG(INFO) << expensive();
  EXPECT_EQ(evaluations, 0);
  HG_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, MacroNestsInUnbracedIfElse) {
  SetLogLevel(LogLevel::kInfo);
  bool else_taken = false;
  // The else must bind to the outer if, not anything inside HG_LOG.
  if (false)
    HG_LOG(INFO) << "unreached";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
  EXPECT_TRUE(records_.empty());
}

}  // namespace
}  // namespace obs
}  // namespace hiergat
