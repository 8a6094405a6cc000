// Tests for the batched inference engine and the summary cache: the
// batch path must be bit-identical to sequential per-pair scoring for
// every model and any thread count, and the cache must be a pure memo
// (same tensors as a cold forward, just cheaper).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "data/synthetic.h"
#include "er/baselines/deepmatcher.h"
#include "er/baselines/magellan.h"
#include "er/engine.h"
#include "er/hiergat.h"
#include "er/summary_cache.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace hiergat {
namespace {

PairDataset SmallDataset(uint64_t seed = 901) {
  SyntheticSpec spec;
  spec.name = "engine";
  spec.num_pairs = 120;
  spec.positive_ratio = 0.3f;
  spec.num_attributes = 3;
  spec.hardness = 0.4f;
  spec.noise = 0.05f;
  spec.desc_len = 6;
  spec.seed = seed;
  return GeneratePairDataset(spec);
}

TrainOptions TinyOptions() {
  TrainOptions options;
  options.epochs = 1;
  options.lr = 2e-3f;
  options.batch_size = 16;
  options.seed = 7;
  options.max_train_items = 8;
  return options;
}

std::vector<float> SequentialScores(const PairwiseModel& model,
                                    const std::vector<EntityPair>& pairs) {
  std::vector<float> probs;
  probs.reserve(pairs.size());
  for (const EntityPair& pair : pairs) {
    probs.push_back(model.ScoreBatch({&pair, 1}).front());
  }
  return probs;
}

void ExpectBitIdentical(const std::vector<float>& expected,
                        const std::vector<float>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "pair " << i;
  }
}

/// The lookup scoring does: a hit, or `compute` stored on a miss.
template <typename Compute>
Tensor Lookup(SummaryCache& cache, const std::string& key,
              Compute&& compute) {
  Tensor hit = cache.Find(key);
  return hit.defined() ? hit : cache.Insert(key, compute());
}

TEST(SummaryCacheTest, MemoizesByKeyAndClears) {
  SummaryCache cache;
  EXPECT_FALSE(cache.Find("k").defined());
  EXPECT_EQ(cache.stats().hits, 0) << "a miss in Find counts nothing";
  Tensor first = cache.Insert("k", Tensor::Full({1, 2}, 3.0f));
  Tensor again = cache.Find("k");
  ASSERT_TRUE(again.defined());
  EXPECT_EQ(first.data(), again.data());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The first insert of a key wins.
  Tensor second = cache.Insert("k", Tensor::Full({1, 2}, 4.0f));
  EXPECT_EQ(second.data(), first.data());
  EXPECT_EQ(cache.size(), 1u);

  cache.Insert("other", Tensor::Full({1, 2}, 5.0f));
  EXPECT_EQ(cache.size(), 2u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Find("k").defined()) << "Clear must drop entries";
}

TEST(SummaryCacheTest, CapacityEvictionBoundsSizeAndStaysCorrect) {
  SummaryCache cache(/*max_entries=*/4);
  auto make = [](float v) {
    return [v] { return Tensor::Full({1, 2}, v); };
  };
  for (int i = 0; i < 4; ++i) {
    Lookup(cache, std::string(1, static_cast<char>('a' + i)),
           make(static_cast<float>(i)));
  }
  EXPECT_EQ(cache.size(), 4u);

  // Fifth distinct key triggers segmented eviction: down to half
  // capacity (2 survivors), then the insert — not a full flush.
  Tensor e = Lookup(cache, "e", make(9.0f));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_EQ(e.data()[0], 9.0f);

  // Evicted keys are simply recomputed with identical values.
  Tensor a = Lookup(cache, "a", make(0.0f));
  EXPECT_EQ(a.data()[0], 0.0f);
  EXPECT_LE(cache.size(), 4u);
}

TEST(SummaryCacheTest, SegmentedEvictionBeatsFullFlushHitRate) {
  // Cycle a working set slightly larger than capacity. A full flush
  // would drop the whole table at every capacity event, so nearly every
  // repeat access misses; segmented eviction keeps half the table and
  // must strictly beat the simulated full-flush hit count on the same
  // trace.
  constexpr int kCapacity = 8;
  constexpr int kKeys = kCapacity + 2;
  constexpr int kRounds = 6;
  SummaryCache cache(/*max_entries=*/kCapacity);

  // Reference: the old flush-everything policy, simulated exactly.
  std::set<std::string> full_flush;
  int64_t full_flush_hits = 0;

  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      Lookup(cache, key, [] { return Tensor::Full({1, 2}, 1.0f); });
      if (full_flush.count(key)) {
        ++full_flush_hits;
      } else {
        if (full_flush.size() >= kCapacity) full_flush.clear();
        full_flush.insert(key);
      }
    }
  }
  EXPECT_LE(cache.size(), static_cast<size_t>(kCapacity));
  EXPECT_GT(cache.stats().hits, full_flush_hits);
}

TEST(SummaryCacheTest, ConstructorCapBoundsSize) {
  SummaryCache cache(/*max_entries=*/3);
  EXPECT_EQ(cache.max_entries(), 3u);
  for (int i = 0; i < 8; ++i) {
    cache.Insert("k" + std::to_string(i), Tensor::Full({1, 2}, 1.0f));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(SummaryCacheTest, CachedTensorsAreDetached) {
  SummaryCache cache;
  Tensor t = Tensor::Full({1, 2}, 1.0f, /*requires_grad=*/true);
  Tensor value = cache.Insert("k", Add(t, t));
  EXPECT_FALSE(value.requires_grad());
  EXPECT_FALSE(cache.Find("k").requires_grad());
}

/// A model whose ScoreBatch blocks until released, so a test can hold
/// an engine job in flight deterministically.
class BlockingModel : public PairwiseModel {
 public:
  std::string name() const override { return "blocking"; }
  void Train(const PairDataset&, const TrainOptions&) override {}
  float ScorePair(const EntityPair&) const override { return 0.5f; }
  std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const override {
    started_.store(true);
    while (!release_.load()) std::this_thread::yield();
    return std::vector<float>(pairs.size(), 0.5f);
  }
  mutable std::atomic<bool> started_{false};
  mutable std::atomic<bool> release_{false};
};

/// A model that records, per ScoreBatch call, the slice size, the
/// calling thread, and how many calls a ParallelFor on its own 4-lane
/// probe pool made: the engine's thread budget, seen from inside a
/// chunk.
class BudgetProbeModel : public PairwiseModel {
 public:
  struct Call {
    size_t slice = 0;
    std::thread::id thread;
    int nested_calls = 0;
  };
  std::string name() const override { return "budget-probe"; }
  void Train(const PairDataset&, const TrainOptions&) override {}
  float ScorePair(const EntityPair&) const override { return 0.5f; }
  std::vector<float> ScoreBatch(
      std::span<const EntityPair> pairs) const override {
    std::atomic<int> nested{0};
    probe_.ParallelFor(0, 1000, 10,
                       [&](int64_t, int64_t) { nested.fetch_add(1); });
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back({pairs.size(), std::this_thread::get_id(), nested.load()});
    return std::vector<float>(pairs.size(), 0.5f);
  }
  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  mutable ThreadPool probe_{4};
  mutable std::mutex mutex_;
  mutable std::vector<Call> calls_;
};

TEST(EngineBudgetTest, MultiLaneEngineSpreadsJobsAndInlinesNesting) {
  // 8 pairs on 4 lanes: chunks of at most 2 pairs reach every lane, and
  // a ParallelFor on another pool inside a chunk runs as one inline
  // call.
  BudgetProbeModel model;
  InferenceEngine engine(EngineOptions{.num_threads = 4});
  const std::vector<EntityPair> pairs(8);
  ASSERT_EQ(engine.Score(model, pairs).size(), 8u);
  const std::vector<BudgetProbeModel::Call> calls = model.calls();
  EXPECT_EQ(calls.size(), 4u);
  size_t scored = 0;
  for (const BudgetProbeModel::Call& call : calls) {
    EXPECT_LE(call.slice, 2u);
    EXPECT_EQ(call.nested_calls, 1);
    scored += call.slice;
  }
  EXPECT_EQ(scored, 8u);
}

TEST(EngineBudgetTest, SingleLaneEngineScoresOnTheCallingThread) {
  BudgetProbeModel model;
  InferenceEngine engine(EngineOptions{.num_threads = 1});
  EXPECT_EQ(engine.num_threads(), 1);
  const std::vector<EntityPair> pairs(8);
  ASSERT_EQ(engine.Score(model, pairs).size(), 8u);
  const std::vector<BudgetProbeModel::Call> calls = model.calls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].slice, 8u);
  EXPECT_EQ(calls[0].thread, std::this_thread::get_id());
  // Not inside a pool chunk, so the probe pool fans out: one call per
  // chunk of 10.
  EXPECT_EQ(calls[0].nested_calls, 100);
}

/// Shared trained models so the (expensive) training runs once.
class EngineParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new PairDataset(SmallDataset());

    HierGatConfig hg_config;
    hg_config.lm_size = LmSize::kSmall;
    hg_config.lm_pretrain_steps = 0;
    hiergat_ = new HierGatModel(hg_config);
    hiergat_->Train(*data_, TinyOptions());

    magellan_ = new MagellanModel();
    magellan_->Train(*data_, TinyOptions());

    deepmatcher_ = new DeepMatcherModel();
    deepmatcher_->Train(*data_, TinyOptions());
  }

  static void TearDownTestSuite() {
    delete deepmatcher_;
    delete magellan_;
    delete hiergat_;
    delete data_;
  }

  static PairDataset* data_;
  static HierGatModel* hiergat_;
  static MagellanModel* magellan_;
  static DeepMatcherModel* deepmatcher_;
};

PairDataset* EngineParityTest::data_ = nullptr;
HierGatModel* EngineParityTest::hiergat_ = nullptr;
MagellanModel* EngineParityTest::magellan_ = nullptr;
DeepMatcherModel* EngineParityTest::deepmatcher_ = nullptr;

TEST_F(EngineParityTest, ThreadCountInvariantAcrossModels) {
  const std::vector<EntityPair>& pairs = data_->test;
  for (const PairwiseModel* model :
       {static_cast<const PairwiseModel*>(hiergat_),
        static_cast<const PairwiseModel*>(magellan_),
        static_cast<const PairwiseModel*>(deepmatcher_)}) {
    const std::vector<float> sequential = SequentialScores(*model, pairs);

    for (int threads : {1, 4}) {
      EngineOptions options;
      options.num_threads = threads;
      InferenceEngine engine(options);
      const std::vector<float> batched = engine.Score(*model, pairs);
      ExpectBitIdentical(sequential, batched);
    }
  }
}

TEST_F(EngineParityTest, ScoreBatchMatchesPerPairLoop) {
  const std::vector<float> sequential =
      SequentialScores(*hiergat_, data_->test);
  const std::vector<float> batched = hiergat_->ScoreBatch(data_->test);
  ExpectBitIdentical(sequential, batched);
}

TEST_F(EngineParityTest, ScoreBatchIsSplitInvariantForSmallSlices) {
  // The model.h contract the engine relies on: scoring a batch in
  // slices of any size gives the whole-batch result bit for bit. The
  // engine's own grain is fixed at 4, so slices of 1-3 pairs are
  // exercised here directly.
  const std::vector<EntityPair>& pairs = data_->test;
  for (const PairwiseModel* model :
       {static_cast<const PairwiseModel*>(hiergat_),
        static_cast<const PairwiseModel*>(magellan_),
        static_cast<const PairwiseModel*>(deepmatcher_)}) {
    const std::vector<float> whole = model->ScoreBatch(pairs);
    for (size_t slice : {1, 2, 3}) {
      std::vector<float> sliced;
      for (size_t begin = 0; begin < pairs.size(); begin += slice) {
        const size_t len = std::min(slice, pairs.size() - begin);
        const std::vector<float> part = model->ScoreBatch(
            std::span<const EntityPair>(pairs.data() + begin, len));
        sliced.insert(sliced.end(), part.begin(), part.end());
      }
      SCOPED_TRACE(model->name() + " slices of " + std::to_string(slice));
      ExpectBitIdentical(whole, sliced);
    }
  }
}

TEST_F(EngineParityTest, WarmCacheMatchesColdForward) {
  hiergat_->InvalidateInferenceCache();
  hiergat_->set_cache_enabled(false);
  const std::vector<float> cold = hiergat_->ScoreBatch(data_->test);
  EXPECT_EQ(hiergat_->summary_cache().size(), 0u)
      << "disabled cache must stay empty";

  hiergat_->set_cache_enabled(true);
  const std::vector<float> warming = hiergat_->ScoreBatch(data_->test);
  const SummaryCache::Stats after_first = hiergat_->summary_cache().stats();
  EXPECT_GT(after_first.misses, 0);
  EXPECT_GT(after_first.hits, 0)
      << "entities recur across candidate pairs, so one batch must hit";

  const std::vector<float> warm = hiergat_->ScoreBatch(data_->test);
  const SummaryCache::Stats after_second = hiergat_->summary_cache().stats();
  EXPECT_EQ(after_second.misses, after_first.misses)
      << "second pass must be all hits";

  ExpectBitIdentical(cold, warming);
  ExpectBitIdentical(cold, warm);

  hiergat_->InvalidateInferenceCache();
  EXPECT_EQ(hiergat_->summary_cache().size(), 0u);
}

TEST_F(EngineParityTest, ScoreBatchEngagesTensorBufferPool) {
  // The no-grad scoring path must recycle tensor buffers through the
  // thread-local BufferPool instead of hitting the heap per graph node;
  // the pool exports its traffic through the global metrics registry.
  obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.tensor.pool.hits");
  const int64_t before = hits.Value();
  const std::vector<float> probs = hiergat_->ScoreBatch(data_->test);
  ASSERT_EQ(probs.size(), data_->test.size());
  EXPECT_GT(hits.Value(), before)
      << "hiergat.tensor.pool.hits must advance during a ScoreBatch run";
}

TEST_F(EngineParityTest, EvaluateMatchesModelEvaluate) {
  const EvalResult direct = hiergat_->Evaluate(data_->test);
  EngineOptions options;
  options.num_threads = 2;
  InferenceEngine engine(options);
  const EvalResult pooled = engine.Evaluate(*hiergat_, data_->test);
  EXPECT_EQ(direct.f1, pooled.f1);
  EXPECT_EQ(direct.precision, pooled.precision);
  EXPECT_EQ(direct.recall, pooled.recall);
}

TEST_F(EngineParityTest, HandlesEmptyAndTinyBatches) {
  EngineOptions options;
  options.num_threads = 4;
  InferenceEngine engine(options);
  EXPECT_EQ(engine.num_threads(), 4);

  EXPECT_TRUE(
      engine.Score(*magellan_, std::span<const EntityPair>()).empty());

  // Fewer items than lanes: one single-item chunk per item.
  const std::span<const EntityPair> two(data_->test.data(), 2);
  const std::vector<float> batched = engine.Score(*magellan_, two);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0], magellan_->ScoreBatch({&data_->test[0], 1}).front());
  EXPECT_EQ(batched[1], magellan_->ScoreBatch({&data_->test[1], 1}).front());
}

TEST_F(EngineParityTest, EngineIsReusableAcrossCallsAndModels) {
  InferenceEngine engine(EngineOptions{.num_threads = 2});
  const std::span<const EntityPair> pairs(data_->test.data(), 8);
  const std::vector<float> a = engine.Score(*hiergat_, pairs);
  const std::vector<float> b = engine.Score(*magellan_, pairs);
  const std::vector<float> c = engine.Score(*hiergat_, pairs);
  ExpectBitIdentical(a, c);
  ASSERT_EQ(b.size(), 8u);
}

TEST_F(EngineParityTest, RepeatedTinyJobsTolerateStragglerWorkers) {
  // With more lanes than items, most pool workers sleep through each
  // short job; a straggler waking after the job returned must not read
  // the next job's task fields mid-rewrite or claim its chunks (the
  // pool's state_mutex_ waits stragglers out). Many back-to-back tiny
  // jobs make that interleaving likely.
  InferenceEngine engine(EngineOptions{.num_threads = 8});
  const std::span<const EntityPair> two(data_->test.data(), 2);
  const float p0 = magellan_->ScoreBatch({&data_->test[0], 1}).front();
  const float p1 = magellan_->ScoreBatch({&data_->test[1], 1}).front();
  for (int iter = 0; iter < 300; ++iter) {
    const std::vector<float> batched = engine.Score(*magellan_, two);
    ASSERT_EQ(batched.size(), 2u);
    EXPECT_EQ(batched[0], p0);
    EXPECT_EQ(batched[1], p1);
  }
}

TEST_F(EngineParityTest, CompiledGraphScoringMatchesEagerBitwise) {
  // ScoreBatch replays through compiled graphs by default; forcing the
  // eager path must give bit-identical probabilities (replay is never
  // allowed to be wrong, only absent — DESIGN.md §11).
  hiergat_->InvalidateInferenceCache();
  obs::Counter& compiled_pairs = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.score.compiled_pairs");
  const int64_t before = compiled_pairs.Value();
  const std::vector<float> compiled = hiergat_->ScoreBatch(data_->test);
  EXPECT_GT(compiled_pairs.Value(), before)
      << "default ScoreBatch must take the compiled path";
  const CompiledScoring::Stats stats = hiergat_->compiled_stats();
  EXPECT_GT(stats.num_graphs, 0);

  hiergat_->set_graph_compile_enabled(false);
  hiergat_->InvalidateInferenceCache();
  const std::vector<float> eager = hiergat_->ScoreBatch(data_->test);
  hiergat_->set_graph_compile_enabled(true);

  ExpectBitIdentical(eager, compiled);
}

TEST_F(EngineParityTest, ScoringCompilesPlannedGraphs) {
  // Graphs compile lazily per row-capacity bucket, so one scoring pass
  // over the test split builds the compare head and at least one packed
  // encoder graph, and never more than one graph per bucket (powers of
  // two from 16 up to kMaxRows) plus the head.
  hiergat_->InvalidateInferenceCache();
  EXPECT_EQ(hiergat_->compiled_stats().num_graphs, 0);
  (void)hiergat_->ScoreBatch(data_->test);
  const CompiledScoring::Stats stats = hiergat_->compiled_stats();
  EXPECT_EQ(stats.num_failed, 0);
  EXPECT_GE(stats.num_graphs, 2);
  int buckets = 0;
  for (int rows = 16; rows <= CompiledScoring::kMaxRows; rows *= 2) {
    ++buckets;
  }
  EXPECT_LE(stats.num_graphs, buckets + 1);
  // The planner must fold intermediates into shared arena slots well
  // below the eager sum (< 50%).
  EXPECT_GT(stats.plan_bytes, 0u);
  EXPECT_LT(stats.plan_bytes, stats.eager_bytes / 2)
      << "arena plan should reuse buffers across live ranges";
}

TEST_F(EngineParityTest, DirectScoringRunsOnTheCallingThreadOnly) {
  // Engine lanes are the only parallelism: a compiled ScoreBatch called
  // with no engine dispatches no pool task and starts no pool. The
  // cache is off so every pair replays the packed encoders.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& tasks = registry.GetCounter("hiergat.threadpool.tasks");
  const obs::Gauge& lanes = registry.GetGauge("hiergat.threadpool.threads");
  const obs::Counter& compiled_pairs =
      registry.GetCounter("hiergat.score.compiled_pairs");
  hiergat_->set_graph_compile_enabled(true);
  hiergat_->set_cache_enabled(false);
  hiergat_->InvalidateInferenceCache();
  const int64_t tasks_before = tasks.Value();
  const double lanes_before = lanes.Value();
  const int64_t compiled_before = compiled_pairs.Value();
  EXPECT_EQ(hiergat_->ScoreBatch(data_->test).size(), data_->test.size());
  EXPECT_GT(compiled_pairs.Value(), compiled_before);
  EXPECT_EQ(tasks.Value(), tasks_before);
  EXPECT_EQ(lanes.Value(), lanes_before);
  hiergat_->set_cache_enabled(true);
  hiergat_->InvalidateInferenceCache();
}

TEST_F(EngineParityTest, ConcurrentCompiledScoringIsThreadSafe) {
  // Several engine workers replay the same shared compiled graphs; run
  // under TSan (engine label) this is the data-race canary for the
  // capture/replay layer.
  hiergat_->InvalidateInferenceCache();
  EngineOptions options;
  options.num_threads = 4;
  InferenceEngine engine(options);
  const std::vector<float> sequential =
      SequentialScores(*hiergat_, data_->test);
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<float> pooled = engine.Score(*hiergat_, data_->test);
    ExpectBitIdentical(sequential, pooled);
  }
}

TEST_F(EngineParityTest, DirectConcurrentScoringAndInspectionDoNotRace) {
  // Two threads share one model with no engine in between. Neither
  // ScoreBatch nor InspectAttention may write shared module state, on
  // the compiled path or the eager one; under TSan (engine label) this
  // is the race canary for the forward itself. The summary cache is off
  // so every call runs the whole forward.
  hiergat_->set_cache_enabled(false);
  const size_t inspected_pairs = std::min<size_t>(4, data_->test.size());
  // Everything one report holds, flattened in a fixed order.
  auto inspect = [&] {
    std::vector<float> flat;
    for (size_t i = 0; i < inspected_pairs; ++i) {
      const StatusOr<HierGatModel::AttentionReport> report =
          hiergat_->InspectAttention(data_->test[i]);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (!report.ok()) continue;
      flat.push_back(report.value().match_probability);
      const std::vector<float>& attribute = report.value().attribute_weights;
      flat.insert(flat.end(), attribute.begin(), attribute.end());
      for (const auto* side : {&report.value().left, &report.value().right}) {
        for (const auto& attr : *side) {
          flat.insert(flat.end(), attr.weights.begin(), attr.weights.end());
        }
      }
    }
    return flat;
  };
  for (const bool compile : {true, false}) {
    hiergat_->set_graph_compile_enabled(compile);
    hiergat_->InvalidateInferenceCache();
    std::vector<std::vector<float>> scores(2);
    std::vector<std::vector<float>> reports(2);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        scores[t] = hiergat_->ScoreBatch(data_->test);
        reports[t] = inspect();
      });
    }
    for (std::thread& thread : threads) thread.join();
    SCOPED_TRACE(compile ? "graph compile on" : "graph compile off");
    ASSERT_EQ(scores[0].size(), data_->test.size());
    ExpectBitIdentical(scores[0], scores[1]);
    EXPECT_FALSE(reports[0].empty());
    ExpectBitIdentical(reports[0], reports[1]);
  }
  hiergat_->set_graph_compile_enabled(true);
  hiergat_->set_cache_enabled(true);
  hiergat_->InvalidateInferenceCache();
}

TEST_F(EngineParityTest, ConcurrentCallersSerializeToIdenticalScores) {
  EngineOptions options;
  options.num_threads = 2;
  InferenceEngine engine(options);
  const std::span<const EntityPair> pairs(data_->test.data(), 8);
  const std::vector<float> baseline = engine.Score(*magellan_, pairs);

  // Four caller threads contend for a pool that runs one job at a
  // time; every job must still complete with identical results.
  std::vector<std::thread> callers;
  std::vector<std::vector<float>> results(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < 5; ++iter) {
        results[static_cast<size_t>(t)] = engine.Score(*magellan_, pairs);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const std::vector<float>& result : results) {
    ExpectBitIdentical(baseline, result);
  }
}

TEST_F(EngineParityTest, QueueDepthGaugeSumsAcrossLiveEngines) {
  // Two engines (a hot swap overlapping old and new Sessions, or a
  // two-model server) each hold one job; the process-wide gauge must
  // show both, not whichever engine wrote last.
  obs::Gauge& depth =
      obs::MetricsRegistry::Global().GetGauge("hiergat.engine.queue_depth");
  const double before = depth.Value();
  const std::span<const EntityPair> pairs(data_->test.data(), 4);

  InferenceEngine engine_a(EngineOptions{.num_threads = 1});
  InferenceEngine engine_b(EngineOptions{.num_threads = 1});
  BlockingModel blocking_a;
  BlockingModel blocking_b;
  std::thread caller_a([&] { engine_a.Score(blocking_a, pairs); });
  std::thread caller_b([&] { engine_b.Score(blocking_b, pairs); });
  while (!blocking_a.started_.load() || !blocking_b.started_.load()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(depth.Value(), before + 2);

  blocking_a.release_.store(true);
  blocking_b.release_.store(true);
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(depth.Value(), before);
}

TEST_F(EngineParityTest, PairwiseAsCollectiveRoutesThroughBatchPath) {
  // Build a toy query from test pairs that share a left entity.
  CollectiveQuery query;
  query.query = data_->test[0].left;
  for (int i = 0; i < 5; ++i) {
    query.candidates.push_back(data_->test[static_cast<size_t>(i)].right);
    query.labels.push_back(data_->test[static_cast<size_t>(i)].label);
  }
  PairwiseAsCollective adapter(hiergat_);
  const std::vector<float> probs = adapter.PredictQuery(query);
  ASSERT_EQ(probs.size(), 5u);
  for (size_t i = 0; i < probs.size(); ++i) {
    EntityPair pair;
    pair.left = query.query;
    pair.right = query.candidates[i];
    EXPECT_EQ(probs[i], hiergat_->ScoreBatch({&pair, 1}).front()) << i;
  }
}

}  // namespace
}  // namespace hiergat
