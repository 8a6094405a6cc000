// End-to-end bench: records in, clusters out. One process runs one
// workload through the public call of every layer, in pipeline order:
//
//   1. data      GenerateTwoTable (set-up);
//   2. blocking  EmbedBlocker::Embed, then AnnIndex::Insert;
//   3. blocking  AnnIndex::Search, through ProgressiveCandidates bands;
//   4. er        Session::Score, compiled, on a 1-thread engine;
//   5. cluster   threshold 0.5 plus union-find, written here.
//
// Every stage call is timed from outside and, with --trace 1, recorded
// as an e2e.<stage> span; library counters are snapshotted around each
// pass. The process runs on one vCPU. Between stage calls, every 100 ms,
// the bench times a fixed piece of its own reference work on that vCPU
// and reports every time in reference seconds: wall seconds scaled by
// how fast the host ran that work around them (HostSpeed in
// e2e_metrics.h). The last stdout line is one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
//
// carrying the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. README.md lists them and the workloads.
//
// Usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale F] [--work_dir DIR]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "blocking/embed_blocker.h"
#include "data/synthetic.h"
#include "e2e_metrics.h"
#include "er/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {
namespace e2e {
namespace {

/// One engine worker and a one-lane intra-op pool, all on one vCPU
/// (RunOnOneCpu): the host probe can only time the vCPU it runs on, and
/// the vCPUs of a shared host slow down independently of each other.
constexpr int kEngineThreads = 1;
/// Set-up is repeated and its median reported, so that work moved into
/// set-up shows as a steady number.
constexpr int kSetupRepeats = 3;
constexpr int kBands = 4;
constexpr float kMatchThreshold = 0.5f;
/// Training data seed. Its top bit is set and WorkloadSeed clears that
/// bit, so no workload seed regenerates the training set.
constexpr uint64_t kTrainSeed = 0x8000'0000'0000'7a17ULL;

uint64_t WorkloadSeed(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & ~(1ULL << 63);
}

enum Stage { kEmbed, kInsert, kSearch, kScore, kCluster, kNumStages };
constexpr const char* kStageSpans[kNumStages] = {
    "e2e.embed", "e2e.insert", "e2e.search", "e2e.score", "e2e.cluster"};
constexpr const char* kStageMetrics[kNumStages] = {
    "blocking.embed_s", "blocking.insert_s", "blocking.search_s",
    "er.score_s", "cluster.s"};

/// Graph ops whose replay counts, FLOP estimates and (traced) times are
/// reported per layer; together they are most of a scoring replay.
constexpr const char* kNodeOps[] = {"Linear", "AttentionScores",
                                    "LayerNorm", "MatMul", "Add", "Gelu",
                                    "ConcatCols"};

uint64_t NowNs() { return obs::MonotonicNowNs(); }
double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- Host speed --------------------------------------------------------------

/// A shared host runs a vCPU at a speed that changes by up to 2x within
/// seconds and can stay low for minutes, with no stolen time to show for
/// it (another tenant on the sibling hyperthread, or a lower clock).
/// Wall seconds then measure the host as much as the program: over a
/// set of runs, records per wall second spread by up to a quarter of
/// their median.
/// So the bench times a fixed piece of work of its own every
/// kProbeIntervalS, between two stage calls, and converts each stage
/// call's wall time with the probes around it.
constexpr double kProbeIntervalS = 0.1;
/// The reference work's time at the reference speed: about its fastest
/// time (5th percentile) on a shared 4-vCPU x86-64 VM, Release build.
/// Reported times are seconds at that speed.
constexpr double kReferenceProbeS = 0.00095;

/// The reference work, owned by the bench so that no library change
/// moves it: a small float matrix product and a pointer chase through
/// 4 MB, the arithmetic and the memory latency that scoring and index
/// walks are made of. A slow spell slows the product more than the
/// chase, and both workloads less than the product. With the product at
/// 40% of the work's time, the reference throughput of each workload
/// stayed flat from passes at full speed to passes 1.6x slower; at 50%
/// it still rose by 13% (link_score) and 4% (link_index) per unit of
/// slowdown.
class ReferenceWork {
 public:
  ReferenceWork()
      : a_(kRows * kDim, 1.0001f), b_(kDim * kDim, 0.9999f),
        c_(kRows * kDim), next_(kChaseWords) {
    // One cycle through every word, so the chase never settles in cache.
    std::vector<uint32_t> order(kChaseWords);
    std::iota(order.begin(), order.end(), 0u);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      next_[order[i]] = order[(i + 1) % order.size()];
    }
    Run();  // Faults the pages in before the first timed run.
  }

  void Run() {
    for (int i = 0; i < kRows; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float v = a_[static_cast<size_t>(i * kDim + k)];
        for (int j = 0; j < kDim; ++j) {
          c_[static_cast<size_t>(i * kDim + j)] +=
              v * b_[static_cast<size_t>(k * kDim + j)];
        }
      }
    }
    for (int i = 0; i < kChaseSteps; ++i) cursor_ = next_[cursor_];
    sink_ = c_[static_cast<size_t>(cursor_ % c_.size())];
  }

 private:
  static constexpr int kRows = 48;
  static constexpr int kDim = 128;
  static constexpr size_t kChaseWords = size_t{1} << 20;
  static constexpr int kChaseSteps = 4000;

  std::vector<float> a_, b_, c_;
  std::vector<uint32_t> next_;
  uint32_t cursor_ = 0;
  volatile float sink_ = 0.0f;
};

class HostProbe {
 public:
  HostProbe() : speed_(kReferenceProbeS) {}

  /// Times the reference work; returns the time it ended.
  uint64_t Run() {
    const uint64_t start = NowNs();
    work_.Run();
    const uint64_t end = NowNs();
    speed_.Add(start, end);
    last_end_ns_ = end;
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) recorder.Record("e2e.probe", start, end - start);
    return end;
  }

  /// Runs the probe if the last one ended kProbeIntervalS or more before
  /// `now_ns`; returns the time the next timed interval starts.
  uint64_t Between(uint64_t now_ns) {
    return Seconds(now_ns - last_end_ns_) >= kProbeIntervalS ? Run() : now_ns;
  }

  const HostSpeed& speed() const { return speed_; }

 private:
  ReferenceWork work_;
  HostSpeed speed_;
  uint64_t last_end_ns_ = 0;
};

HostProbe& Host() {
  static HostProbe host;
  return host;
}

/// Pins the process to the vCPU it is running on, before it starts any
/// thread (threads inherit the pin), and gives the library's intra-op
/// pool a single lane, so that no thread waits for another to be
/// scheduled.
void RunOnOneCpu() {
  setenv("HIERGAT_NUM_THREADS", "1", /*overwrite=*/1);
  const int cpu = sched_getcpu();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (cpu >= 0) CPU_SET(cpu, &cpus);
  if (cpu < 0 || sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
    std::perror("bench_e2e: cannot pin to one vCPU; times will drift");
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".";
};

/// One workload's input sizes. README.md gives the reason for each.
struct Workload {
  const char* name;
  int corpus;   ///< Records indexed before any arrival.
  int queries;  ///< Arriving query records.
  int top_n;    ///< Candidates per arriving record.
  int chunk;    ///< Arrivals per micro-batch.
};

/// A pass takes about 4 reference seconds. Its queries are many enough
/// that the quality of one seed's records is close to that of
/// another's.
constexpr Workload kWorkloads[] = {
    {"link_score", 1600, 240, 16, 60},
    {"link_index", 12000, 400, 2, 100},
};

/// The committed bench_blocking index configuration (DESIGN.md §16).
EmbedBlockOptions BlockOptions(int top_n) {
  EmbedBlockOptions options;
  options.top_n = top_n;
  options.bands = kBands;
  options.index.dim = 128;
  options.index.num_shards = 2;
  options.index.max_neighbors = 24;
  options.index.ef_construction = 128;
  options.index.ef_search = 256;
  return options;
}

struct LapTime {
  Stage stage;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Stage accounting. Lap charges the time since `start_ns` to `stage`,
/// records it as an e2e.<stage> span while tracing, runs the host probe
/// if one is due, and returns the time the next stage starts.
struct StageClock {
  std::vector<LapTime> laps;

  uint64_t Lap(Stage stage, uint64_t start_ns) {
    const uint64_t end_ns = NowNs();
    laps.push_back({stage, start_ns, end_ns});
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.Record(kStageSpans[stage], start_ns, end_ns - start_ns);
    }
    return Host().Between(end_ns);
  }
};

using StageSeconds = std::array<double, kNumStages>;

// --- Inputs --------------------------------------------------------------

/// Every record of one pass, by record id. Records [0, corpus_size) are
/// indexed before any arrival; the arrivals follow in `chunks`, and
/// chunks[c][k] has record id chunk_base[c] + k.
struct World {
  std::vector<Entity> records;
  int corpus_size = 0;
  std::vector<std::vector<Entity>> chunks;
  std::vector<int> chunk_base;
  std::vector<int> gold;  ///< Gold cluster of every record.
  int64_t gold_pairs = 0;
};

void SplitIntoChunks(World* world, int first, int chunk) {
  const int n = static_cast<int>(world->records.size());
  for (int begin = first; begin < n; begin += chunk) {
    const int end = std::min(n, begin + chunk);
    world->chunk_base.push_back(begin);
    world->chunks.emplace_back(world->records.begin() + begin,
                               world->records.begin() + end);
  }
}

World MakeWorld(const Workload& workload, uint64_t seed, double scale) {
  auto scaled = [&](int n) {
    return std::max(16, static_cast<int>(std::lround(n * scale)));
  };
  SyntheticSpec spec;
  spec.name = std::string("e2e-") + workload.name;
  spec.num_attributes = 4;
  spec.seed = seed;
  const int corpus = scaled(workload.corpus);
  const int queries = std::min(scaled(workload.queries), corpus);
  const TwoTableDataset raw = GenerateTwoTable(spec, queries, corpus);
  World world;
  world.corpus_size = corpus;
  world.records = raw.table_b;
  world.records.insert(world.records.end(), raw.table_a.begin(),
                       raw.table_a.end());
  world.gold.resize(world.records.size());
  std::iota(world.gold.begin(), world.gold.begin() + corpus, 0);
  for (const auto& [query, match] : raw.matches) {
    world.gold[static_cast<size_t>(corpus + query)] = match;
  }
  world.gold_pairs = static_cast<int64_t>(raw.matches.size());
  SplitIntoChunks(&world, corpus, workload.chunk);
  return world;
}

/// About two seconds of training: balanced classes and small batches
/// give the few optimizer steps a signal (with the generator's 15%
/// positives the model is still all-negative after three epochs).
SyntheticSpec TrainSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "e2e-train";
  spec.num_attributes = 4;
  spec.num_pairs = std::max(40, static_cast<int>(200 * std::min(1.0, scale)));
  spec.positive_ratio = 0.5f;
  spec.seed = kTrainSeed;
  return spec;
}

TrainOptions TrainSettings() {
  TrainOptions options;
  options.epochs = 3;
  options.lr = 2e-3f;
  options.batch_size = 4;
  options.seed = 42;
  return options;
}

// --- Set-up ----------------------------------------------------------------

/// What one set-up leaves for the measured passes.
struct Model {
  World world;
  PairDataset train;
  std::unique_ptr<Session> session;
};

struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
  uint64_t warm_checksum = 0;
};

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t ScoreChecksum(const std::vector<float>& scores) {
  return Fnv1a(kFnvBasis, scores.data(), scores.size() * sizeof(float));
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

/// Generates the inputs, trains the matcher (HierGAT, small LM) on a
/// fixed training set, saves it and opens it the way a deployment
/// would. The warm-up scores compile the scoring graphs; the summary
/// cache is then dropped so every pass starts cold. A host probe runs
/// between the three steps, whose times are in reference seconds.
SetupTimes SetUp(const Workload& workload, const Options& options,
                 Model* model) {
  SetupTimes times;
  const HostSpeed& speed = Host().speed();
  const uint64_t start = Host().Run();
  model->world = MakeWorld(workload, WorkloadSeed(options.seed), options.scale);
  model->train = GeneratePairDataset(TrainSpec(options.scale));
  const uint64_t generated = NowNs();
  const uint64_t train_start = Host().Run();

  const std::string checkpoint = options.work_dir + "/e2e_model.ckpt";
  {
    SessionOptions fresh;
    fresh.matcher = "hiergat";
    fresh.lm_size = LmSize::kSmall;
    fresh.lm_pretrain_steps = 0;
    fresh.engine.num_threads = 1;
    auto trainer = Session::Open(fresh);
    CheckOk(trainer.status(), "open untrained session");
    CheckOk(trainer.value()->Train(model->train, TrainSettings()), "train");
    CheckOk(trainer.value()->SaveCheckpoint(checkpoint), "save checkpoint");
  }
  const uint64_t trained = NowNs();
  const uint64_t open_start = Host().Run();

  SessionOptions open;
  open.checkpoint_path = checkpoint;
  open.engine.num_threads = kEngineThreads;
  auto session = Session::Open(open);
  CheckOk(session.status(), "open session");
  model->session = std::move(session).value();
  times.warm_checksum = ScoreChecksum(model->session->Score(model->train.test));
  model->session->model()->InvalidateInferenceCache();
  const uint64_t opened = NowNs();
  Host().Run();

  times.generate_s = speed.ReferenceSeconds(start, generated);
  times.train_s = speed.ReferenceSeconds(train_start, trained);
  times.open_s = speed.ReferenceSeconds(open_start, opened);
  times.total_s = times.generate_s + times.train_s + times.open_s;
  return times;
}

// --- Passes ----------------------------------------------------------------

struct Candidate {
  int a = 0;
  int b = 0;
  float similarity = 0.0f;
  int band = 0;  ///< The progressive band that emitted the pair.
  float score = 0.0f;
};

using Counters = std::map<std::string, int64_t>;

Counters SnapshotCounters() {
  const auto values =
      obs::MetricsRegistry::Global().CounterValues("hiergat.");
  return Counters(values.begin(), values.end());
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

int64_t Get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

obs::Counter& DistEvals() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.blocking.ann.dist_evals");
  return counter;
}

using Snapshot = obs::Histogram::Snapshot;

/// The engine's queue-wait histogram. The library registers it lazily
/// with this ladder; the bench names the same one, so whichever side
/// registers first, the buckets are the library's.
Snapshot SnapshotEngineWait() {
  return obs::MetricsRegistry::Global()
      .GetHistogram("hiergat.engine.queue_wait_seconds",
                    obs::Histogram::ExponentialBounds(1e-6, 4, 12))
      .TakeSnapshot();
}

/// Adds `sign` times the bucket counts of `from` to `into`.
void AddCounts(Snapshot* into, const Snapshot& from, int sign) {
  if (into->counts.empty()) {
    into->bounds = from.bounds;
    into->counts.assign(from.counts.size(), 0);
  }
  for (size_t b = 0; b < from.counts.size(); ++b) {
    into->counts[b] += sign * from.counts[b];
  }
  into->count += sign * from.count;
  into->sum += sign * from.sum;
}

/// The laps [first_lap, end_lap) of a pass that take `queries` arriving
/// records from their micro-batch's arrival to their cluster decision.
struct Decision {
  size_t first_lap = 0;
  size_t end_lap = 0;
  size_t queries = 0;
};

/// One measured pass: every record of the world in, clusters out.
struct PassResult {
  bool traced = false;
  int64_t records = 0;
  StageClock stages;
  std::vector<Decision> decisions;
  int64_t searches = 0;
  int64_t inserts = 0;
  int64_t search_evals = 0;
  int64_t insert_evals = 0;
  // Times, once the pass has ended (Time):
  double wall_s = 0.0;  ///< Records in to clusters out, without probes.
  StageSeconds stage_wall_s{};
  double ref_s = 0.0;  ///< wall_s in reference seconds.
  StageSeconds stage_ref_s{};
  std::vector<double> insert_ref_us;
  std::vector<double> latency_ref_ms;  ///< One per arriving record.
  std::vector<Candidate> candidates;
  int64_t gold_pairs = 0;
  std::vector<int> labels;
  Counters counters;
  Snapshot engine_wait;  ///< Engine queue waits during the pass.
};

/// Embeds and inserts the corpus, records [0, corpus_size), from time
/// `t`; returns the time the next stage starts.
uint64_t BuildIndex(const World& world, EmbedBlocker* blocker,
                    PassResult* r, uint64_t t) {
  obs::Counter& evals = DistEvals();
  for (int id = 0; id < world.corpus_size; ++id) {
    const std::vector<float> vector =
        blocker->Embed(world.records[static_cast<size_t>(id)]);
    t = r->stages.Lap(kEmbed, t);
    const int64_t before = evals.Value();
    blocker->index().Insert(id, vector);
    t = r->stages.Lap(kInsert, t);
    r->insert_evals += evals.Value() - before;
  }
  r->inserts += world.corpus_size;
  return t;
}

/// Two-table linkage: the corpus is indexed, then query micro-batches
/// arrive; each goes through the progressive bands, and every band is
/// scored and clustered as it is handed out. A query's latency runs
/// from its micro-batch's arrival to its last band's clustering. The
/// laps are back to back, so together they cover the pass.
void RunLinkPass(const World& world, const Workload& workload,
                 Session& session, PassResult* r) {
  const EmbedBlockOptions options = BlockOptions(workload.top_n);
  EmbedBlocker blocker(options);
  UnionFind clusters(static_cast<int>(world.records.size()));
  obs::Counter& evals = DistEvals();
  const uint64_t start = Host().Run();
  uint64_t t = BuildIndex(world, &blocker, r, start);
  for (size_t c = 0; c < world.chunks.size(); ++c) {
    const std::vector<Entity>& chunk = world.chunks[c];
    const int base = world.chunk_base[c];
    const size_t arrival = r->stages.laps.size();
    ProgressiveCandidates stream(blocker, chunk, options);
    for (int band = 0; !stream.Done(); ++band) {
      const int64_t before = evals.Value();
      const std::vector<CandidatePair> batch = stream.NextBatch();
      r->search_evals += evals.Value() - before;
      t = r->stages.Lap(kSearch, t);
      std::vector<EntityPair> pairs(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        pairs[i].left = chunk[static_cast<size_t>(batch[i].query)];
        pairs[i].right =
            world.records[static_cast<size_t>(batch[i].candidate)];
      }
      const std::vector<float> scores = session.Score(pairs);
      t = r->stages.Lap(kScore, t);
      for (size_t i = 0; i < batch.size(); ++i) {
        const int a = base + batch[i].query;
        const int b = static_cast<int>(batch[i].candidate);
        r->candidates.push_back(
            Candidate{a, b, batch[i].similarity, band, scores[i]});
        if (scores[i] >= kMatchThreshold) clusters.Union(a, b);
      }
      t = r->stages.Lap(kCluster, t);
    }
    r->searches += static_cast<int64_t>(chunk.size());
    r->decisions.push_back({arrival, r->stages.laps.size(), chunk.size()});
  }
  r->labels = clusters.Labels();
  r->stages.Lap(kCluster, t);
  Host().Run();  // Every lap has a probe after it.
  r->records = static_cast<int64_t>(world.records.size());
  r->gold_pairs = world.gold_pairs;
}

/// Wall and reference times of an ended pass, from its laps. Probes run
/// between laps and count in neither.
void Time(PassResult* r) {
  const HostSpeed& speed = Host().speed();
  const std::vector<LapTime>& laps = r->stages.laps;
  const uint64_t start = laps.front().start_ns;
  const uint64_t end = laps.back().end_ns;
  r->wall_s = Seconds(end - start) - speed.ProbeSecondsWithin(start, end);
  std::vector<double> lap_ref_s;
  for (const LapTime& lap : laps) {
    const double ref_s = speed.ReferenceSeconds(lap.start_ns, lap.end_ns);
    lap_ref_s.push_back(ref_s);
    r->ref_s += ref_s;
    r->stage_ref_s[lap.stage] += ref_s;
    r->stage_wall_s[lap.stage] += Seconds(lap.end_ns - lap.start_ns);
    if (lap.stage == kInsert) r->insert_ref_us.push_back(ref_s * 1e6);
  }
  for (const Decision& d : r->decisions) {
    const double ref_ms =
        std::accumulate(lap_ref_s.begin() + static_cast<ptrdiff_t>(d.first_lap),
                        lap_ref_s.begin() + static_cast<ptrdiff_t>(d.end_lap),
                        0.0) *
        1e3;
    r->latency_ref_ms.insert(r->latency_ref_ms.end(), d.queries, ref_ms);
  }
}

// --- Evaluation ------------------------------------------------------------

struct Quality {
  double blocking_recall = 0.0;
  double pair_f1 = 0.0;
  double cluster_f1 = 0.0;
  std::vector<double> band_recall;
  int64_t largest_cluster = 0;
  int64_t candidates = 0;
  int64_t predicted_matches = 0;
  uint64_t checksum = 0;

  bool operator==(const Quality& other) const {
    return blocking_recall == other.blocking_recall &&
           pair_f1 == other.pair_f1 && cluster_f1 == other.cluster_f1 &&
           band_recall == other.band_recall &&
           largest_cluster == other.largest_cluster &&
           candidates == other.candidates &&
           predicted_matches == other.predicted_matches &&
           checksum == other.checksum;
  }
};

/// Scores a pass against the generator's gold clusters (outside the
/// timed wall).
Quality Evaluate(const World& world, PassResult& pass) {
  std::vector<Candidate>& candidates = pass.candidates;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  Quality quality;
  quality.candidates = static_cast<int64_t>(candidates.size());
  PairCounts pairs;
  pairs.gold_pairs = pass.gold_pairs;
  std::vector<int> gold_hit_bands;
  uint64_t checksum = kFnvBasis;
  for (const Candidate& c : candidates) {
    const bool gold = world.gold[static_cast<size_t>(c.a)] ==
                      world.gold[static_cast<size_t>(c.b)];
    if (gold) gold_hit_bands.push_back(c.band);
    if (c.score >= kMatchThreshold) {
      ++pairs.predicted_pairs;
      if (gold) ++pairs.true_pairs;
    }
    checksum = Fnv1a(checksum, &c.a, sizeof(c.a));
    checksum = Fnv1a(checksum, &c.b, sizeof(c.b));
    checksum = Fnv1a(checksum, &c.score, sizeof(c.score));
  }
  quality.checksum = checksum;
  quality.pair_f1 = pairs.F1();
  quality.predicted_matches = pairs.predicted_pairs;
  quality.band_recall =
      CumulativeBandRecall(gold_hit_bands, kBands, pass.gold_pairs);
  quality.blocking_recall = quality.band_recall.back();
  quality.cluster_f1 = ClusterPairCounts(pass.labels, world.gold).F1();
  std::map<int, int64_t> sizes;
  for (const int label : pass.labels) {
    quality.largest_cluster =
        std::max(quality.largest_cluster, ++sizes[label]);
  }
  return quality;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<Metric> EndToEndMetrics(const std::vector<SetupTimes>& setups,
                                    const std::vector<PassResult>& passes,
                                    const Quality& quality) {
  // Every time in reference seconds. Throughput over the whole measured
  // run; latency quantiles per pass, then the median over passes, so
  // that a stall in one pass does not move the tail.
  std::vector<double> setup_s, p50_ms, p95_ms;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);
  double records = 0.0, ref_s = 0.0;
  for (const PassResult& p : passes) {
    records += static_cast<double>(p.records);
    ref_s += p.ref_s;
    const LatencySummary latency = SummarizeLatencies(p.latency_ref_ms);
    p50_ms.push_back(latency.p50);
    p95_ms.push_back(latency.p95);
    std::fprintf(stderr, "latency: %zu samples, %zu beyond the p95\n",
                 latency.samples, latency.beyond_p95);
  }
  return {
      {"setup_s", Median(setup_s), "s"},
      {"records_per_s", Ratio(records, ref_s), "records/s"},
      {"latency_p50_ms", Median(p50_ms), "ms"},
      {"latency_p95_ms", Median(p95_ms), "ms"},
      {"blocking_recall", quality.blocking_recall, "ratio"},
      {"pair_f1", quality.pair_f1, "ratio"},
      {"cluster_f1", quality.cluster_f1, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<SetupTimes>& setups,
                                    const std::vector<PassResult>& passes,
                                    const Quality& quality,
                                    double trace_overhead,
                                    uint64_t dropped_events) {
  const double n = static_cast<double>(passes.size());
  std::vector<double> generate_s, train_s, open_s, insert_us;
  for (const SetupTimes& s : setups) {
    generate_s.push_back(s.generate_s);
    train_s.push_back(s.train_s);
    open_s.push_back(s.open_s);
  }
  StageSeconds stage_ref_s{};
  double stage_wall_s = 0.0, wall_s = 0.0, records = 0.0;
  double searches = 0, inserts = 0, search_evals = 0, insert_evals = 0;
  Counters counters;
  Snapshot engine_wait;
  for (const PassResult& p : passes) {
    for (int s = 0; s < kNumStages; ++s) {
      stage_ref_s[s] += p.stage_ref_s[s];
      stage_wall_s += p.stage_wall_s[s];
    }
    wall_s += p.wall_s;
    records += static_cast<double>(p.records);
    searches += static_cast<double>(p.searches);
    inserts += static_cast<double>(p.inserts);
    search_evals += static_cast<double>(p.search_evals);
    insert_evals += static_cast<double>(p.insert_evals);
    insert_us.insert(insert_us.end(), p.insert_ref_us.begin(),
                     p.insert_ref_us.end());
    for (const auto& [name, value] : p.counters) counters[name] += value;
    AddCounts(&engine_wait, p.engine_wait, 1);
  }
  auto count = [&](const char* name) {
    return static_cast<double>(Get(counters, name));
  };
  std::vector<Metric> metrics = {
      {"data.generate_s", Median(generate_s), "s"},
      {"er.train_s", Median(train_s), "s"},
      {"er.open_s", Median(open_s), "s"},
  };
  for (int s = 0; s < kNumStages; ++s) {
    metrics.push_back({kStageMetrics[s], stage_ref_s[s] / n, "s"});
  }
  metrics.push_back(
      {"stage_sum_share", Ratio(stage_wall_s, wall_s), "ratio"});
  metrics.push_back(
      {"host.slowdown", Host().speed().MedianSlowdown(), "ratio"});
  metrics.push_back({"wall.records_per_s", Ratio(records, wall_s),
                     "records/s"});

  metrics.push_back(
      {"blocking.insert_p99_us", Percentile(insert_us, 0.99), "us"});
  metrics.push_back({"blocking.search_us_per_query",
                     Ratio(stage_ref_s[kSearch] * 1e6, searches), "us"});
  metrics.push_back({"blocking.dist_evals_per_insert",
                     Ratio(insert_evals, inserts), "count"});
  metrics.push_back({"blocking.dist_evals_per_search",
                     Ratio(search_evals, searches), "count"});
  metrics.push_back({"blocking.candidates",
                     static_cast<double>(quality.candidates), "count"});
  for (int k = 0; k < kBands; ++k) {
    metrics.push_back({"blocking.band_recall." + std::to_string(k),
                       quality.band_recall[static_cast<size_t>(k)], "ratio"});
  }

  const double items = count("hiergat.engine.items");
  const double hits = count("hiergat.cache.hits");
  const double misses = count("hiergat.cache.misses");
  const double compiled = count("hiergat.score.compiled_pairs");
  const double eager = count("hiergat.score.eager_pairs");
  metrics.push_back(
      {"er.pairs_per_s", Ratio(items, stage_ref_s[kScore]), "pairs/s"});
  metrics.push_back({"er.pairs_per_call",
                     Ratio(items, count("hiergat.engine.jobs")), "pairs"});
  metrics.push_back({"er.cache.hit_rate", Ratio(hits, hits + misses),
                     "ratio"});
  metrics.push_back({"er.cache.misses", misses / n, "count"});
  metrics.push_back(
      {"er.cache.evictions", count("hiergat.cache.evictions") / n, "count"});
  metrics.push_back(
      {"er.compiled_share", Ratio(compiled, compiled + eager), "ratio"});
  metrics.push_back({"er.lm_encodes_per_pair",
                     Ratio(count("hiergat.contextual.lm_encodes"), items),
                     "count"});
  metrics.push_back({"er.engine.queue_wait_p99_ms",
                     engine_wait.Percentile(0.99) * 1e3, "ms"});

  const double pool_hits = count("hiergat.tensor.pool.hits");
  metrics.push_back(
      {"tensor.pool.hit_rate",
       Ratio(pool_hits, pool_hits + count("hiergat.tensor.pool.misses")),
       "ratio"});

  for (const char* op : kNodeOps) {
    const std::string prefix = std::string("hiergat.graph.node.") + op;
    const double replays = count((prefix + ".replays").c_str());
    const double flops = count((prefix + ".est_flops").c_str());
    const double ns = count((prefix + ".ns").c_str());
    const std::string name = std::string("tensor.node.") + op;
    metrics.push_back({name + ".replays", replays / n, "count"});
    metrics.push_back({name + ".est_gflop", flops * 1e-9 / n, "GFLOP"});
    metrics.push_back({name + ".s", ns * 1e-9 / n, "s"});
    metrics.push_back({name + ".gflops", Ratio(flops, ns), "GFLOP/s"});
  }

  metrics.push_back({"cluster.largest",
                     static_cast<double>(quality.largest_cluster), "count"});
  metrics.push_back({"obs.trace_overhead", trace_overhead, "ratio"});
  metrics.push_back({"obs.dropped_events",
                     static_cast<double>(dropped_events), "count"});
  return metrics;
}

/// Scoring a pair has no failure path, so `failed` is 0 and a wrong
/// result shows as `correct: false`.
void PrintResult(bool correct, int64_t attempted,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": 0, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintStages(const char* label, const PassResult& pass) {
  std::fprintf(stderr,
               "%s: wall %.3f s, %.1f records/s; reference %.3f s, %.1f "
               "records/s |",
               label, pass.wall_s, Ratio(pass.records, pass.wall_s),
               pass.ref_s, Ratio(pass.records, pass.ref_s));
  for (int s = 0; s < kNumStages; ++s) {
    std::fprintf(stderr, " %s %.3f", kStageMetrics[s], pass.stage_ref_s[s]);
  }
  std::fprintf(stderr, "\n");
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--scale") {
      options->scale = std::atof(value.c_str());
    } else if (flag == "--work_dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return options->seconds > 0.0 && options->scale > 0.0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--work_dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  RunOnOneCpu();

  std::vector<std::string> errors;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Model> owned_model;
  for (int r = 0; r < kSetupRepeats; ++r) {
    owned_model.reset();
    owned_model = std::make_unique<Model>();
    setups.push_back(SetUp(*workload, options, owned_model.get()));
    if (setups.back().warm_checksum != setups.front().warm_checksum) {
      errors.push_back("training is not deterministic across set-ups");
    }
  }

  Model& model = *owned_model;
  Session& session = *model.session;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<PassResult> passes;
  auto run_pass = [&](bool traced) {
    PassResult pass;
    pass.traced = traced;
    session.model()->InvalidateInferenceCache();
    const Counters before = SnapshotCounters();
    const Snapshot engine_wait_before = SnapshotEngineWait();
    if (traced) recorder.Start();
    RunLinkPass(model.world, *workload, session, &pass);
    if (traced) recorder.Stop();
    Time(&pass);
    pass.counters = Delta(SnapshotCounters(), before);
    pass.engine_wait = SnapshotEngineWait();
    AddCounts(&pass.engine_wait, engine_wait_before, -1);
    PrintStages(traced ? "traced pass" : "pass", pass);
    passes.push_back(std::move(pass));
  };

  // A warm-up pass, not measured: it fills the allocator pools and the
  // index's memory, and every later pass must reproduce its scores and
  // clusters. Then passes while another one as long as the last fits in
  // --seconds (at least two); traced runs alternate untraced and traced
  // ones, and the untraced ones give the tracing overhead.
  run_pass(false);
  uint64_t now = NowNs();
  const uint64_t deadline = now + static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t last_pass_ns = 0;
  while (passes.size() < 3 || now + last_pass_ns <= deadline) {
    run_pass(options.trace && passes.size() % 2 == 0);
    const uint64_t end = NowNs();
    last_pass_ns = end - now;
    now = end;
  }

  std::vector<Quality> qualities;
  int64_t attempted = 0;
  for (PassResult& pass : passes) {
    qualities.push_back(Evaluate(model.world, pass));
    attempted += pass.records;
    const double share =
        std::accumulate(pass.stage_wall_s.begin(), pass.stage_wall_s.end(),
                        0.0) /
        pass.wall_s;
    if (share < 0.95 || share > 1.05) {
      errors.push_back("stage seconds sum to " + std::to_string(share) +
                       " of the wall time");
    }
  }
  for (size_t p = 1; p < passes.size(); ++p) {
    if (!(qualities[p] == qualities[0])) {
      errors.push_back("pass " + std::to_string(p) +
                       " scored or clustered differently from pass 0");
    }
  }
  const Quality& quality = qualities[0];
  std::fprintf(stderr,
               "quality: blocking recall %.4f, pair F1 %.4f, cluster F1 "
               "%.4f, %lld of %lld candidates matched, largest cluster "
               "%lld, checksum %016llx\n",
               quality.blocking_recall, quality.pair_f1, quality.cluster_f1,
               static_cast<long long>(quality.predicted_matches),
               static_cast<long long>(quality.candidates),
               static_cast<long long>(quality.largest_cluster),
               static_cast<unsigned long long>(quality.checksum));
  std::fprintf(stderr, "host: the reference work took %.3f times its "
               "reference time (median)\n",
               Host().speed().MedianSlowdown());

  // The measured passes, without the warm-up.
  std::vector<PassResult> traced, untraced;
  for (size_t p = 1; p < passes.size(); ++p) {
    (passes[p].traced ? traced : untraced).push_back(std::move(passes[p]));
  }
  std::vector<Metric> metrics;
  if (options.trace) {
    std::vector<double> traced_rate, untraced_rate;
    for (const PassResult& pass : traced) {
      traced_rate.push_back(Ratio(pass.records, pass.ref_s));
    }
    for (const PassResult& pass : untraced) {
      untraced_rate.push_back(Ratio(pass.records, pass.ref_s));
    }
    const double overhead = Ratio(Median(untraced_rate), Median(traced_rate));
    const std::string trace_path =
        options.work_dir + "/trace." + workload->name + ".json";
    if (!recorder.WriteChromeTrace(trace_path)) {
      errors.push_back("cannot write " + trace_path);
    }
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    metrics = PerLayerMetrics(setups, traced, quality, overhead,
                              recorder.dropped_count());
  } else {
    metrics = EndToEndMetrics(setups, untraced, quality);
  }
  std::remove((options.work_dir + "/e2e_model.ckpt").c_str());
  for (const std::string& error : errors) {
    std::fprintf(stderr, "INCORRECT: %s\n", error.c_str());
  }
  PrintResult(errors.empty(), attempted, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace hiergat

int main(int argc, char** argv) { return hiergat::e2e::Main(argc, argv); }
