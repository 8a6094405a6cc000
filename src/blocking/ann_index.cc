#include "blocking/ann_index.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/logging.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "tensor/backend.h"

namespace hiergat {

namespace {

constexpr int kMaxLevel = 30;
constexpr int kMaxDim = 4096;
constexpr int kMaxShards = 4096;

obs::Counter& InsertCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("hiergat.blocking.ann.inserts");
  return counter;
}
obs::Counter& SearchCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.blocking.ann.searches");
  return counter;
}
obs::Counter& DistEvalCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.blocking.ann.dist_evals");
  return counter;
}
obs::Gauge& SizeGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.blocking.ann.size");
  return gauge;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}

/// (similarity, slot) with the deterministic ordering used everywhere:
/// higher similarity is better, ties break toward the smaller slot.
struct Scored {
  float sim;
  int32_t slot;
};
bool Better(const Scored& a, const Scored& b) {
  return a.sim > b.sim || (a.sim == b.sim && a.slot < b.slot);
}
/// Max-heap on "better" (top = best).
struct WorseCmp {
  bool operator()(const Scored& a, const Scored& b) const {
    return Better(b, a);
  }
};
/// Min-heap on "better" (top = worst) for bounded result sets.
struct BetterCmp {
  bool operator()(const Scored& a, const Scored& b) const {
    return Better(a, b);
  }
};

/// Replaces the top of a std heap ordered by `less` with `value` and
/// restores the heap with one sift-down (a push and a pop in one).
template <typename Less>
void ReplaceTop(std::vector<Scored>& heap, const Scored& value, Less less) {
  const size_t n = heap.size();
  size_t i = 0;
  for (size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && less(heap[child], heap[child + 1])) ++child;
    if (!less(value, heap[child])) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = value;
}

/// Per-thread scratch of the walk and the link updates, reused across
/// calls instead of allocated per call. Thread-local, so concurrent
/// readers never share it. Nesting rule: Insert reads `found` and
/// `neighbors` while Connect fills `shrink`, `kept` and `skipped`, so no
/// callee writes a buffer its caller is still reading.
struct Scratch {
  /// Visited marks, epoch-reset so repeated searches don't pay a clear.
  std::vector<uint32_t> marks;
  uint32_t epoch = 0;
  std::vector<int32_t> fresh;     ///< Unvisited neighbours of one node.
  std::vector<Scored> frontier;   ///< Beam candidates, heap, top = best.
  std::vector<Scored> found;      ///< Beam results, heap, top = worst.
  std::vector<Scored> neighbors;  ///< Insert's selected neighbours.
  std::vector<Scored> shrink;     ///< Connect: a full list plus the new node.
  std::vector<Scored> kept;       ///< Connect: the shrunk list.
  std::vector<Scored> skipped;    ///< SelectNeighbors' diversity rejects.
  std::vector<int32_t> kept_slots;  ///< SelectNeighbors: slots of `kept`.
  std::vector<int32_t> dots;      ///< int8 dots of one batched call.
  std::vector<float> unit;        ///< Search: the normalized query.
  std::vector<int8_t> query;      ///< Search: its int8 copy.

  /// `dots`, at least `n` long.
  int32_t* Dots(size_t n) {
    if (dots.size() < n) dots.resize(n);
    return dots.data();
  }

  void BeginVisits(size_t n) {
    if (marks.size() < n) marks.resize(n, 0);
    if (++epoch == 0) {
      std::fill(marks.begin(), marks.end(), 0u);
      epoch = 1;
    }
  }
};
Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

bool AllFinite(const std::vector<float>& vector) {
  return std::all_of(vector.begin(), vector.end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace

/// One independent HNSW graph. Layer-0 links live in a flat fixed-stride
/// array (the hot path at a million records); the sparse upper layers of
/// high-level nodes live in a side map. All reads take `mutex` shared,
/// Insert takes it exclusive, so queries may overlap an insert stream.
struct AnnIndex::Shard {
  explicit Shard(const AnnIndexOptions& options, int index)
      : opts(options),
        l0_cap(2 * options.max_neighbors),
        ml(1.0 / std::log(static_cast<double>(
                     std::max(2, options.max_neighbors)))),
        rng(options.seed ^ SplitMix64(static_cast<uint64_t>(index))),
        kernels(backend::Active()) {}

  /// A copy, so the hot paths read `dim` and `max_neighbors` from the
  /// shard itself, without a pointer back into the owning AnnIndex.
  const AnnIndexOptions opts;
  const int l0_cap;
  const double ml;
  Rng rng;
  /// The active backend: its int8 row dot walks the graph, its f32 dot
  /// reranks, so HIERGAT_BACKEND reaches both.
  const backend::Kernels& kernels;

  std::vector<float> vectors;        ///< slot-major, L2-normalized.
  /// int8 navigation copy of `vectors` (AnnIndex::Quantize): the beam
  /// walks this, the float vectors only back the final rerank.
  std::vector<int8_t> qvectors;
  std::vector<int64_t> ids;          ///< slot -> external id.
  std::vector<int32_t> levels;       ///< slot -> top layer of the slot.
  std::vector<int32_t> links0;       ///< slot * l0_cap, -1 padded.
  std::vector<int32_t> links0_size;  ///< live prefix of each links0 row.
  /// slot -> link lists for layers 1..level (only slots with level >= 1).
  std::unordered_map<int32_t, std::vector<std::vector<int32_t>>> upper;
  int32_t entry = -1;
  int32_t max_level = -1;
  mutable std::shared_mutex mutex;

  int32_t count() const { return static_cast<int32_t>(ids.size()); }

  const float* Vec(int32_t slot) const {
    return vectors.data() + static_cast<size_t>(slot) * opts.dim;
  }

  const int8_t* QVec(int32_t slot) const {
    return qvectors.data() + static_cast<size_t>(slot) * opts.dim;
  }

  /// Exact int8 dots of `query` with the navigation vectors of `n`
  /// slots, in one backend call.
  void DotQ(const int8_t* query, const int32_t* slots, int n,
            int32_t* out) const {
    kernels.dot_i8_rows(opts.dim, query, qvectors.data(), slots, n, out);
  }

  /// Both 64-byte lines of a dim-128 int8 row.
  void PrefetchQ(int32_t slot) const {
    Prefetch(QVec(slot));
    Prefetch(QVec(slot) + 64);
  }

  int LayerCap(int layer) const {
    return layer == 0 ? l0_cap : opts.max_neighbors;
  }

  /// Link list of `slot` at `layer` as (pointer, size). Layer-0 reads
  /// the flat array, upper layers the side map.
  std::pair<const int32_t*, int> Links(int32_t slot, int layer) const {
    if (layer == 0) {
      return {links0.data() + static_cast<size_t>(slot) * l0_cap,
              links0_size[static_cast<size_t>(slot)]};
    }
    const auto it = upper.find(slot);
    if (it == upper.end() ||
        static_cast<size_t>(layer) > it->second.size()) {
      return {nullptr, 0};
    }
    const std::vector<int32_t>& list = it->second[static_cast<size_t>(layer - 1)];
    return {list.data(), static_cast<int>(list.size())};
  }

  void AppendLink(int32_t slot, int32_t neighbor, int layer) {
    if (layer == 0) {
      int32_t& size = links0_size[static_cast<size_t>(slot)];
      HG_CHECK_LT(size, l0_cap);
      links0[static_cast<size_t>(slot) * l0_cap + size] = neighbor;
      ++size;
      return;
    }
    upper[slot][static_cast<size_t>(layer - 1)].push_back(neighbor);
  }

  void RemoveLink(int32_t slot, int32_t neighbor, int layer) {
    if (layer == 0) {
      int32_t* row = links0.data() + static_cast<size_t>(slot) * l0_cap;
      int32_t& size = links0_size[static_cast<size_t>(slot)];
      for (int i = 0; i < size; ++i) {
        if (row[i] == neighbor) {
          row[i] = row[size - 1];
          row[size - 1] = -1;
          --size;
          return;
        }
      }
      return;
    }
    auto it = upper.find(slot);
    if (it == upper.end()) return;
    std::vector<int32_t>& list = it->second[static_cast<size_t>(layer - 1)];
    const auto pos = std::find(list.begin(), list.end(), neighbor);
    if (pos != list.end()) list.erase(pos);
  }

  void ReplaceLinks(int32_t slot, int layer,
                    const std::vector<Scored>& kept) {
    if (layer == 0) {
      int32_t* row = links0.data() + static_cast<size_t>(slot) * l0_cap;
      std::fill(row, row + l0_cap, -1);
      for (size_t i = 0; i < kept.size(); ++i) row[i] = kept[i].slot;
      links0_size[static_cast<size_t>(slot)] =
          static_cast<int32_t>(kept.size());
      return;
    }
    std::vector<int32_t>& list = upper[slot][static_cast<size_t>(layer - 1)];
    list.clear();
    for (const Scored& k : kept) list.push_back(k.slot);
  }

  int Degree(int32_t slot, int layer) const { return Links(slot, layer).second; }

  /// One level draw per insert (exactly one rng call, so a shard's graph
  /// is a pure function of its seed and its insert order).
  int DrawLevel() {
    const float u = rng.NextFloat();
    const int level =
        static_cast<int>(-std::log(1.0 - static_cast<double>(u)) * ml);
    return std::min(level, kMaxLevel);
  }

  /// Greedy hill-climb toward `query` at `layer` (ef = 1 descent). Each
  /// step dots the whole link list in one call, then scans it in order.
  int32_t GreedyStep(const int8_t* query, int32_t start, int layer,
                     int64_t* dist_evals, Scratch& scratch) const {
    int32_t* dots = scratch.Dots(static_cast<size_t>(l0_cap));
    int32_t cur = start;
    DotQ(query, &cur, 1, dots);
    float cur_sim = static_cast<float>(dots[0]);
    ++*dist_evals;
    bool improved = true;
    while (improved) {
      improved = false;
      const auto [list, size] = Links(cur, layer);
      for (int i = 0; i < size; ++i) PrefetchQ(list[i]);
      *dist_evals += size;
      DotQ(query, list, size, dots);
      for (int i = 0; i < size; ++i) {
        const int32_t nb = list[i];
        const float sim = static_cast<float>(dots[i]);
        if (sim > cur_sim || (sim == cur_sim && nb < cur)) {
          cur = nb;
          cur_sim = sim;
          improved = true;
        }
      }
    }
    return cur;
  }

  /// Beam search at one layer: best-first expansion keeping the ef best
  /// visited nodes, written to `out` sorted best-first. Each expansion
  /// gathers the node's unvisited neighbours without a branch (mark
  /// every one, advance the write index by "was new"), prefetches them,
  /// dots them in one call, then pushes them in row order. Under the
  /// strict (sim, slot) order the beam's final set does not depend on
  /// push order, so this visits and keeps exactly what a
  /// one-neighbour-at-a-time walk would.
  void SearchLayer(const int8_t* query, int32_t start, int ef, int layer,
                   int64_t* dist_evals, Scratch& scratch,
                   std::vector<Scored>* out) const {
    scratch.BeginVisits(static_cast<size_t>(count()));
    if (scratch.fresh.size() < static_cast<size_t>(l0_cap)) {
      scratch.fresh.resize(static_cast<size_t>(l0_cap));
    }
    uint32_t* marks = scratch.marks.data();
    const uint32_t epoch = scratch.epoch;
    int32_t* fresh = scratch.fresh.data();
    int32_t* dots = scratch.Dots(static_cast<size_t>(l0_cap));
    std::vector<Scored>& frontier = scratch.frontier;
    std::vector<Scored>& results = *out;
    const size_t width = static_cast<size_t>(ef);
    DotQ(query, &start, 1, dots);
    const Scored first{static_cast<float>(dots[0]), start};
    ++*dist_evals;
    marks[start] = epoch;
    frontier.assign(1, first);
    results.assign(1, first);
    while (!frontier.empty()) {
      const Scored cur = frontier.front();
      if (results.size() >= width && Better(results.front(), cur)) break;
      std::pop_heap(frontier.begin(), frontier.end(), WorseCmp{});
      frontier.pop_back();
      const auto [list, size] = Links(cur.slot, layer);
      int num_fresh = 0;
      for (int i = 0; i < size; ++i) {
        const int32_t nb = list[i];
        fresh[num_fresh] = nb;
        num_fresh += marks[nb] != epoch;
        marks[nb] = epoch;
      }
      for (int i = 0; i < num_fresh; ++i) PrefetchQ(fresh[i]);
      *dist_evals += num_fresh;
      DotQ(query, fresh, num_fresh, dots);
      for (int i = 0; i < num_fresh; ++i) {
        const Scored hit{static_cast<float>(dots[i]), fresh[i]};
        if (results.size() < width) {
          frontier.push_back(hit);
          std::push_heap(frontier.begin(), frontier.end(), WorseCmp{});
          results.push_back(hit);
          std::push_heap(results.begin(), results.end(), BetterCmp{});
        } else if (Better(hit, results.front())) {
          frontier.push_back(hit);
          std::push_heap(frontier.begin(), frontier.end(), WorseCmp{});
          ReplaceTop(results, hit, BetterCmp{});
        }
      }
    }
    std::sort_heap(results.begin(), results.end(), BetterCmp{});
  }

  /// Malkov's diversity heuristic over best-first `candidates`: keep a
  /// candidate only if it is closer to the query than to every already
  /// kept neighbor, then backfill skipped candidates in order up to `m`
  /// (measured gold recall at 10^5 records is a hair better with it, and
  /// Connect's shrink needs it so exactly one of cap + 1 drops). Writes
  /// the kept list to `kept` and returns the candidate left out: the
  /// last skipped one if the backfill left any, else the first one never
  /// examined (slot -1 when every candidate was kept). A candidate meets
  /// the kept list four neighbours per dot call; the scan stops at the
  /// first kept neighbour more similar to the candidate than the query
  /// is, and counts the dots up to it, as a one-at-a-time scan does.
  Scored SelectNeighbors(const std::vector<Scored>& candidates, int m,
                         std::vector<Scored>* kept, int64_t* dist_evals,
                         Scratch& scratch) const {
    const size_t cap = static_cast<size_t>(m);
    constexpr int kGroup = 4;
    std::vector<Scored>& skipped = scratch.skipped;
    std::vector<int32_t>& kept_slots = scratch.kept_slots;
    kept->clear();
    skipped.clear();
    kept_slots.clear();
    size_t next = 0;
    for (; next < candidates.size() && kept->size() < cap; ++next) {
      const Scored& c = candidates[next];
      const int8_t* cq = QVec(c.slot);
      const int num_kept = static_cast<int>(kept_slots.size());
      bool diverse = true;
      for (int g = 0; g < num_kept && diverse; g += kGroup) {
        const int n = std::min(kGroup, num_kept - g);
        int32_t dots[kGroup];
        DotQ(cq, kept_slots.data() + g, n, dots);
        for (int i = 0; i < n; ++i) {
          ++*dist_evals;
          if (static_cast<float>(dots[i]) > c.sim) {
            diverse = false;
            break;
          }
        }
      }
      if (diverse) {
        kept->push_back(c);
        kept_slots.push_back(c.slot);
      } else {
        skipped.push_back(c);
      }
    }
    size_t backfilled = 0;
    for (; backfilled < skipped.size() && kept->size() < cap; ++backfilled) {
      kept->push_back(skipped[backfilled]);
    }
    if (backfilled < skipped.size()) return skipped.back();
    if (next < candidates.size()) return candidates[next];
    return Scored{0.0f, -1};
  }

  /// Makes `a` (the node being inserted) and `b` mutual neighbors at
  /// `layer`, shrinking b's full list with the diversity heuristic.
  /// Exactly one node drops out of a full list; if dropping it would
  /// sever its last link at this layer, a different (still-connected)
  /// victim is chosen instead — possibly `a` itself, in which case no
  /// edge forms at all. Symmetry is preserved in every branch.
  void Connect(int32_t a, int32_t b, float sim_ab, int layer,
               int64_t* dist_evals, Scratch& scratch) {
    const int cap = LayerCap(layer);
    const auto [blist, bsize] = Links(b, layer);
    if (bsize < cap) {
      AppendLink(b, a, layer);
      AppendLink(a, b, layer);
      return;
    }
    std::vector<Scored>& candidates = scratch.shrink;
    candidates.clear();
    int32_t* dots = scratch.Dots(static_cast<size_t>(bsize));
    DotQ(QVec(b), blist, bsize, dots);
    for (int i = 0; i < bsize; ++i) {
      candidates.push_back(Scored{static_cast<float>(dots[i]), blist[i]});
    }
    *dist_evals += bsize;
    candidates.push_back(Scored{sim_ab, a});
    std::sort(candidates.begin(), candidates.end(), Better);
    std::vector<Scored>& kept = scratch.kept;
    Scored dropped =
        SelectNeighbors(candidates, cap, &kept, dist_evals, scratch);
    HG_CHECK_GE(dropped.slot, 0);
    if (dropped.slot != a && Degree(dropped.slot, layer) <= 1) {
      // Re-victimize: the worst kept node that keeps its connectivity
      // (`a` always qualifies — dropping it just skips the new edge).
      for (size_t i = kept.size(); i > 0; --i) {
        const Scored victim = kept[i - 1];
        if (victim.slot == a || Degree(victim.slot, layer) > 1) {
          kept[i - 1] = dropped;
          dropped = victim;
          std::sort(kept.begin(), kept.end(), Better);
          break;
        }
      }
    }
    if (dropped.slot == a) return;  // No edge in either direction.
    ReplaceLinks(b, layer, kept);
    RemoveLink(dropped.slot, b, layer);
    AppendLink(a, b, layer);
  }

  void Insert(int64_t id, const std::vector<float>& vector) {
    std::unique_lock<std::shared_mutex> lock(mutex);
    const int32_t slot = count();
    vectors.insert(vectors.end(), vector.begin(), vector.end());
    float* stored = vectors.data() + static_cast<size_t>(slot) * opts.dim;
    float norm = 0.0f;
    for (int i = 0; i < opts.dim; ++i) norm += stored[i] * stored[i];
    if (norm > 0.0f) {
      const float inv = 1.0f / std::sqrt(norm);
      for (int i = 0; i < opts.dim; ++i) stored[i] *= inv;
    }
    qvectors.resize(qvectors.size() + static_cast<size_t>(opts.dim));
    Quantize(stored, opts.dim,
             qvectors.data() + static_cast<size_t>(slot) * opts.dim);
    ids.push_back(id);
    const int level = DrawLevel();
    levels.push_back(level);
    links0.insert(links0.end(), static_cast<size_t>(l0_cap), -1);
    links0_size.push_back(0);
    if (level >= 1) {
      upper.emplace(slot,
                    std::vector<std::vector<int32_t>>(
                        static_cast<size_t>(level)));
    }
    if (entry < 0) {
      entry = slot;
      max_level = level;
      return;
    }
    int64_t dist_evals = 0;
    Scratch& scratch = LocalScratch();
    const int8_t* query = QVec(slot);
    int32_t cur = entry;
    for (int layer = max_level; layer > level; --layer) {
      cur = GreedyStep(query, cur, layer, &dist_evals, scratch);
    }
    for (int layer = std::min(level, max_level); layer >= 0; --layer) {
      SearchLayer(query, cur, opts.ef_construction, layer, &dist_evals,
                  scratch, &scratch.found);
      cur = scratch.found.front().slot;
      SelectNeighbors(scratch.found, opts.max_neighbors, &scratch.neighbors,
                      &dist_evals, scratch);
      for (const Scored& nb : scratch.neighbors) {
        Connect(slot, nb.slot, nb.sim, layer, &dist_evals, scratch);
      }
    }
    if (level > max_level) {
      max_level = level;
      entry = slot;
    }
    DistEvalCounter().Increment(dist_evals);
  }

  /// Top-n (similarity, slot) hits for `query`, best first, in
  /// `scratch.found`. The walk runs on the int8 copies; the whole ef-wide
  /// result pool is then reranked with exact float dots, so quantization
  /// error only costs recall when the true neighbor fell outside the
  /// beam entirely.
  const std::vector<Scored>& Search(const float* query, int n,
                                    int64_t* dist_evals,
                                    Scratch& scratch) const {
    std::vector<Scored>& found = scratch.found;
    found.clear();
    if (count() == 0 || n <= 0) return found;
    std::vector<float>& unit = scratch.unit;
    unit.assign(query, query + opts.dim);
    float norm = 0.0f;
    for (const float v : unit) norm += v * v;
    if (norm > 0.0f) {
      const float inv = 1.0f / std::sqrt(norm);
      for (float& v : unit) v *= inv;
    }
    std::vector<int8_t>& q = scratch.query;
    q.resize(static_cast<size_t>(opts.dim));
    Quantize(unit.data(), opts.dim, q.data());
    int32_t cur = entry;
    for (int layer = max_level; layer >= 1; --layer) {
      cur = GreedyStep(q.data(), cur, layer, dist_evals, scratch);
    }
    SearchLayer(q.data(), cur, std::max(opts.ef_search, n), 0, dist_evals,
                scratch, &found);
    for (Scored& f : found) {
      f.sim = kernels.dot(opts.dim, query, Vec(f.slot));
      ++*dist_evals;
    }
    std::sort(found.begin(), found.end(), Better);
    if (static_cast<int>(found.size()) > n) {
      found.resize(static_cast<size_t>(n));
    }
    return found;
  }
};

void AnnIndex::Quantize(const float* v, int dim, int8_t* out) {
  for (int i = 0; i < dim; ++i) {
    out[i] = static_cast<int8_t>(
        std::lround(std::clamp(v[i] * 127.0f, -127.0f, 127.0f)));
  }
}

AnnIndex::AnnIndex(const AnnIndexOptions& options) : options_(options) {
  const Status valid = ValidateOptions(options_);
  HG_CHECK(valid.ok()) << valid.ToString();
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_, i));
  }
}

AnnIndex::~AnnIndex() = default;

Status AnnIndex::ValidateOptions(const AnnIndexOptions& options) {
  if (options.dim < 1 || options.dim > kMaxDim) {
    return Status::InvalidArgument("ann: dim out of range");
  }
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument("ann: num_shards out of range");
  }
  if (options.max_neighbors < 2 || options.max_neighbors > 256) {
    return Status::InvalidArgument("ann: max_neighbors out of range");
  }
  if (options.ef_construction < 1 || options.ef_search < 1) {
    return Status::InvalidArgument("ann: ef out of range");
  }
  return Status::Ok();
}

AnnIndex::Shard& AnnIndex::ShardFor(int64_t id) {
  const uint64_t hash = SplitMix64(static_cast<uint64_t>(id));
  return *shards_[hash % static_cast<uint64_t>(shards_.size())];
}

Status AnnIndex::Insert(int64_t id, const std::vector<float>& vector) {
  HG_CHECK_GE(id, 0);
  HG_CHECK_EQ(static_cast<int>(vector.size()), options_.dim);
  if (!AllFinite(vector)) {
    return Status::InvalidArgument("ann: vector for id " +
                                   std::to_string(id) +
                                   " has a non-finite component");
  }
  ShardFor(id).Insert(id, vector);
  InsertCounter().Increment();
  SizeGauge().Add(1.0);
  return Status::Ok();
}

int64_t AnnIndex::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->count();
  }
  return total;
}

std::vector<AnnIndex::Hit> AnnIndex::Search(const std::vector<float>& query,
                                            int n, int64_t exclude) const {
  HG_CHECK_EQ(static_cast<int>(query.size()), options_.dim);
  if (n <= 0 || !AllFinite(query)) return {};
  SearchCounter().Increment();
  int64_t dist_evals = 0;
  Scratch& scratch = LocalScratch();
  // Per-shard top lists, each sorted best-first.
  std::vector<std::vector<Hit>> per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    // Ask for one extra hit so excluding the query itself still leaves n.
    const std::vector<Scored>& found =
        shard.Search(query.data(), n + 1, &dist_evals, scratch);
    for (const Scored& f : found) {
      const int64_t hit_id = shard.ids[static_cast<size_t>(f.slot)];
      if (hit_id == exclude) continue;
      per_shard[s].push_back(Hit{hit_id, f.sim});
    }
    // Shard results arrive tied-broken by slot; the public contract is
    // ties by ascending external id.
    std::sort(per_shard[s].begin(), per_shard[s].end(),
              [](const Hit& a, const Hit& b) {
                return a.similarity > b.similarity ||
                       (a.similarity == b.similarity && a.id < b.id);
              });
  }
  DistEvalCounter().Increment(dist_evals);
  // K-way heap merge of the sorted shard lists.
  struct Head {
    float sim;
    int64_t id;
    size_t shard;
    size_t pos;
  };
  auto head_worse = [](const Head& a, const Head& b) {
    return a.sim < b.sim || (a.sim == b.sim && a.id > b.id);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_worse)> heads(
      head_worse);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (!per_shard[s].empty()) {
      heads.push(Head{per_shard[s][0].similarity, per_shard[s][0].id, s, 0});
    }
  }
  std::vector<Hit> merged;
  merged.reserve(static_cast<size_t>(n));
  while (!heads.empty() && static_cast<int>(merged.size()) < n) {
    const Head head = heads.top();
    heads.pop();
    merged.push_back(Hit{head.id, head.sim});
    const size_t next = head.pos + 1;
    if (next < per_shard[head.shard].size()) {
      const Hit& h = per_shard[head.shard][next];
      heads.push(Head{h.similarity, h.id, head.shard, next});
    }
  }
  return merged;
}

std::vector<AnnIndex::Hit> AnnIndex::SearchBruteForce(
    const std::vector<float>& query, int n, int64_t exclude) const {
  HG_CHECK_EQ(static_cast<int>(query.size()), options_.dim);
  if (n <= 0 || !AllFinite(query)) return {};
  std::vector<Hit> all;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (int32_t slot = 0; slot < shard->count(); ++slot) {
      const int64_t id = shard->ids[static_cast<size_t>(slot)];
      if (id == exclude) continue;
      all.push_back(Hit{id, backend::Dot(options_.dim, query.data(),
                                         shard->Vec(slot))});
    }
  }
  const size_t keep = std::min<size_t>(static_cast<size_t>(n), all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const Hit& a, const Hit& b) {
                      return a.similarity > b.similarity ||
                             (a.similarity == b.similarity && a.id < b.id);
                    });
  all.resize(keep);
  return all;
}

Status AnnIndex::CheckInvariants() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const int32_t n = shard.count();
    const std::string where = "shard " + std::to_string(s) + ": ";
    if (n == 0) {
      if (shard.entry != -1) {
        return Status::Internal(where + "empty shard has an entry point");
      }
      continue;
    }
    if (shard.entry < 0 || shard.entry >= n) {
      return Status::Internal(where + "entry point out of range");
    }
    if (shard.levels[static_cast<size_t>(shard.entry)] != shard.max_level) {
      return Status::Internal(where + "entry point is not at max_level");
    }
    for (int32_t u = 0; u < n; ++u) {
      const int level = shard.levels[static_cast<size_t>(u)];
      if (level < 0 || level > shard.max_level) {
        return Status::Internal(where + "node level out of range");
      }
      const auto it = shard.upper.find(u);
      const int upper_layers =
          it == shard.upper.end() ? 0 : static_cast<int>(it->second.size());
      if (upper_layers != level) {
        return Status::Internal(where + "upper layer count != node level");
      }
      for (int layer = 0; layer <= level; ++layer) {
        const auto [list, size] = shard.Links(u, layer);
        if (size > shard.LayerCap(layer)) {
          return Status::Internal(where + "link list over capacity");
        }
        for (int i = 0; i < size; ++i) {
          const int32_t v = list[i];
          if (v < 0 || v >= n || v == u) {
            return Status::Internal(where + "link target out of range");
          }
          if (shard.levels[static_cast<size_t>(v)] < layer) {
            return Status::Internal(where + "link target below layer");
          }
          for (int j = i + 1; j < size; ++j) {
            if (list[j] == v) {
              return Status::Internal(where + "duplicate link");
            }
          }
          // Bidirectionality: v must list u at the same layer.
          const auto [back, back_size] = shard.Links(v, layer);
          bool found = false;
          for (int j = 0; j < back_size; ++j) found |= back[j] == u;
          if (!found) {
            return Status::Internal(where + "missing reverse link");
          }
        }
      }
    }
    // Reachability from the entry point at every layer (BFS).
    for (int layer = 0; layer <= shard.max_level; ++layer) {
      if (shard.levels[static_cast<size_t>(shard.entry)] < layer) {
        return Status::Internal(where + "entry below its own max level");
      }
      std::vector<char> seen(static_cast<size_t>(n), 0);
      std::vector<int32_t> queue = {shard.entry};
      seen[static_cast<size_t>(shard.entry)] = 1;
      while (!queue.empty()) {
        const int32_t u = queue.back();
        queue.pop_back();
        const auto [list, size] = shard.Links(u, layer);
        for (int i = 0; i < size; ++i) {
          if (!seen[static_cast<size_t>(list[i])]) {
            seen[static_cast<size_t>(list[i])] = 1;
            queue.push_back(list[i]);
          }
        }
      }
      for (int32_t u = 0; u < n; ++u) {
        if (shard.levels[static_cast<size_t>(u)] >= layer &&
            !seen[static_cast<size_t>(u)]) {
          return Status::Internal(where + "node unreachable at layer " +
                                  std::to_string(layer));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace hiergat
