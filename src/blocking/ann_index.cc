#include "blocking/ann_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

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

/// Four-accumulator dot product: deterministic (fixed association) and
/// wide enough for the compiler to vectorize. Vectors are normalized on
/// insert, so this is the cosine.
float DotScalar(const float* a, const float* b, int dim) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int i = 0;
  for (; i + 4 <= dim; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIERGAT_ANN_DOT_DISPATCH 1
/// AVX2+FMA dot, selected at load time like the tensor backend registry
/// (backend.cc). Association differs from the scalar path, so results
/// are deterministic per host, not across hosts — the property tests
/// only ever compare runs from the same process, and no golden index
/// image is committed.
__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b, int dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 quad = _mm_add_ps(_mm256_castps256_ps128(acc0),
                           _mm256_extractf128_ps(acc0, 1));
  quad = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
  quad = _mm_add_ss(quad, _mm_shuffle_ps(quad, quad, 1));
  float out = _mm_cvtss_f32(quad);
  for (; i < dim; ++i) out += a[i] * b[i];
  return out;
}
#endif

using DotFn = float (*)(const float*, const float*, int);
DotFn PickDot() {
#if defined(HIERGAT_ANN_DOT_DISPATCH)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return DotAvx2;
  }
#endif
  return DotScalar;
}
const DotFn kDot = PickDot();

inline float Dot(const float* a, const float* b, int dim) {
  return kDot(a, b, dim);
}

/// int8 dot for the graph-walk hot path. Navigation vectors are
/// symmetric-quantized to int8 (q = round(127 * v) on the normalized
/// vector), shrinking a dim-128 vector from eight cache lines to two.
/// Integer sums are exact, so the scalar and AVX2 paths agree
/// bit-for-bit (the accumulator never leaves int32:
/// |sum| <= 127*127*4096 < 2^31).
int32_t DotQScalar(const int8_t* a, const int8_t* b, int dim) {
  int32_t s = 0;
  for (int i = 0; i < dim; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

#if defined(HIERGAT_ANN_DOT_DISPATCH)
__attribute__((target("avx2"))) int32_t DotQAvx2(const int8_t* a,
                                                 const int8_t* b, int dim) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
    const __m256i ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi));
  }
  __m128i quad = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
  quad = _mm_add_epi32(quad, _mm_srli_si128(quad, 8));
  quad = _mm_add_epi32(quad, _mm_srli_si128(quad, 4));
  int32_t out = _mm_cvtsi128_si32(quad);
  for (; i < dim; ++i) {
    out += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return out;
}
#endif

/// The int8 walk follows HIERGAT_BACKEND like the tensor kernels: the
/// scalar backend walks with DotQScalar, so the scalar CI leg runs it.
using DotQFn = int32_t (*)(const int8_t*, const int8_t*, int);
DotQFn PickDotQ() {
#if defined(HIERGAT_ANN_DOT_DISPATCH)
  if (std::strcmp(backend::ActiveName(), "scalar") != 0 &&
      __builtin_cpu_supports("avx2")) {
    return DotQAvx2;
  }
#endif
  return DotQScalar;
}

/// q = round(127 * v); |v_i| <= 1 after L2 normalization, so the result
/// fits int8 exactly. Deterministic (lround ties away from zero).
void Quantize(const float* v, int dim, int8_t* out) {
  for (int i = 0; i < dim; ++i) {
    out[i] = static_cast<int8_t>(std::lround(v[i] * 127.0f));
  }
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
  std::vector<float> unit;        ///< Search: the normalized query.
  std::vector<int8_t> query;      ///< Search: its int8 copy.

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
        dot_q(PickDotQ()) {}

  /// A copy, so the hot paths read `dim` and `max_neighbors` from the
  /// shard itself, without a pointer back into the owning AnnIndex.
  const AnnIndexOptions opts;
  const int l0_cap;
  const double ml;
  Rng rng;
  const DotQFn dot_q;

  std::vector<float> vectors;        ///< slot-major, L2-normalized.
  /// int8 navigation copy of `vectors` (see DotQ): the beam walks this,
  /// the float vectors only back the final rerank.
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

  /// Exact int8 dot of two navigation vectors, as the walk's float score.
  float DotQ(const int8_t* a, const int8_t* b) const {
    return static_cast<float>(dot_q(a, b, opts.dim));
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

  /// Greedy hill-climb toward `query` at `layer` (ef = 1 descent).
  int32_t GreedyStep(const int8_t* query, int32_t start, int layer,
                     int64_t* dist_evals) const {
    int32_t cur = start;
    float cur_sim = DotQ(query, QVec(cur));
    ++*dist_evals;
    bool improved = true;
    while (improved) {
      improved = false;
      const auto [list, size] = Links(cur, layer);
      for (int i = 0; i < size; ++i) PrefetchQ(list[i]);
      *dist_evals += size;
      for (int i = 0; i < size; ++i) {
        const int32_t nb = list[i];
        const float sim = DotQ(query, QVec(nb));
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
  /// then dots them in row order. Under the strict (sim, slot) order the
  /// beam's final set does not depend on push order, so this visits and
  /// keeps exactly what a one-neighbour-at-a-time walk would.
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
    std::vector<Scored>& frontier = scratch.frontier;
    std::vector<Scored>& results = *out;
    const size_t width = static_cast<size_t>(ef);
    const Scored first{DotQ(query, QVec(start)), start};
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
      for (int i = 0; i < num_fresh; ++i) {
        const Scored hit{DotQ(query, QVec(fresh[i])), fresh[i]};
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
  /// examined (slot -1 when every candidate was kept).
  Scored SelectNeighbors(const std::vector<Scored>& candidates, int m,
                         std::vector<Scored>* kept, int64_t* dist_evals,
                         Scratch& scratch) const {
    const size_t cap = static_cast<size_t>(m);
    std::vector<Scored>& skipped = scratch.skipped;
    kept->clear();
    skipped.clear();
    size_t next = 0;
    for (; next < candidates.size() && kept->size() < cap; ++next) {
      const Scored& c = candidates[next];
      const int8_t* cq = QVec(c.slot);
      bool diverse = true;
      for (const Scored& k : *kept) {
        ++*dist_evals;
        if (DotQ(cq, QVec(k.slot)) > c.sim) {
          diverse = false;
          break;
        }
      }
      (diverse ? *kept : skipped).push_back(c);
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
    const int8_t* bq = QVec(b);
    for (int i = 0; i < bsize; ++i) {
      candidates.push_back(Scored{DotQ(bq, QVec(blist[i])), blist[i]});
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
      cur = GreedyStep(query, cur, layer, &dist_evals);
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
      cur = GreedyStep(q.data(), cur, layer, dist_evals);
    }
    SearchLayer(q.data(), cur, std::max(opts.ef_search, n), 0, dist_evals,
                scratch, &found);
    for (Scored& f : found) {
      f.sim = Dot(query, Vec(f.slot), opts.dim);
      ++*dist_evals;
    }
    std::sort(found.begin(), found.end(), Better);
    if (static_cast<int>(found.size()) > n) {
      found.resize(static_cast<size_t>(n));
    }
    return found;
  }
};

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

void AnnIndex::Insert(int64_t id, const std::vector<float>& vector) {
  HG_CHECK_GE(id, 0);
  HG_CHECK_EQ(static_cast<int>(vector.size()), options_.dim);
  ShardFor(id).Insert(id, vector);
  InsertCounter().Increment();
  SizeGauge().Add(1.0);
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
  if (n <= 0) return {};
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
  if (n <= 0) return {};
  std::vector<Hit> all;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (int32_t slot = 0; slot < shard->count(); ++slot) {
      const int64_t id = shard->ids[static_cast<size_t>(slot)];
      if (id == exclude) continue;
      all.push_back(Hit{id, Dot(query.data(), shard->Vec(slot), options_.dim)});
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
