#ifndef HIERGAT_BLOCKING_ANN_INDEX_H_
#define HIERGAT_BLOCKING_ANN_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"

namespace hiergat {

/// The recall@10 against `AnnIndex::SearchBruteForce` that the index
/// keeps on clustered data in every tested shape (ann_property_test,
/// DESIGN.md §16).
constexpr float kAnnMinRecall = 0.9f;

/// Tuning knobs of the sharded HNSW index (DESIGN.md §16).
struct AnnIndexOptions {
  /// Embedding dimensionality. Every inserted vector must have exactly
  /// this many components. 64 is the sweet spot for the hashed n-gram
  /// space: dim 32 caps gold recall near 0.93 on the synthetic tables,
  /// 64 clears 0.95 while keeping a vector at four cache lines.
  int dim = 64;
  /// Number of independent HNSW shards; records are routed by a
  /// splitmix64 hash of their id, queries fan out to every shard and the
  /// per-shard top-N lists are heap-merged. More shards bound per-shard
  /// graph size (and let future callers build shards in parallel) at the
  /// price of a per-query fan-out factor.
  int num_shards = 4;
  /// Max links per node per layer (HNSW "M"); layer 0 keeps 2x.
  int max_neighbors = 8;
  /// Beam width while inserting. Larger = better graphs, slower builds.
  int ef_construction = 48;
  /// Beam width while searching. Larger = higher recall, slower queries.
  int ef_search = 32;
  /// Seeds the per-shard level draws; fixed seed + fixed insert order =>
  /// bit-identical graphs and searches.
  uint64_t seed = 17;
};

/// Sharded HNSW (hierarchical navigable small world) index over
/// L2-normalized float vectors, ranked by cosine (Hit says which score
/// it reports). This is the candidate generator that replaces exact
/// all-pairs TF-IDF cosine for
/// million-record blocking (ROADMAP item 4): Insert is incremental (no
/// rebuild, ~log n link updates) and Search is a per-shard beam descent
/// plus a heap merge. The index lives in memory only: callers embed and
/// insert their records in the run that queries them.
///
/// Thread safety: each shard carries a reader/writer lock — any number
/// of concurrent Search calls may overlap one Insert stream (readers
/// see the index as of their acquisition). Concurrent *inserts* are
/// serialized by the caller or by the per-shard exclusive lock.
///
/// Invariants (checkable via CheckInvariants, asserted by
/// tests/ann_property_test.cc):
///   - links are bidirectional at every layer: u lists v iff v lists u;
///   - a node has link lists exactly for layers 0..level(node);
///   - shrinking a full list never takes a node's last link at that
///     layer.
/// Reachability from the entry point is checked but not guaranteed: a
/// shrink can cut the last path between two parts of a layer, and a new
/// node whose every neighbour drops it keeps no link. It holds in the
/// tested shapes (M 8, dim 8-32) and the bench's (M 24, dim 128), and
/// fails at M 2 or 3 and at dim 1 (reproducer in DESIGN.md §16).
class AnnIndex {
 public:
  explicit AnnIndex(const AnnIndexOptions& options);
  ~AnnIndex();
  AnnIndex(const AnnIndex&) = delete;
  AnnIndex& operator=(const AnnIndex&) = delete;

  /// One search hit: external record id + `similarity`, the dot of the
  /// query as passed with the stored unit vector (query · v̂). That is
  /// the cosine only for a unit-length query, which EmbedBlocker's
  /// queries are; other queries get the cosine scaled by |query|.
  struct Hit {
    int64_t id = -1;
    float similarity = 0.0f;
  };

  /// Inserts a vector under `id` (any non-negative value, since -1 is
  /// Search's `exclude` sentinel; duplicate ids are allowed and surface
  /// as distinct hits). The vector is copied and L2-normalized; all-zero
  /// vectors are stored as-is and match nothing strongly. A vector with
  /// a NaN or infinite component is InvalidArgument and stores nothing.
  /// Incremental: O(ef_construction * log n) link updates, no rebuild.
  Status Insert(int64_t id, const std::vector<float>& vector);

  /// The `n` most cosine-similar inserted ids to any nonzero `query`,
  /// best first, ties broken by ascending id; each hit's similarity is
  /// query · v̂ (see Hit). Searches every shard's graph with an
  /// ef_search-wide beam and heap-merges the per-shard top lists.
  /// `exclude` (-1 for none) drops one external id from the result (the
  /// query itself, when it lives in the index). A query with a NaN or
  /// infinite component has no hits.
  std::vector<Hit> Search(const std::vector<float>& query, int n,
                          int64_t exclude = -1) const;

  /// Exact top-N by scanning every stored vector — the recall baseline
  /// the property tests hold Search against. Same tie-breaking, and the
  /// same empty result for a non-finite query.
  std::vector<Hit> SearchBruteForce(const std::vector<float>& query, int n,
                                    int64_t exclude = -1) const;

  int64_t size() const;
  const AnnIndexOptions& options() const { return options_; }

  /// Structural self-check of every shard graph (bidirectional links,
  /// per-layer list shape, layer-0 reachability from the entry point).
  Status CheckInvariants() const;

  /// The int8 navigation copy of a normalized vector: q = round(127 * v)
  /// (ties away from zero) with 127 * v clamped to [-127, 127] first.
  /// Never -128, which the AVX2 int8 dot cannot take (tensor/kernels.h
  /// DotI8Rows); a unit vector's components round to at most 127 anyway.
  static void Quantize(const float* v, int dim, int8_t* out);

 private:
  struct Shard;

  Shard& ShardFor(int64_t id);
  static Status ValidateOptions(const AnnIndexOptions& options);

  AnnIndexOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hiergat

#endif  // HIERGAT_BLOCKING_ANN_INDEX_H_
