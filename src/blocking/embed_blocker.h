#ifndef HIERGAT_BLOCKING_EMBED_BLOCKER_H_
#define HIERGAT_BLOCKING_EMBED_BLOCKER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/ann_index.h"
#include "data/entity.h"
#include "text/hashed_embeddings.h"

namespace hiergat {

/// Options for embedding-index blocking, the scale-out sibling of
/// `CollectiveBuildOptions` (DESIGN.md §16).
struct EmbedBlockOptions {
  int top_n = 16;      ///< Candidates per query.
  int bands = 4;       ///< Progressive-emission similarity bands.
  AnnIndexOptions index;  ///< Underlying sharded HNSW tuning.
};

/// Deterministic entity embedder in the hashed char-n-gram word space —
/// the same space the MiniLM token tables are initialized from, so
/// near-duplicate records land near each other. An entity's vector is
/// the L2-normalized mean of its value-token word vectors; per-word
/// vectors are memoized (generator vocabularies are small, so at 10^6
/// records the cache turns embedding into a hash lookup). Thread-safe:
/// one lock per entity covers its cache lookups and the words it adds.
class HashedNgramEmbedder {
 public:
  explicit HashedNgramEmbedder(int dim, uint64_t seed = 0x5eedf00dULL);

  std::vector<float> operator()(const Entity& entity) const;
  int dim() const { return dim_; }

 private:
  int dim_;
  HashedEmbeddings embeddings_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, std::vector<float>> word_cache_;
};

/// One emitted blocking pair: query position (caller's numbering),
/// candidate external id from the index, and their cosine similarity.
struct CandidatePair {
  int query = -1;
  int64_t candidate = -1;
  float similarity = 0.0f;
};

/// Embedding-index blocker: embeds records once, keeps them in a sharded
/// HNSW `AnnIndex`, and answers top-N queries in sub-linear time. This
/// is the million-record replacement for `TfIdfBlocker` (ROADMAP item
/// 4): Add is incremental (no rebuild), and the index lives in memory
/// for the run that fills and queries it.
class EmbedBlocker {
 public:
  /// Embeds with a `HashedNgramEmbedder` of the index dim.
  explicit EmbedBlocker(const EmbedBlockOptions& options);

  /// Embeds and inserts one record under `id` — incremental, O(log n).
  void Add(int64_t id, const Entity& entity);
  /// Adds a whole corpus under ids 0..n-1.
  void AddAll(const std::vector<Entity>& corpus);

  /// Top-n most similar indexed ids for `query`, best first; `exclude`
  /// drops one id (the query itself when it was indexed).
  std::vector<AnnIndex::Hit> TopN(const Entity& query, int n,
                                  int64_t exclude = -1) const;

  std::vector<float> Embed(const Entity& entity) const {
    return embedder_(entity);
  }

  const EmbedBlockOptions& options() const { return options_; }
  const AnnIndex& index() const { return index_; }
  AnnIndex& index() { return index_; }

 private:
  EmbedBlockOptions options_;
  HashedNgramEmbedder embedder_;
  AnnIndex index_;
};

/// Progressive blocking iterator (Galhotra et al., PAPERS.md): yields
/// candidate pairs in descending similarity bands so downstream matching
/// can start scoring the high-confidence pairs before blocking finishes
/// emitting the tail. Usage:
///
///   ProgressiveCandidates stream(blocker, queries, options);
///   while (!stream.Done()) {
///     for (const CandidatePair& p : stream.NextBatch()) Score(p);
///   }
///
/// The first NextBatch call runs all searches (that cost is unavoidable
/// — band floors depend on the observed similarity range), then bands
/// are handed out one per call, each sorted best-first, with
/// monotonically decreasing floors: every pair in batch k is at least as
/// similar as `band_floors()[k]`, and floors strictly descend.
class ProgressiveCandidates {
 public:
  ProgressiveCandidates(const EmbedBlocker& blocker,
                        const std::vector<Entity>& queries,
                        const EmbedBlockOptions& options);

  /// The next (lower) similarity band; empty once exhausted.
  std::vector<CandidatePair> NextBatch();
  bool Done() const { return searched_ && next_band_ >= bands_.size(); }

  /// Valid after the first NextBatch: one floor per band, descending.
  const std::vector<float>& band_floors() const { return floors_; }
  int total_pairs() const { return total_pairs_; }

 private:
  void SearchAll();

  const EmbedBlocker& blocker_;
  const std::vector<Entity>& queries_;
  int top_n_;
  int num_bands_;
  bool searched_ = false;
  size_t next_band_ = 0;
  int total_pairs_ = 0;
  std::vector<std::vector<CandidatePair>> bands_;
  std::vector<float> floors_;
};

}  // namespace hiergat

#endif  // HIERGAT_BLOCKING_EMBED_BLOCKER_H_
