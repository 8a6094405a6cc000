#ifndef HIERGAT_ER_SUMMARY_CACHE_H_
#define HIERGAT_ER_SUMMARY_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "tensor/tensor.h"

namespace hiergat {

/// Thread-safe memo table for entity-summarization tensors.
///
/// Downstream of blocking the same entity appears in many candidate
/// pairs (and in a collective query every candidate shares the graph
/// with the query), so the per-attribute-value parts of the forward
/// pass — the token-level contextual encoding and the attribute-context
/// pooling, which depend only on the attribute's own token sequence —
/// are recomputed over and over. The cache keys those tensors by the
/// token sequence and returns bit-identical copies, so batched scoring
/// matches the uncached path exactly regardless of batch composition,
/// thread count, or visit order.
///
/// Only inference may consult the cache: cached tensors are detached,
/// and entries are only valid for the parameter values they were
/// computed under (owners clear the cache when parameters change; see
/// PairwiseModel::InvalidateInferenceCache).
///
/// Memory is bounded with *segmented* eviction: once the table holds
/// `max_entries` entries the next insert evicts down to half capacity
/// instead of flushing everything, so roughly half the working set
/// survives each capacity event and hot keys keep hitting. Evicted
/// values are simply recomputed on the next request — results are
/// deterministic, so eviction never changes scores, only hit rate.
/// Long runs over corpora with more than `max_entries` distinct
/// attribute values therefore stay bounded without any caller-side
/// Clear() discipline.
class SummaryCache {
 public:
  /// Default cap. Entries hold per-attribute-value summary tensors
  /// (typically a few KB each), so this bounds the cache to low GBs in
  /// the worst case; pass a smaller cap for memory-constrained runs.
  static constexpr size_t kDefaultMaxEntries = 1 << 18;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Entries dropped by capacity flushes (not Clear()).
    int64_t evictions = 0;

    /// hits / (hits + misses); 0 when nothing was looked up.
    double HitRate() const {
      const int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  explicit SummaryCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries > 0 ? max_entries : 1) {}

  /// Find returns the entry for `key` and counts a hit, or an undefined
  /// Tensor (counting nothing); the caller then computes the value
  /// outside the lock. Insert counts a miss and stores a detached copy
  /// of `value` (if two threads race on a key, both compute the same
  /// deterministic value and the first insert wins) and returns the
  /// stored tensor.
  Tensor Find(const std::string& key);
  Tensor Insert(const std::string& key, const Tensor& value);

  /// Drops every entry (parameters changed or memory reclaim).
  void Clear();

  size_t size() const;
  size_t max_entries() const { return max_entries_; }

  Stats stats() const;

 private:
  /// Erases arbitrary entries until size() <= target. Caller holds
  /// mutex_.
  void EvictDownToLocked(size_t target);

  const size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Tensor> entries_;
  Stats stats_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_SUMMARY_CACHE_H_
