#ifndef HIERGAT_ER_COMPILED_SCORING_H_
#define HIERGAT_ER_COMPILED_SCORING_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "er/aggregation.h"
#include "er/comparison.h"
#include "nn/mlp.h"
#include "tensor/graph.h"
#include "text/mini_lm.h"

namespace hiergat {

/// Wiring for CompiledScoring. All module pointers must outlive the
/// CompiledScoring instance (the models own both).
struct CompiledScoringConfig {
  const MiniLm* lm = nullptr;
  const HierarchicalAggregator* aggregator = nullptr;
  const HierarchicalComparator* comparator = nullptr;
  const Mlp* classifier = nullptr;
  int num_attributes = 0;
};

/// Compiled-graph execution of the NoGrad scoring path (DESIGN.md §11).
///
/// Two graph families cover the shape-stable parts of scoring:
///  - per-length *summarize* graphs: [L, F] gathered WpC rows ->
///    [1, F] attribute summary (SummarizeEmbedded), one graph per
///    distinct attribute length L, compiled lazily on first sight;
///  - one fixed *compare* graph: 2K attribute summaries and the two
///    [1, K*F] entity embeddings -> [1, 2] logits (CompareAttribute x
///    K, CombineViews, classifier).
///
/// Everything upstream (HHG construction, the per-pair contextual WpC
/// matrix) stays eager — its shapes vary per pair — and so do the
/// entity embeddings between the two families (a concat of the
/// summaries; HierGAT+ also aligns them) and the final Softmax. The
/// models reach both families through HierGatStack, which owns the
/// replay-or-eager choice. Capture failures
/// (Status::Unimplemented from GraphCapture::Finish) are remembered and
/// the affected entry point permanently returns an undefined Tensor, so
/// callers keep their eager path; replay is never allowed to be wrong,
/// only absent.
///
/// Thread-safe: lazy compilation is serialized by an internal mutex and
/// replay runs on shared_ptr-held graphs, so Clear() may race scoring.
/// Graphs fold capture-time parameter values into constants — owners
/// must Clear() whenever parameters change (the models route
/// InvalidateInferenceCache here).
class CompiledScoring {
 public:
  explicit CompiledScoring(const CompiledScoringConfig& config);
  ~CompiledScoring();
  CompiledScoring(const CompiledScoring&) = delete;
  CompiledScoring& operator=(const CompiledScoring&) = delete;

  /// Attribute summarization through the length-L compiled graph:
  /// gathers `token_seq`'s rows from `wpc` into a dense block and
  /// replays. Returns an undefined Tensor when compilation failed for
  /// this length (caller falls back to the eager aggregator).
  Tensor Summarize(const Tensor& wpc, const std::vector<int>& token_seq) const;

  /// Compare-and-classify replay over K `left` / `right` attribute
  /// summaries ([1, F] each) and the two [1, K*F] entity embeddings.
  /// Returns [1, 2] logits, or an undefined Tensor when compilation
  /// failed.
  Tensor Compare(const std::vector<Tensor>& left,
                 const std::vector<Tensor>& right, const Tensor& left_entity,
                 const Tensor& right_entity) const;

  /// Drops every compiled graph (parameters changed; they recompile
  /// lazily). In-flight replays finish on the old graphs.
  void Clear();

  struct Stats {
    int num_graphs = 0;        ///< Compiled and currently held.
    int num_failed = 0;        ///< Capture attempts that poisoned.
    size_t plan_bytes = 0;     ///< Summed packed-arena footprint.
    size_t eager_bytes = 0;    ///< Summed eager intermediate footprint.
  };
  Stats stats() const;

 private:
  std::shared_ptr<graph::CompiledGraph> SummarizeGraph(int length) const;
  std::shared_ptr<graph::CompiledGraph> CompareGraph() const;
  std::shared_ptr<graph::CompiledGraph> BuildSummarizeGraph(int length) const;
  std::shared_ptr<graph::CompiledGraph> BuildCompareGraph() const;

  CompiledScoringConfig config_;

  mutable std::mutex mutex_;
  mutable std::unordered_map<int, std::shared_ptr<graph::CompiledGraph>>
      summarize_;
  mutable std::unordered_set<int> summarize_failed_;
  mutable std::shared_ptr<graph::CompiledGraph> compare_;
  mutable bool compare_failed_ = false;
  mutable int num_failed_ = 0;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_COMPILED_SCORING_H_
