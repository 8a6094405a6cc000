#ifndef HIERGAT_ER_COMPILED_SCORING_H_
#define HIERGAT_ER_COMPILED_SCORING_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "er/comparison.h"
#include "nn/mlp.h"
#include "tensor/graph.h"
#include "text/mini_lm.h"

namespace hiergat {

/// Wiring for CompiledScoring. All module pointers must outlive the
/// CompiledScoring instance (the models own both).
struct CompiledScoringConfig {
  const MiniLm* lm = nullptr;
  const HierarchicalComparator* comparator = nullptr;
  const Mlp* classifier = nullptr;
  int num_attributes = 0;
};

struct PackedSequences;

/// Compiled-graph execution of the NoGrad scoring path (DESIGN.md §11).
///
/// Two graph families cover it:
///  - *packed encoder* graphs, one per row-capacity bucket (powers of
///    two up to kMaxRows): the MiniLM encoder over [capacity, F] rows
///    that pack several sequences, replayed over the live rows with the
///    sequence and query tables as replay arguments (graph::Replay).
///    Every MiniLM sequence of a scoring batch runs through them: the
///    token-context encodes (every row a query row), and the attribute
///    summaries and comparisons, which read only [CLS] and so run the
///    last layer's query side on each sequence's row 0 alone;
///  - one *compare head* graph: the K comparison [CLS] rows, the 2K
///    attribute summaries and the two [1, K*F] entity embeddings ->
///    [1, 2] logits (interaction fusion x K, CombineViews, classifier).
///
/// A packed row gets the bits it has when its sequence is encoded alone
/// (row-wise nodes are M-independent, attention runs per sequence), so
/// the caller's eager modules stay a bit-identical fallback. A capture
/// failure (Status::Unimplemented from GraphCapture::Finish) is
/// remembered and the affected entry point permanently reports failure;
/// replay is never allowed to be wrong, only absent.
///
/// Thread-safe: lazy compilation is serialized by an internal mutex and
/// replay runs on shared_ptr-held graphs, so Clear() may race scoring.
/// Graphs fold capture-time parameter values into constants — owners
/// must Clear() whenever parameters change (the models route
/// InvalidateInferenceCache here).
class CompiledScoring {
 public:
  /// Most rows one packed replay takes, and so the longest sequence it
  /// encodes: callers run a longer one eagerly, and a batch with more
  /// rows splits into several replays.
  static constexpr int kMaxRows = 128;

  explicit CompiledScoring(const CompiledScoringConfig& config);
  ~CompiledScoring();
  CompiledScoring(const CompiledScoring&) = delete;
  CompiledScoring& operator=(const CompiledScoring&) = delete;

  /// Encodes every sequence of `seqs`: adds each row's position within
  /// its sequence, then replays the smallest bucket that holds each run
  /// of sequences. Stores each sequence's encoded rows — only its row 0,
  /// the [CLS] output, when `cls_only`, which the last layer then
  /// computes alone — in `(*out)[item]`, and returns
  /// true; returns false, storing nothing, when the encoder graph failed
  /// to capture (the caller runs its eager modules).
  bool Encode(PackedSequences* seqs, bool cls_only,
              std::vector<Tensor>* out) const;

  /// Compare-and-classify replay over one pair's K comparison [CLS] rows
  /// (the encoder's row 0 of each `[CLS] l [SEP] r [SEP]`), its K `left`
  /// / `right` attribute summaries ([1, F] each) and the two [1, K*F]
  /// entity embeddings. Returns [1, 2] logits, or an undefined Tensor
  /// when compilation failed.
  Tensor CompareHead(std::span<const Tensor> cls, std::span<const Tensor> left,
                     std::span<const Tensor> right, const Tensor& left_entity,
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
  std::shared_ptr<graph::CompiledGraph> EncoderGraph(int capacity) const;
  std::shared_ptr<graph::CompiledGraph> HeadGraph() const;
  std::shared_ptr<graph::CompiledGraph> BuildEncoderGraph(int capacity) const;
  std::shared_ptr<graph::CompiledGraph> BuildHeadGraph() const;

  CompiledScoringConfig config_;
  /// Scaled sinusoidal positions [kMaxRows, F], as the eager encoder
  /// adds them.
  std::vector<float> positions_;

  mutable std::mutex mutex_;
  mutable std::map<int, std::shared_ptr<graph::CompiledGraph>> encoders_;
  mutable bool encoder_failed_ = false;
  mutable std::shared_ptr<graph::CompiledGraph> head_;
  mutable bool head_failed_ = false;
  mutable int num_failed_ = 0;
};

/// The inputs of one packed encode: several MiniLM sequences as
/// row-major [Σ len, F] rows (token rows, plus segment rows for a pair
/// sequence; CompiledScoring::Encode adds the positions), the row where
/// each sequence begins followed by the end, and the caller's item index
/// of each sequence.
struct PackedSequences {
  explicit PackedSequences(int dim) : dim(dim) {}

  /// Appends a `len`-row sequence for the caller's item `item` and
  /// returns its rows to fill, or nullptr when `len` exceeds
  /// CompiledScoring::kMaxRows (the caller runs that item eagerly).
  float* Append(int len, size_t item);
  int count() const { return static_cast<int>(items.size()); }

  int dim;
  std::vector<float> rows;
  std::vector<int> offsets{0};
  std::vector<size_t> items;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_COMPILED_SCORING_H_
