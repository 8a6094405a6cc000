#ifndef HIERGAT_TENSOR_GRAPH_H_
#define HIERGAT_TENSOR_GRAPH_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace graph {

/// Record/replay layer for the NoGrad scoring path (DESIGN.md §11).
///
/// Capture is *tracing*: under a GraphCapture guard, ops in tensor/ops.cc
/// still execute eagerly (so the capture call itself returns correct
/// values) and additionally append a node to the active recorder. The
/// node is the op's one forward body, a raw-pointer closure over the
/// op's dimensions, which eager execution runs too.
/// Finish() runs the allocation planner over the trace and produces an
/// immutable CompiledGraph whose Run() replays the node closures against
/// a single arena block: no Tensor, shared_ptr, BufferPool, or metric
/// traffic per op, constant subgraphs folded away, and slices/reshapes
/// reduced to pointer offsets.
///
/// Capture rules (what makes a trace compilable):
///  - Tensors created *before* the capture (weights, embedded inputs)
///    are leaves. Plain leaves are resolved through their TensorImpl on
///    every Run, so in-place parameter edits are visible; but any node
///    computed *entirely from leaves* is folded to a constant holding
///    its capture-time value, so callers must drop compiled graphs when
///    parameters change (HierGatModel does this in
///    InvalidateInferenceCache / BuildModules / Load).
///  - Tensors whose data varies per replay must be declared with
///    MarkInput *before* an op consumes them.
///  - Any op without a Record call (training-mode Dropout,
///    SoftmaxCrossEntropy, Detach) poisons the capture: Finish() returns
///    Unimplemented and the caller keeps its eager path. Eager execution
///    during a poisoned capture remains fully correct.

/// What a node closure receives besides its buffers. Eager execution
/// passes, for the packed attention ops and QueryRows, the op's own
/// tables; a replay passes Run's tables.
///
/// A *packed* graph (DESIGN.md §11) is captured over [capacity, ·] row
/// blocks and replayed over any `rows <= capacity` live rows holding
/// several sequences: its row-wise nodes (Linear, LayerNorm, Add, the
/// unary activations, ConcatCols) run only the live rows, and the packed
/// attention ops run once per sequence. Padding rows cost arena bytes,
/// not arithmetic. No other op reads the tables, so a packed graph holds
/// only these.
///
/// A packed graph's values hold one of two row sets. Those computed from
/// the inputs alone hold every live row; those downstream of a QueryRows
/// gather hold only the *query rows*, sequence s's first
/// queries[s + 1] - queries[s] rows, packed at rows
/// [queries[s], queries[s + 1]). The planner marks each node's side at
/// capture. A replay hands a query-side node its query table and every
/// other node `segments` as `queries`, so a node's Rows() is its side's
/// live row count and a packed attention op outside the query side
/// attends from every row. An encoder that keeps only each sequence's
/// row 0 replays with the table 0, 1, ..., count and runs its last
/// layer's query side on one row per sequence.
struct Replay {
  /// Sequence s is rows [segments[s], segments[s + 1]); empty outside
  /// packed execution.
  std::span<const int> segments;
  /// Query table, one entry per `segments` entry (see above); empty
  /// means `segments`.
  std::span<const int> queries;

  /// Live rows of an operand captured with `captured` rows.
  int Rows(int captured) const {
    if (!queries.empty()) return queries.back();
    return segments.empty() ? captured : segments.back();
  }
};

/// Node closure executed at replay. `in` holds the resolved input
/// buffers in record order; `scratch` holds the writable per-node
/// scratch buffers registered at record time (arena-planned, live only
/// for this node); `out` is the node's output slot. Arena memory is
/// *not* zero-filled — closures that accumulate (the GEMM family) must
/// zero `out` themselves.
using NodeFn = std::function<void(const float* const* in,
                                  float* const* scratch, float* out,
                                  const Replay& replay)>;

/// Planner + capture statistics for one compiled graph.
struct PlanStats {
  int num_nodes = 0;   ///< Executable nodes after folding/view elision.
  int num_values = 0;  ///< All values: constants, inputs, arena, views.
  int num_folded = 0;  ///< Ops collapsed into constants at capture.
  int num_views = 0;   ///< Slices/reshapes elided to pointer offsets.
  size_t plan_bytes = 0;   ///< Arena footprint after live-range packing.
  size_t eager_bytes = 0;  ///< Intermediate bytes the eager path allocates.
  int64_t est_flops = 0;   ///< Static FLOP estimate for one replay.
  int64_t est_bytes = 0;   ///< Static bytes-moved estimate for one replay.
};

/// Static cost annotation for one executable node, fixed at plan time.
/// `flops` comes from the op's Record call (GEMM-family ops pass exact
/// 2*m*n*k counts; ops that pass nothing default to one FLOP per output
/// element); `bytes` is the f32 traffic through the node — every input
/// read plus scratch plus the output write. Each replay adds its graph's
/// per-op-name sums of these to the `hiergat.graph.node.<name>.*`
/// counters, and stamps them on the node's trace span so
/// tools/hg_trace_report.py can rank hot nodes by measured time with
/// cost context. A packed graph's static costs are those of its capture,
/// a full bucket of capture-layout sequences; a packed replay instead
/// adds (and stamps) its live cost: a row-wise node's scales by its live
/// rows (query rows on the query side) over captured rows, with its
/// constant operands (weights) counted whole, and a packed attention
/// node's follows the block floats it touches (BlockCost).
struct NodeCost {
  const char* name = nullptr;  ///< Op name (static lifetime).
  int64_t flops = 0;
  int64_t bytes = 0;
};

/// Cost of a packed attention node, which runs one qlen x len block per
/// sequence of its Replay (len x len outside the query side):
/// `flops_per_block` FLOPs and `floats_per_block` f32 traffic per block
/// float, plus `floats_per_row` f32 traffic per live row (its key or
/// value rows) and `floats_per_query_row` per live query row (its query
/// or output rows; every row outside the query side). `capture_blocks`
/// is the block floats it was captured under; 0 marks every other node.
struct BlockCost {
  int64_t capture_blocks = 0;
  int64_t flops_per_block = 0;
  int64_t floats_per_block = 0;
  int64_t floats_per_row = 0;
  int64_t floats_per_query_row = 0;
};

/// Introspection for planner tests: one arena value's placement.
struct PlannedValue {
  size_t offset_floats = 0;
  size_t size_floats = 0;  ///< Rounded-up slot actually reserved.
  int def_node = 0;
  int last_use_node = 0;  ///< Inclusive; outputs are pinned past the end.
};

/// An immutable captured graph plus its memory plan. Thread-safe for
/// concurrent Run() calls: per-replay state (arena block, pointer
/// tables) is recycled through a small internal freelist, so a steady
/// replay allocates nothing.
class CompiledGraph {
 public:
  ~CompiledGraph();
  CompiledGraph(const CompiledGraph&) = delete;
  CompiledGraph& operator=(const CompiledGraph&) = delete;

  int num_inputs() const;
  int num_outputs() const;
  const Shape& input_shape(int i) const;
  const Shape& output_shape(int i) const;
  int64_t output_size(int i) const;

  const PlanStats& stats() const;
  /// Arena placements in definition order (planner tests).
  const std::vector<PlannedValue>& plan() const;
  /// Per-node static cost annotations in execution order.
  const std::vector<NodeCost>& node_costs() const;

  /// Replays the graph. `inputs[i]` points at input_shape(i) elements;
  /// `outputs[i]` receives output_size(i) elements. Every node runs
  /// serially on the calling thread.
  /// A packed graph takes its sequence table in `segments` and its query
  /// table in `queries` (see Replay; empty means every row); its inputs
  /// are then the first `segments.back()` rows, and each output the first
  /// `segments.back()` rows, or `queries.back()` on the query side.
  void Run(const float* const* inputs, float* const* outputs,
           std::span<const int> segments = {},
           std::span<const int> queries = {}) const;

  struct Impl;   // Internal representation; graph.cc only.
  struct State;  // One replay's arena block and pointer tables.

 private:
  friend class GraphCapture;
  CompiledGraph();

  std::unique_ptr<State> AcquireState() const;
  void ReleaseState(std::unique_ptr<State> state) const;

  std::unique_ptr<Impl> impl_;

  // Recycled replay states, each with an arena of the planned footprint.
  mutable std::mutex state_mutex_;
  mutable std::vector<std::unique_ptr<State>> free_states_;
};

/// RAII capture scope. At most one capture per thread; captures on
/// different threads are independent. Typical use:
///
///   GraphCapture capture;
///   capture.MarkInput(x);               // per-replay data
///   Tensor y = /* ops over x and weights */;
///   capture.MarkOutput(y);
///   auto compiled = capture.Finish();   // StatusOr; Unimplemented when
///                                       // the trace hit an unsupported op
class GraphCapture {
 public:
  GraphCapture();
  ~GraphCapture();
  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  /// True while some GraphCapture is active on this thread.
  static bool Active();

  /// Declares `t` as replay-variable input i (call order defines i).
  /// Must precede any op that consumes `t`.
  void MarkInput(const Tensor& t);

  /// Declares `t` as output i (call order defines i). `t` must be a
  /// value the capture has seen (op result, input, or leaf).
  void MarkOutput(const Tensor& t);

  /// Ends the capture and runs the planner. Returns Unimplemented when
  /// the trace is not replayable (unsupported op or an op result that
  /// never passed through Record). May be called once.
  StatusOr<std::unique_ptr<CompiledGraph>> Finish();

  /// False once an unsupported op has poisoned the capture (Finish will
  /// fail; callers can bail out of an expensive trace early).
  bool ok() const;
};

// -- Recording hooks (called from tensor.cc / ops.cc) --------------------
// All are no-ops when no capture is active on the calling thread.

/// Tensor::MakeNode / MakeAlias registers every impl created during a
/// capture; Record/RecordView claim them back. Anything left unclaimed
/// marks the trace as not replayable. The recorder retains the impl for
/// the capture's duration so heap-address recycling can never alias two
/// distinct capture-time tensors in its pointer-keyed tables.
void OnTensorCreated(const std::shared_ptr<internal_tensor::TensorImpl>& impl);

/// Poisons the active capture (op with no replay closure).
void OnUnsupported(const char* what);

/// Records `out = fn(inputs...)`. `name` must have static lifetime (op
/// name literal; used for per-node trace spans). `scratch_sizes` are
/// per-node writable buffers (in floats) planned in the arena and
/// passed to `fn` in order. `flops` is the op's static FLOP count per
/// execution; ops with real arithmetic intensity (the GEMM family,
/// attention) pass exact counts, and the default -1 estimates one FLOP
/// per output element (right for elementwise/reduction ops). The
/// planner estimates bytes moved as the node's f32 traffic over inputs
/// + scratch + output. A packed attention op passes `blocks` instead,
/// and `flops` is then ignored (see NodeCost). A node is on the query
/// side (Replay) when `gathers_queries` (QueryRows) or when an input is;
/// a node without `blocks` that mixes an input on the query side with
/// one holding every row poisons the capture.
void Record(const Tensor& out, const std::vector<Tensor>& inputs,
            const char* name, NodeFn fn,
            const std::vector<size_t>& scratch_sizes = {},
            int64_t flops = -1, const BlockCost& blocks = {},
            bool gathers_queries = false);

/// Records `out` as a pure view of `base` at `offset_floats`
/// (SliceRows/Row/Reshape/Flatten): no node, no replay work.
void RecordView(const Tensor& out, const Tensor& base, size_t offset_floats);

}  // namespace graph
}  // namespace hiergat

#endif  // HIERGAT_TENSOR_GRAPH_H_
