#include "tensor/graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {
namespace graph {

namespace {

// Arena slots are rounded to 16 floats (64 bytes): values never share a
// cache line, and first-fit fragmentation stays bounded.
constexpr size_t kSlotAlignFloats = 16;
// Replay states kept per graph for concurrent replays; excess frees.
constexpr size_t kMaxFreeStates = 4;

size_t RoundSlot(size_t floats) {
  return (floats + kSlotAlignFloats - 1) / kSlotAlignFloats *
         kSlotAlignFloats;
}

obs::Counter& Compiles() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.compiles");
  return c;
}
obs::Counter& Replays() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.replays");
  return c;
}
obs::Counter& Folded() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.folded_nodes");
  return c;
}
obs::Counter& ArenaReuse() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.arena_reuse");
  return c;
}
obs::Gauge& PlanBytesGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("hiergat.graph.plan_bytes");
  return g;
}
/// Arena footprint across all live compiled graphs — the counterpart of
/// the `hiergat.tensor.pool.*` counters the eager path drives.
obs::Gauge& LiveArenaBytes() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("hiergat.graph.live_arena_bytes");
  return g;
}

/// Sampled per-node replay wall time in seconds (tracing enabled only).
obs::Histogram& NodeSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "hiergat.graph.node_seconds",
      obs::Histogram::ExponentialBounds(1e-7, 4.0, 12));
  return h;
}

/// Per-op-name metric bundle behind the `hiergat.graph.node.<name>.*`
/// family. Resolved once per name at plan time (the name set is the
/// fixed set of op literals), so replay touches only the atomics.
struct NodeCounters {
  obs::Counter* replays = nullptr;
  obs::Counter* ns = nullptr;  ///< Sampled wall time; grows only under tracing.
  obs::Counter* est_flops = nullptr;
  obs::Counter* est_bytes = nullptr;
};

NodeCounters* CountersForName(const char* name) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<NodeCounters>>* by_name =
      new std::map<std::string, std::unique_ptr<NodeCounters>>();
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = (*by_name)[name];
  if (!slot) {
    slot = std::make_unique<NodeCounters>();
    const std::string prefix = std::string("hiergat.graph.node.") + name;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    slot->replays = &registry.GetCounter(prefix + ".replays");
    slot->ns = &registry.GetCounter(prefix + ".ns");
    slot->est_flops = &registry.GetCounter(prefix + ".est_flops");
    slot->est_bytes = &registry.GetCounter(prefix + ".est_bytes");
  }
  return slot.get();
}

}  // namespace

struct CompiledGraph::Impl {
  enum class Kind { kConstant, kInput, kArena, kView };

  struct Value {
    Kind kind = Kind::kConstant;
    Shape shape;
    size_t size = 0;  ///< Exact floats.
    /// Constants: the capture-time impl, retained so the replay can
    /// resolve its buffer live (in-place edits to unfolded leaves such
    /// as raw weight matrices stay visible).
    std::shared_ptr<internal_tensor::TensorImpl> keep;
    int input_index = -1;   ///< kInput
    int def_node = -1;      ///< kArena
    int last_use = -1;      ///< kArena; inclusive node index
    int root = -1;          ///< kView: non-view base after resolution
    size_t view_offset = 0; ///< kView: floats from root start
    size_t arena_offset = 0;
    bool query_side = false;  ///< Holds a packed replay's query rows.
  };

  /// What a packed replay runs on each side ([0]: every row, [1]: the
  /// query side): live rows, and the block floats its attention nodes
  /// touch (Σ len² and Σ qlen·len).
  struct LiveWork {
    int64_t rows[2] = {};
    int64_t blocks[2] = {};
  };

  /// A cost as a linear function of a packed replay's LiveWork; see
  /// NodeCost.
  struct LiveCost {
    double fixed = 0.0;
    double per_row[2] = {};
    double per_block[2] = {};

    int64_t At(const LiveWork& work) const {
      double cost = fixed;
      for (int side = 0; side < 2; ++side) {
        cost += per_row[side] * static_cast<double>(work.rows[side]) +
                per_block[side] * static_cast<double>(work.blocks[side]);
      }
      return std::llround(cost);
    }
    void Add(const LiveCost& other) {
      fixed += other.fixed;
      for (int side = 0; side < 2; ++side) {
        per_row[side] += other.per_row[side];
        per_block[side] += other.per_block[side];
      }
    }
  };

  struct Node {
    const char* name = nullptr;  ///< Static-lifetime op name.
    NodeFn fn;
    std::vector<int> inputs;
    std::vector<int> scratch;
    int output = -1;
    int64_t flops = -1;  ///< From Record; -1 = default to output size.
    int64_t bytes = 0;   ///< f32 traffic, filled in at plan time.
    BlockCost blocks;    ///< From Record; packed attention nodes only.
    bool query_side = false;   ///< Runs a packed replay's query rows.
    LiveCost live_flops = {};  ///< Packed-replay cost, fixed at plan time.
    LiveCost live_bytes = {};
    NodeCounters* counters = nullptr;  ///< Resolved at plan time.
  };

  /// One op name's totals over the graph's nodes, added to its counters
  /// once per replay: the static ones, or the live ones in a packed
  /// replay.
  struct OpTotals {
    NodeCounters* counters = nullptr;
    int64_t nodes = 0;
    int64_t flops = 0;
    int64_t bytes = 0;
    LiveCost live_flops = {};
    LiveCost live_bytes = {};
  };

  std::vector<Value> values;
  std::vector<Node> nodes;
  std::vector<OpTotals> op_totals;
  std::vector<int> input_ids;
  std::vector<int> output_ids;
  size_t arena_floats = 0;
  size_t max_node_inputs = 0;
  size_t max_node_scratch = 0;
  PlanStats stats;
  std::vector<PlannedValue> plan;
  std::vector<NodeCost> node_costs;
};

namespace {

using Impl = CompiledGraph::Impl;
using Kind = Impl::Kind;

/// Per-thread capture state. Ops feed the recorder through the hooks
/// below; GraphCapture::Finish turns it into a CompiledGraph.
struct Recorder {
  Impl g;
  std::unordered_map<const internal_tensor::TensorImpl*, int> ids;
  /// Impls created during the capture that no Record/RecordView call
  /// has claimed yet. Nonempty at Finish — or consumed as an op input —
  /// means some op has no replay closure, so the trace must not replay.
  /// Values are retained: with every capture-time impl pinned (here or
  /// in a Value's `keep`), a freed impl's address can never be recycled
  /// into a colliding key while the capture is live.
  std::unordered_map<const internal_tensor::TensorImpl*,
                     std::shared_ptr<internal_tensor::TensorImpl>>
      unclaimed;
  bool poisoned = false;
  std::string poison_reason;

  void Poison(const char* what) {
    if (!poisoned) {
      poisoned = true;
      poison_reason = what;
    }
  }

  int AddValue(Impl::Value value, const internal_tensor::TensorImpl* key) {
    const int id = static_cast<int>(g.values.size());
    g.values.push_back(std::move(value));
    if (key != nullptr) ids.emplace(key, id);
    return id;
  }

  /// Value id for `t`, interning never-seen tensors as constant leaves.
  /// Returns -1 (capture poisoned) when `t` is an unclaimed node.
  int Intern(const Tensor& t) {
    const internal_tensor::TensorImpl* key = t.impl().get();
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    if (unclaimed.count(key) > 0) {
      Poison("an op consumed the result of an unrecorded op");
      return -1;
    }
    Impl::Value v;
    v.kind = Kind::kConstant;
    v.shape = t.shape();
    v.size = t.data().size();
    v.keep = t.impl();
    return AddValue(std::move(v), key);
  }
};

thread_local Recorder* tls_recorder = nullptr;

int RootOf(const Impl& g, int id) {
  return g.values[static_cast<size_t>(id)].kind == Kind::kView
             ? g.values[static_cast<size_t>(id)].root
             : id;
}

/// Resolves views, prunes unreferenced values, computes live ranges,
/// and packs arena values first-fit. Mutates `g` in place.
void PlanGraph(Impl* g) {
  // 1. Collapse view chains to a non-view root + cumulative offset.
  //    Bases always precede their views, so one id-ordered pass settles
  //    every chain.
  for (Impl::Value& v : g->values) {
    if (v.kind != Kind::kView) continue;
    int root = v.root;
    size_t offset = v.view_offset;
    while (g->values[static_cast<size_t>(root)].kind == Kind::kView) {
      offset += g->values[static_cast<size_t>(root)].view_offset;
      root = g->values[static_cast<size_t>(root)].root;
    }
    v.root = root;
    v.view_offset = offset;
  }

  // 2. Prune values nothing references (mostly constants folding left
  //    behind): they would otherwise pin capture-time buffers for the
  //    graph's whole lifetime.
  std::vector<char> used(g->values.size(), 0);
  auto mark = [&](int id) {
    used[static_cast<size_t>(id)] = 1;
    const int root = RootOf(*g, id);
    used[static_cast<size_t>(root)] = 1;
  };
  for (const Impl::Node& node : g->nodes) {
    for (int id : node.inputs) mark(id);
    for (int id : node.scratch) mark(id);
    mark(node.output);
  }
  for (int id : g->output_ids) mark(id);
  for (int id : g->input_ids) mark(id);  // Input indexing is part of the API.
  std::vector<int> remap(g->values.size(), -1);
  std::vector<Impl::Value> kept;
  kept.reserve(g->values.size());
  for (size_t i = 0; i < g->values.size(); ++i) {
    if (!used[i]) continue;
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(std::move(g->values[i]));
  }
  g->values = std::move(kept);
  for (Impl::Value& v : g->values) {
    if (v.kind == Kind::kView) v.root = remap[static_cast<size_t>(v.root)];
  }
  for (Impl::Node& node : g->nodes) {
    for (int& id : node.inputs) id = remap[static_cast<size_t>(id)];
    for (int& id : node.scratch) id = remap[static_cast<size_t>(id)];
    node.output = remap[static_cast<size_t>(node.output)];
  }
  for (int& id : g->input_ids) id = remap[static_cast<size_t>(id)];
  for (int& id : g->output_ids) id = remap[static_cast<size_t>(id)];

  // 3. Live ranges for arena values: [def_node, last consuming node].
  //    A use through a view is a use of its root; graph outputs are
  //    pinned past the last node so the copy-out always reads live
  //    bytes.
  for (Impl::Value& v : g->values) {
    if (v.kind == Kind::kArena) v.last_use = v.def_node;
  }
  const int num_nodes = static_cast<int>(g->nodes.size());
  for (int n = 0; n < num_nodes; ++n) {
    for (int id : g->nodes[static_cast<size_t>(n)].inputs) {
      Impl::Value& root = g->values[static_cast<size_t>(RootOf(*g, id))];
      if (root.kind == Kind::kArena) root.last_use = std::max(root.last_use, n);
    }
  }
  for (int id : g->output_ids) {
    Impl::Value& root = g->values[static_cast<size_t>(RootOf(*g, id))];
    if (root.kind == Kind::kArena) root.last_use = num_nodes;
  }

  // 4. First-fit packing in definition order. A slot is free for a
  //    value when no already-placed value with an overlapping live
  //    range overlaps it in the arena — the planner invariant the
  //    graph tests assert directly from plan().
  struct Placed {
    size_t begin, end;
    int def, last;
  };
  std::vector<Placed> placed;
  std::vector<std::pair<size_t, size_t>> busy;
  size_t high_water = 0;
  size_t eager_floats = 0;
  for (Impl::Value& v : g->values) {
    if (v.kind != Kind::kArena) continue;
    const size_t slot = RoundSlot(v.size);
    busy.clear();
    for (const Placed& p : placed) {
      if (p.last < v.def_node || p.def > v.last_use) continue;
      busy.emplace_back(p.begin, p.end);
    }
    std::sort(busy.begin(), busy.end());
    size_t offset = 0;
    for (const auto& [begin, end] : busy) {
      if (offset + slot <= begin) break;
      offset = std::max(offset, end);
    }
    v.arena_offset = offset;
    placed.push_back({offset, offset + slot, v.def_node, v.last_use});
    high_water = std::max(high_water, offset + slot);
    eager_floats += v.size;
    g->plan.push_back({offset, slot, v.def_node, v.last_use});
  }
  g->arena_floats = high_water;

  // Capture-time pins served their purpose; only constants keep their
  // impl (it holds the replay bytes).
  for (Impl::Value& v : g->values) {
    if (v.kind != Kind::kConstant) v.keep.reset();
  }

  for (const Impl::Node& node : g->nodes) {
    g->max_node_inputs = std::max(g->max_node_inputs, node.inputs.size());
    g->max_node_scratch = std::max(g->max_node_scratch, node.scratch.size());
  }

  // 5. Static per-node cost annotations. FLOPs come from the Record call
  //    (default: one per output element); bytes are the node's f32
  //    traffic — every input read, scratch, and the output write. These
  //    are estimates, not measurements: their job is to rank nodes and
  //    give trace spans arithmetic-intensity context, so a cache-line
  //    model would be false precision. The live cost of a packed replay
  //    (NodeCost) is linear in its live rows and block floats.
  g->node_costs.reserve(g->nodes.size());
  constexpr int64_t kFloatBytes = sizeof(float);
  for (Impl::Node& node : g->nodes) {
    const auto size_of = [&](int id) {
      return static_cast<int64_t>(g->values[static_cast<size_t>(id)].size);
    };
    const Impl::Value& out = g->values[static_cast<size_t>(node.output)];
    const int64_t rows = out.shape.empty() ? 0 : out.shape[0];
    int64_t constant_floats = 0;
    for (int id : node.inputs) {
      if (g->values[static_cast<size_t>(RootOf(*g, id))].kind ==
          Kind::kConstant) {
        constant_floats += size_of(id);
      }
    }
    node.live_bytes.fixed = static_cast<double>(constant_floats * kFloatBytes);
    const int side = node.query_side ? 1 : 0;
    const BlockCost& blocks = node.blocks;
    if (blocks.capture_blocks > 0) {
      node.flops = blocks.flops_per_block * blocks.capture_blocks;
      node.bytes = (constant_floats +
                    blocks.floats_per_block * blocks.capture_blocks +
                    (blocks.floats_per_row + blocks.floats_per_query_row) *
                        rows) *
                   kFloatBytes;
      node.live_flops.per_block[side] =
          static_cast<double>(blocks.flops_per_block);
      node.live_bytes.per_block[side] =
          static_cast<double>(blocks.floats_per_block * kFloatBytes);
      node.live_bytes.per_row[0] =
          static_cast<double>(blocks.floats_per_row * kFloatBytes);
      node.live_bytes.per_row[side] +=
          static_cast<double>(blocks.floats_per_query_row * kFloatBytes);
    } else {
      if (node.flops < 0) node.flops = size_of(node.output);
      int64_t traffic_floats = size_of(node.output);
      for (int id : node.inputs) traffic_floats += size_of(id);
      for (int id : node.scratch) traffic_floats += size_of(id);
      node.bytes = traffic_floats * kFloatBytes;
      if (rows > 0) {
        node.live_flops.per_row[side] =
            static_cast<double>(node.flops) / static_cast<double>(rows);
        node.live_bytes.per_row[side] =
            static_cast<double>((traffic_floats - constant_floats) *
                                kFloatBytes) /
            static_cast<double>(rows);
      } else {
        node.live_flops.fixed = static_cast<double>(node.flops);
        node.live_bytes.fixed = static_cast<double>(node.bytes);
      }
    }
    node.counters = CountersForName(node.name);
    auto totals = std::find_if(
        g->op_totals.begin(), g->op_totals.end(),
        [&](const Impl::OpTotals& t) { return t.counters == node.counters; });
    if (totals == g->op_totals.end()) {
      totals = g->op_totals.insert(g->op_totals.end(),
                                    Impl::OpTotals{node.counters});
    }
    totals->nodes += 1;
    totals->flops += node.flops;
    totals->bytes += node.bytes;
    totals->live_flops.Add(node.live_flops);
    totals->live_bytes.Add(node.live_bytes);
    g->node_costs.push_back({node.name, node.flops, node.bytes});
    g->stats.est_flops += node.flops;
    g->stats.est_bytes += node.bytes;
  }

  g->stats.num_nodes = num_nodes;
  g->stats.num_values = static_cast<int>(g->values.size());
  g->stats.plan_bytes = high_water * sizeof(float);
  g->stats.eager_bytes = eager_floats * sizeof(float);
}

}  // namespace

// -- CompiledGraph -------------------------------------------------------

CompiledGraph::CompiledGraph() : impl_(new Impl) {}

CompiledGraph::~CompiledGraph() {
  LiveArenaBytes().Add(-static_cast<double>(impl_->stats.plan_bytes));
}

int CompiledGraph::num_inputs() const {
  return static_cast<int>(impl_->input_ids.size());
}
int CompiledGraph::num_outputs() const {
  return static_cast<int>(impl_->output_ids.size());
}
const Shape& CompiledGraph::input_shape(int i) const {
  return impl_->values[static_cast<size_t>(impl_->input_ids[static_cast<size_t>(i)])]
      .shape;
}
const Shape& CompiledGraph::output_shape(int i) const {
  return impl_
      ->values[static_cast<size_t>(impl_->output_ids[static_cast<size_t>(i)])]
      .shape;
}
int64_t CompiledGraph::output_size(int i) const {
  return static_cast<int64_t>(
      impl_->values[static_cast<size_t>(impl_->output_ids[static_cast<size_t>(i)])]
          .size);
}
const PlanStats& CompiledGraph::stats() const { return impl_->stats; }
const std::vector<PlannedValue>& CompiledGraph::plan() const {
  return impl_->plan;
}
const std::vector<NodeCost>& CompiledGraph::node_costs() const {
  return impl_->node_costs;
}

struct CompiledGraph::State {
  std::unique_ptr<float[]> arena;
  std::vector<const float*> ptrs;  ///< Every value's replay buffer.
  std::vector<const float*> in;    ///< The running node's inputs.
  std::vector<float*> scratch;     ///< The running node's scratch.
};

std::unique_ptr<CompiledGraph::State> CompiledGraph::AcquireState() const {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!free_states_.empty()) {
      std::unique_ptr<State> state = std::move(free_states_.back());
      free_states_.pop_back();
      ArenaReuse().Increment(static_cast<int64_t>(impl_->stats.plan_bytes));
      return state;
    }
  }
  auto state = std::make_unique<State>();
  // Uninitialized on purpose: nodes fully overwrite (or explicitly
  // zero, for accumulating kernels) every byte they read back.
  if (impl_->arena_floats > 0) {
    state->arena.reset(new float[impl_->arena_floats]);
  }
  state->ptrs.resize(impl_->values.size());
  state->in.resize(impl_->max_node_inputs);
  state->scratch.resize(impl_->max_node_scratch);
  return state;
}

void CompiledGraph::ReleaseState(std::unique_ptr<State> state) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (free_states_.size() < kMaxFreeStates) {
    free_states_.push_back(std::move(state));
  }
}

void CompiledGraph::Run(const float* const* inputs, float* const* outputs,
                        std::span<const int> segments,
                        std::span<const int> queries) const {
  const Impl& g = *impl_;
  std::unique_ptr<State> state = AcquireState();
  float* base = state->arena.get();
  const float** ptrs = state->ptrs.data();
  if (queries.empty()) queries = segments;
  HG_CHECK_EQ(queries.size(), segments.size());
  // What each node sees: only query-side nodes get the query table.
  const Replay replays[] = {{segments, segments}, {segments, queries}};

  // Resolve every value to its replay buffer. Constants resolve through
  // their retained impl (live weight bytes), inputs through the caller,
  // arena values into the block, views as root + offset.
  for (size_t i = 0; i < g.values.size(); ++i) {
    const Impl::Value& v = g.values[i];
    switch (v.kind) {
      case Kind::kConstant:
        ptrs[i] = v.keep->data().data();
        break;
      case Kind::kInput:
        ptrs[i] = inputs[v.input_index];
        break;
      case Kind::kArena:
        ptrs[i] = base + v.arena_offset;
        break;
      case Kind::kView:
        ptrs[i] = ptrs[static_cast<size_t>(v.root)] + v.view_offset;
        break;
    }
  }

  const float** in = state->in.data();
  float** scratch = state->scratch.data();
#if !defined(HIERGAT_NO_TRACING)
  // Per-node wall time is sampled only while a trace is being recorded;
  // the untraced replay path costs one relaxed load per replay.
  // HIERGAT_NO_TRACING compiles the sampling out.
  const bool tracing = obs::TraceRecorder::Global().enabled();
  const uint64_t trace_id =
      tracing ? obs::CurrentTraceContext().trace_id : 0;
#endif
  // A packed replay's live work (NodeCost).
  const bool packed = !segments.empty();
  Impl::LiveWork live;
  if (packed) {
    live.rows[0] = segments.back();
    live.rows[1] = queries.back();
    for (size_t s = 1; s < segments.size(); ++s) {
      const int64_t len = segments[s] - segments[s - 1];
      live.blocks[0] += len * len;
      live.blocks[1] += len * (queries[s] - queries[s - 1]);
    }
  }
  for (const Impl::Node& node : g.nodes) {
    for (size_t k = 0; k < node.inputs.size(); ++k) {
      in[k] = ptrs[static_cast<size_t>(node.inputs[k])];
    }
    for (size_t k = 0; k < node.scratch.size(); ++k) {
      scratch[k] =
          base + g.values[static_cast<size_t>(node.scratch[k])].arena_offset;
    }
    float* out =
        base + g.values[static_cast<size_t>(node.output)].arena_offset;
    const Replay& replay = replays[node.query_side ? 1 : 0];
#if !defined(HIERGAT_NO_TRACING)
    if (tracing) {
      const uint64_t start_ns = obs::MonotonicNowNs();
      node.fn(in, scratch, out, replay);
      const uint64_t dur_ns = obs::MonotonicNowNs() - start_ns;
      obs::TraceRecorder::Global().Record(
          node.name, start_ns, dur_ns, trace_id,
          packed ? node.live_flops.At(live) : node.flops,
          packed ? node.live_bytes.At(live) : node.bytes);
      node.counters->ns->Increment(static_cast<int64_t>(dur_ns));
      NodeSeconds().Observe(static_cast<double>(dur_ns) * 1e-9);
      continue;
    }
#endif
    node.fn(in, scratch, out, replay);
  }
  for (const Impl::OpTotals& op : g.op_totals) {
    op.counters->replays->Increment(op.nodes);
    op.counters->est_flops->Increment(packed ? op.live_flops.At(live)
                                             : op.flops);
    op.counters->est_bytes->Increment(packed ? op.live_bytes.At(live)
                                             : op.bytes);
  }

  // A packed replay copies out only its live rows (query rows on the
  // query side).
  for (size_t i = 0; i < g.output_ids.size(); ++i) {
    const Impl::Value& v = g.values[static_cast<size_t>(g.output_ids[i])];
    const size_t floats =
        segments.empty() || v.shape.empty()
            ? v.size
            : v.size / static_cast<size_t>(v.shape[0]) *
                  static_cast<size_t>(live.rows[v.query_side ? 1 : 0]);
    std::memcpy(outputs[i], ptrs[static_cast<size_t>(g.output_ids[i])],
                floats * sizeof(float));
  }
  ReleaseState(std::move(state));
  Replays().Increment();
}

// -- GraphCapture --------------------------------------------------------

bool GraphCapture::Active() { return tls_recorder != nullptr; }

GraphCapture::GraphCapture() {
  HG_CHECK(tls_recorder == nullptr)
      << "nested GraphCapture on one thread is not supported";
  tls_recorder = new Recorder();
}

GraphCapture::~GraphCapture() {
  delete tls_recorder;  // Null (and owned elsewhere) after Finish().
  tls_recorder = nullptr;
}

bool GraphCapture::ok() const {
  return tls_recorder != nullptr && !tls_recorder->poisoned;
}

void GraphCapture::MarkInput(const Tensor& t) {
  Recorder* r = tls_recorder;
  HG_CHECK(r != nullptr) << "MarkInput after Finish";
  if (r->poisoned) return;
  const internal_tensor::TensorImpl* key = t.impl().get();
  if (r->ids.count(key) > 0) {
    r->Poison("MarkInput called after the tensor was already used");
    return;
  }
  r->unclaimed.erase(key);
  Impl::Value v;
  v.kind = Kind::kInput;
  v.shape = t.shape();
  v.size = t.data().size();
  v.keep = t.impl();  // Pin against address recycling; dropped at plan.
  v.input_index = static_cast<int>(r->g.input_ids.size());
  r->g.input_ids.push_back(r->AddValue(std::move(v), key));
}

void GraphCapture::MarkOutput(const Tensor& t) {
  Recorder* r = tls_recorder;
  HG_CHECK(r != nullptr) << "MarkOutput after Finish";
  if (r->poisoned) return;
  const int id = r->Intern(t);
  if (id < 0) return;
  r->g.output_ids.push_back(id);
}

StatusOr<std::unique_ptr<CompiledGraph>> GraphCapture::Finish() {
  Recorder* r = tls_recorder;
  HG_CHECK(r != nullptr) << "Finish may only be called once";
  tls_recorder = nullptr;  // Stop recording before planning.
  std::unique_ptr<Recorder> owned(r);
  if (r->poisoned) {
    return Status::Unimplemented("graph capture: " + r->poison_reason);
  }
  if (!r->unclaimed.empty()) {
    return Status::Unimplemented(
        "graph capture: " + std::to_string(r->unclaimed.size()) +
        " tensor node(s) were created by ops without replay closures");
  }

  auto compiled = std::unique_ptr<CompiledGraph>(new CompiledGraph());
  *compiled->impl_ = std::move(r->g);
  PlanGraph(compiled->impl_.get());

  const PlanStats& stats = compiled->impl_->stats;
  Compiles().Increment();
  Folded().Increment(stats.num_folded);
  PlanBytesGauge().Set(static_cast<double>(stats.plan_bytes));
  LiveArenaBytes().Add(static_cast<double>(stats.plan_bytes));
  return compiled;
}

// -- Recording hooks -----------------------------------------------------

void OnTensorCreated(
    const std::shared_ptr<internal_tensor::TensorImpl>& impl) {
  if (Recorder* r = tls_recorder; r != nullptr && !r->poisoned) {
    r->unclaimed.emplace(impl.get(), impl);
  }
}

void OnUnsupported(const char* what) {
  if (Recorder* r = tls_recorder) r->Poison(what);
}

void Record(const Tensor& out, const std::vector<Tensor>& inputs,
            const char* name, NodeFn fn,
            const std::vector<size_t>& scratch_sizes, int64_t flops,
            const BlockCost& blocks, bool gathers_queries) {
  Recorder* r = tls_recorder;
  if (r == nullptr || r->poisoned) return;
  r->unclaimed.erase(out.impl().get());

  std::vector<int> in_ids;
  in_ids.reserve(inputs.size());
  bool all_constant = true;
  bool reads_queries = false;
  bool reads_rows = false;
  for (const Tensor& t : inputs) {
    const int id = r->Intern(t);
    if (id < 0) return;
    const Impl::Value& in = r->g.values[static_cast<size_t>(id)];
    if (in.kind != Kind::kConstant) {
      all_constant = false;
      (in.query_side ? reads_queries : reads_rows) = true;
    }
    in_ids.push_back(id);
  }
  if (reads_queries && reads_rows && blocks.capture_blocks == 0) {
    r->Poison("a row-wise op mixes query rows with every row");
    return;
  }

  if (all_constant) {
    // Constant folding: every input is fixed at capture time, so the
    // eagerly computed `out` is too. Retain it and skip the node —
    // folds cascade, so e.g. positional encodings and their downstream
    // scaling vanish from the replay entirely.
    Impl::Value v;
    v.kind = Kind::kConstant;
    v.shape = out.shape();
    v.size = out.data().size();
    v.keep = out.impl();
    r->AddValue(std::move(v), out.impl().get());
    r->g.stats.num_folded++;
    return;
  }

  Impl::Value v;
  v.kind = Kind::kArena;
  v.shape = out.shape();
  v.size = out.data().size();
  v.keep = out.impl();  // Pin against address recycling; dropped at plan.
  v.def_node = static_cast<int>(r->g.nodes.size());
  const bool query_side = gathers_queries || reads_queries;
  v.query_side = query_side;
  const int out_id = r->AddValue(std::move(v), out.impl().get());

  Impl::Node node;
  node.name = name;
  node.fn = std::move(fn);
  node.inputs = std::move(in_ids);
  node.output = out_id;
  node.flops = flops;
  node.blocks = blocks;
  node.query_side = query_side;
  for (size_t floats : scratch_sizes) {
    Impl::Value s;
    s.kind = Kind::kArena;
    s.shape = {static_cast<int>(floats)};
    s.size = floats;
    s.def_node = static_cast<int>(r->g.nodes.size());
    s.last_use = s.def_node;
    node.scratch.push_back(r->AddValue(std::move(s), nullptr));
  }
  r->g.nodes.push_back(std::move(node));
}

void RecordView(const Tensor& out, const Tensor& base, size_t offset_floats) {
  Recorder* r = tls_recorder;
  if (r == nullptr || r->poisoned) return;
  r->unclaimed.erase(out.impl().get());
  const int base_id = r->Intern(base);
  if (base_id < 0) return;

  if (r->g.values[static_cast<size_t>(base_id)].kind == Kind::kConstant) {
    // A view of a constant is a constant; `out` already holds the right
    // bytes (a copy for slices, shared storage for reshapes).
    Impl::Value v;
    v.kind = Kind::kConstant;
    v.shape = out.shape();
    v.size = out.data().size();
    v.keep = out.impl();
    r->AddValue(std::move(v), out.impl().get());
    r->g.stats.num_folded++;
    return;
  }

  Impl::Value v;
  v.kind = Kind::kView;
  v.shape = out.shape();
  v.size = out.data().size();
  v.keep = out.impl();  // Pin against address recycling; dropped at plan.
  v.root = base_id;
  v.view_offset = offset_floats;
  v.query_side = r->g.values[static_cast<size_t>(base_id)].query_side;
  r->AddValue(std::move(v), out.impl().get());
  r->g.stats.num_views++;
}

}  // namespace graph
}  // namespace hiergat
