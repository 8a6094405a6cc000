#include "er/compiled_scoring.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/logging.h"
#include "nn/transformer.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hiergat {

namespace {

/// Smallest bucket: below it a replay saves no arena bytes worth a graph.
constexpr int kMinBucket = 16;
/// Sequence length of the capture-time layout, which fixes a packed
/// graph's static cost estimates (graph::NodeCost).
constexpr int kCaptureSequenceRows = 4;

obs::Counter& CompareReplays() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.compiled.compare_replays");
  return c;
}

obs::Counter& CaptureFailures() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.compiled.capture_failures");
  return c;
}

/// The bucket that holds `rows` packed rows.
int Bucket(int rows) {
  int capacity = kMinBucket;
  while (capacity < rows) capacity *= 2;
  return capacity;
}

}  // namespace

float* PackedSequences::Append(int len, size_t item) {
  if (len > CompiledScoring::kMaxRows) return nullptr;
  const size_t first = rows.size();
  rows.resize(first + static_cast<size_t>(len) * static_cast<size_t>(dim));
  offsets.push_back(offsets.back() + len);
  items.push_back(item);
  return rows.data() + first;
}

CompiledScoring::CompiledScoring(const CompiledScoringConfig& config)
    : config_(config) {
  HG_CHECK(config_.lm != nullptr);
  HG_CHECK(config_.comparator != nullptr);
  HG_CHECK(config_.classifier != nullptr);
  HG_CHECK_GT(config_.num_attributes, 0);
  // The eager encoder adds Scale(SinusoidalPositions(len, F)) to each
  // sequence; a row's position bits do not depend on `len`.
  NoGradGuard no_grad;
  positions_ = Scale(SinusoidalPositions(kMaxRows, config_.lm->dim()),
                     config_.lm->encoder().config().position_scale)
                   .data();
}

CompiledScoring::~CompiledScoring() = default;

std::shared_ptr<graph::CompiledGraph> CompiledScoring::BuildEncoderGraph(
    int capacity) const {
  HG_TRACE_SPAN("CompiledScoring::BuildEncoderGraph");
  // Capture must see exactly the inference-time trace: no gradients.
  NoGradGuard no_grad;
  Rng unused(0);  // Inference-mode Dropout never draws from it.
  std::vector<int> segments;
  for (int row = 0; row <= capacity; row += kCaptureSequenceRows) {
    segments.push_back(row);
  }
  graph::GraphCapture capture;
  Tensor rows = Tensor::Zeros({capacity, config_.lm->dim()});
  capture.MarkInput(rows);
  capture.MarkOutput(config_.lm->encoder().Forward(
      rows, /*training=*/false, unused, /*add_positions=*/false, segments));
  auto compiled = capture.Finish();
  if (!compiled.ok()) {
    CaptureFailures().Increment();
    HG_LOG(WARN) << "packed encoder capture (capacity " << capacity
                    << ") failed, staying eager: "
                    << compiled.status().ToString();
    return nullptr;
  }
  return std::move(compiled).value();
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::BuildHeadGraph() const {
  HG_TRACE_SPAN("CompiledScoring::BuildHeadGraph");
  NoGradGuard no_grad;
  const size_t k = static_cast<size_t>(config_.num_attributes);
  const int f = config_.lm->dim();
  graph::GraphCapture capture;
  auto inputs = [&](int width) {
    std::vector<Tensor> rows(k);
    for (Tensor& row : rows) {
      row = Tensor::Zeros({1, width});
      capture.MarkInput(row);
    }
    return rows;
  };
  const std::vector<Tensor> cls = inputs(f);
  const std::vector<Tensor> left = inputs(f);
  const std::vector<Tensor> right = inputs(f);
  Tensor left_entity = Tensor::Zeros({1, static_cast<int>(k) * f});
  capture.MarkInput(left_entity);
  Tensor right_entity = Tensor::Zeros({1, static_cast<int>(k) * f});
  capture.MarkInput(right_entity);
  std::vector<Tensor> similarities;
  similarities.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    similarities.push_back(
        config_.comparator->FuseComparison(cls[i], left[i], right[i]));
  }
  capture.MarkOutput(config_.classifier->Forward(
      config_.comparator->CombineViews(similarities, left_entity,
                                       right_entity)));
  auto compiled = capture.Finish();
  if (!compiled.ok()) {
    CaptureFailures().Increment();
    HG_LOG(WARN) << "compare head capture failed, staying eager: "
                    << compiled.status().ToString();
    return nullptr;
  }
  return std::move(compiled).value();
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::EncoderGraph(
    int capacity) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = encoders_.find(capacity);
  if (it != encoders_.end()) return it->second;
  if (encoder_failed_) return nullptr;
  // Compile under the lock: concurrent scorers wanting this bucket wait
  // rather than duplicating the (one-off) capture work.
  auto built = BuildEncoderGraph(capacity);
  if (built == nullptr) {
    encoder_failed_ = true;
    ++num_failed_;
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphCaptureFail,
                           "packed_encoder", capacity);
    return nullptr;
  }
  obs::RecordFlightEvent(obs::FlightEventKind::kGraphCompile,
                         "packed_encoder", capacity,
                         static_cast<int64_t>(built->stats().est_flops));
  encoders_.emplace(capacity, built);
  return built;
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::HeadGraph() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (head_ != nullptr) return head_;
  if (head_failed_) return nullptr;
  auto built = BuildHeadGraph();
  if (built == nullptr) {
    head_failed_ = true;
    ++num_failed_;
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphCaptureFail,
                           "compare_head");
    return nullptr;
  }
  obs::RecordFlightEvent(obs::FlightEventKind::kGraphCompile, "compare_head",
                         0, static_cast<int64_t>(built->stats().est_flops));
  head_ = built;
  return built;
}

bool CompiledScoring::Encode(PackedSequences* seqs, bool cls_only,
                             std::vector<Tensor>* out) const {
  HG_CHECK_EQ(seqs->dim, config_.lm->dim());
  const size_t f = static_cast<size_t>(seqs->dim);
  const std::vector<int>& offsets = seqs->offsets;
  const int count = seqs->count();
  for (int s = 0; s < count; ++s) {
    float* row = seqs->rows.data() + static_cast<size_t>(offsets[s]) * f;
    const size_t floats = static_cast<size_t>(offsets[s + 1] - offsets[s]) * f;
    for (size_t i = 0; i < floats; ++i) row[i] += positions_[i];
  }
  // A [CLS]-only encode keeps one row per sequence: its replays run
  // the last layer's query side on each sequence's row 0 alone.
  std::vector<float> encoded(cls_only ? static_cast<size_t>(count) * f
                                      : seqs->rows.size());
  std::vector<int> table;
  std::vector<int> queries;
  for (int s = 0; s < count;) {
    // The longest run of whole sequences from `s` that fits kMaxRows.
    const int first = offsets[s];
    int end = s + 1;
    while (end < count && offsets[end + 1] - first <= kMaxRows) ++end;
    table.assign(offsets.begin() + s, offsets.begin() + end + 1);
    for (int& row : table) row -= first;
    queries.resize(cls_only ? table.size() : 0);
    std::iota(queries.begin(), queries.end(), 0);
    std::shared_ptr<graph::CompiledGraph> compiled =
        EncoderGraph(Bucket(table.back()));
    if (compiled == nullptr) return false;
    const float* inputs[] = {seqs->rows.data() +
                             static_cast<size_t>(first) * f};
    float* outputs[] = {encoded.data() +
                        static_cast<size_t>(cls_only ? s : first) * f};
    compiled->Run(inputs, outputs, table, queries);
    s = end;
  }
  // Pool-backed tensors, like the eager path's, so their buffers
  // recycle when they die.
  for (int s = 0; s < count; ++s) {
    const int rows = cls_only ? 1 : offsets[s + 1] - offsets[s];
    Tensor rows_out = Tensor::Zeros({rows, seqs->dim});
    std::copy_n(encoded.data() +
                    static_cast<size_t>(cls_only ? s : offsets[s]) * f,
                rows_out.data().size(), rows_out.data().data());
    (*out)[seqs->items[static_cast<size_t>(s)]] = std::move(rows_out);
  }
  return true;
}

Tensor CompiledScoring::CompareHead(std::span<const Tensor> cls,
                                    std::span<const Tensor> left,
                                    std::span<const Tensor> right,
                                    const Tensor& left_entity,
                                    const Tensor& right_entity) const {
  std::shared_ptr<graph::CompiledGraph> compiled = HeadGraph();
  if (compiled == nullptr) return Tensor();
  const size_t k = static_cast<size_t>(config_.num_attributes);
  HG_CHECK(cls.size() == k && left.size() == k && right.size() == k);
  std::vector<const float*> inputs;
  inputs.reserve(3 * k + 2);
  for (std::span<const Tensor> rows : {cls, left, right}) {
    for (const Tensor& t : rows) inputs.push_back(t.data().data());
  }
  const size_t entity_floats = k * static_cast<size_t>(config_.lm->dim());
  HG_CHECK_EQ(left_entity.data().size(), entity_floats);
  HG_CHECK_EQ(right_entity.data().size(), entity_floats);
  inputs.push_back(left_entity.data().data());
  inputs.push_back(right_entity.data().data());
  HG_CHECK_EQ(static_cast<int>(inputs.size()), compiled->num_inputs());
  Tensor out = Tensor::Zeros({1, 2});
  float* outputs[] = {out.data().data()};
  compiled->Run(inputs.data(), outputs);
  CompareReplays().Increment();
  return out;
}

void CompiledScoring::Clear() {
  std::unique_lock<std::mutex> lock(mutex_);
  const int64_t discarded = static_cast<int64_t>(encoders_.size()) +
                            (head_ != nullptr ? 1 : 0);
  if (discarded > 0) {
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphInvalidate,
                           "compiled_scoring", discarded);
  }
  encoders_.clear();
  encoder_failed_ = false;
  head_.reset();
  head_failed_ = false;
  num_failed_ = 0;
}

CompiledScoring::Stats CompiledScoring::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  Stats stats;
  stats.num_failed = num_failed_;
  auto add = [&stats](const graph::CompiledGraph& compiled) {
    ++stats.num_graphs;
    stats.plan_bytes += compiled.stats().plan_bytes;
    stats.eager_bytes += compiled.stats().eager_bytes;
  };
  for (const auto& [capacity, compiled] : encoders_) add(*compiled);
  if (head_ != nullptr) add(*head_);
  return stats;
}

}  // namespace hiergat
