#include "er/compiled_scoring.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/logging.h"
#include "nn/introspection.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/threadpool.h"

namespace hiergat {

namespace {

obs::Counter& SummarizeReplays() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.compiled.summarize_replays");
  return c;
}

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

}  // namespace

CompiledScoring::CompiledScoring(const CompiledScoringConfig& config)
    : config_(config) {
  HG_CHECK(config_.lm != nullptr);
  HG_CHECK(config_.aggregator != nullptr);
  HG_CHECK(config_.comparator != nullptr);
  HG_CHECK(config_.classifier != nullptr);
  HG_CHECK_GT(config_.num_attributes, 0);
}

CompiledScoring::~CompiledScoring() = default;

std::shared_ptr<graph::CompiledGraph> CompiledScoring::BuildSummarizeGraph(
    int length) const {
  HG_TRACE_SPAN("CompiledScoring::BuildSummarizeGraph");
  // Capture must see exactly the inference-time trace: no gradients, no
  // attention snapshots (those Detach, which poisons the capture).
  NoGradGuard no_grad;
  AttentionRecordingGuard no_attention(false);
  Rng unused(0);  // Inference-mode Dropout never draws from it.
  graph::GraphCapture capture;
  Tensor input;
  if (length > 0) {
    input = Tensor::Zeros({length, config_.lm->dim()});
    capture.MarkInput(input);
  }
  Tensor summary =
      config_.aggregator->SummarizeEmbedded(input, /*training=*/false, unused);
  capture.MarkOutput(summary);
  auto compiled = capture.Finish();
  if (!compiled.ok()) {
    CaptureFailures().Increment();
    HG_LOG(WARN) << "summarize graph capture (length " << length
                    << ") failed, staying eager: "
                    << compiled.status().ToString();
    return nullptr;
  }
  return std::move(compiled).value();
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::BuildCompareGraph()
    const {
  HG_TRACE_SPAN("CompiledScoring::BuildCompareGraph");
  NoGradGuard no_grad;
  AttentionRecordingGuard no_attention(false);
  Rng unused(0);
  const int k = config_.num_attributes;
  const int f = config_.lm->dim();
  graph::GraphCapture capture;
  std::vector<Tensor> left(static_cast<size_t>(k));
  std::vector<Tensor> right(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    left[static_cast<size_t>(i)] = Tensor::Zeros({1, f});
    capture.MarkInput(left[static_cast<size_t>(i)]);
  }
  for (int i = 0; i < k; ++i) {
    right[static_cast<size_t>(i)] = Tensor::Zeros({1, f});
    capture.MarkInput(right[static_cast<size_t>(i)]);
  }
  Tensor left_entity = Tensor::Zeros({1, k * f});
  capture.MarkInput(left_entity);
  Tensor right_entity = Tensor::Zeros({1, k * f});
  capture.MarkInput(right_entity);
  std::vector<Tensor> similarities;
  similarities.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    similarities.push_back(config_.comparator->CompareAttribute(
        left[static_cast<size_t>(i)], right[static_cast<size_t>(i)],
        /*training=*/false, unused));
  }
  Tensor similarity = config_.comparator->CombineViews(
      similarities, left_entity, right_entity);
  capture.MarkOutput(config_.classifier->Forward(similarity));
  auto compiled = capture.Finish();
  if (!compiled.ok()) {
    CaptureFailures().Increment();
    HG_LOG(WARN) << "compare graph capture failed, staying eager: "
                    << compiled.status().ToString();
    return nullptr;
  }
  return std::move(compiled).value();
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::SummarizeGraph(
    int length) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = summarize_.find(length);
  if (it != summarize_.end()) return it->second;
  if (summarize_failed_.count(length)) return nullptr;
  // Compile under the lock: concurrent scorers wanting this length wait
  // rather than duplicating the (one-off) capture work.
  auto built = BuildSummarizeGraph(length);
  if (built == nullptr) {
    summarize_failed_.insert(length);
    ++num_failed_;
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphCaptureFail,
                           "summarize", length);
    return nullptr;
  }
  obs::RecordFlightEvent(obs::FlightEventKind::kGraphCompile, "summarize",
                         length,
                         static_cast<int64_t>(built->stats().est_flops));
  summarize_.emplace(length, built);
  return built;
}

std::shared_ptr<graph::CompiledGraph> CompiledScoring::CompareGraph() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (compare_ != nullptr) return compare_;
  if (compare_failed_) return nullptr;
  auto built = BuildCompareGraph();
  if (built == nullptr) {
    compare_failed_ = true;
    ++num_failed_;
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphCaptureFail,
                           "compare");
    return nullptr;
  }
  obs::RecordFlightEvent(obs::FlightEventKind::kGraphCompile, "compare", 0,
                         static_cast<int64_t>(built->stats().est_flops));
  compare_ = built;
  return built;
}

Tensor CompiledScoring::Summarize(const Tensor& wpc,
                                  const std::vector<int>& token_seq) const {
  const int length = static_cast<int>(token_seq.size());
  std::shared_ptr<graph::CompiledGraph> compiled = SummarizeGraph(length);
  if (compiled == nullptr) return Tensor();
  const int f = config_.lm->dim();
  Tensor out = Tensor::Zeros({1, f});
  float* outputs[] = {out.data().data()};
  if (length == 0) {
    // Fully folded: replay is a memcpy of the constant [CLS] summary.
    compiled->Run(nullptr, outputs, &ThreadPool::Global());
  } else {
    // Dense [L, F] gather of the WpC rows — the graph's only input.
    std::vector<float> gathered(static_cast<size_t>(length) *
                                static_cast<size_t>(f));
    const float* src = wpc.data().data();
    const int wpc_rows = wpc.dim(0);
    for (int i = 0; i < length; ++i) {
      const int row = token_seq[static_cast<size_t>(i)];
      HG_CHECK(row >= 0 && row < wpc_rows);
      std::memcpy(gathered.data() + static_cast<size_t>(i) * f,
                  src + static_cast<size_t>(row) * f,
                  static_cast<size_t>(f) * sizeof(float));
    }
    const float* inputs[] = {gathered.data()};
    compiled->Run(inputs, outputs, &ThreadPool::Global());
  }
  SummarizeReplays().Increment();
  return out;
}

Tensor CompiledScoring::Compare(const std::vector<Tensor>& left,
                                const std::vector<Tensor>& right,
                                const Tensor& left_entity,
                                const Tensor& right_entity) const {
  std::shared_ptr<graph::CompiledGraph> compiled = CompareGraph();
  if (compiled == nullptr) return Tensor();
  const size_t k = static_cast<size_t>(config_.num_attributes);
  HG_CHECK_EQ(left.size(), k);
  HG_CHECK_EQ(right.size(), k);
  std::vector<const float*> inputs;
  inputs.reserve(2 * k + 2);
  for (const Tensor& t : left) inputs.push_back(t.data().data());
  for (const Tensor& t : right) inputs.push_back(t.data().data());
  const size_t entity_floats = k * static_cast<size_t>(config_.lm->dim());
  HG_CHECK_EQ(left_entity.data().size(), entity_floats);
  HG_CHECK_EQ(right_entity.data().size(), entity_floats);
  inputs.push_back(left_entity.data().data());
  inputs.push_back(right_entity.data().data());
  HG_CHECK_EQ(static_cast<int>(inputs.size()), compiled->num_inputs());
  Tensor out = Tensor::Zeros({1, 2});
  float* outputs[] = {out.data().data()};
  compiled->Run(inputs.data(), outputs, &ThreadPool::Global());
  CompareReplays().Increment();
  return out;
}

void CompiledScoring::Clear() {
  std::unique_lock<std::mutex> lock(mutex_);
  const int64_t discarded = static_cast<int64_t>(summarize_.size()) +
                            (compare_ != nullptr ? 1 : 0);
  if (discarded > 0) {
    obs::RecordFlightEvent(obs::FlightEventKind::kGraphInvalidate,
                           "compiled_scoring", discarded);
  }
  summarize_.clear();
  summarize_failed_.clear();
  compare_.reset();
  compare_failed_ = false;
  num_failed_ = 0;
}

CompiledScoring::Stats CompiledScoring::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  Stats stats;
  stats.num_failed = num_failed_;
  for (const auto& [length, compiled] : summarize_) {
    ++stats.num_graphs;
    stats.plan_bytes += compiled->stats().plan_bytes;
    stats.eager_bytes += compiled->stats().eager_bytes;
  }
  if (compare_ != nullptr) {
    ++stats.num_graphs;
    stats.plan_bytes += compare_->stats().plan_bytes;
    stats.eager_bytes += compare_->stats().eager_bytes;
  }
  return stats;
}

}  // namespace hiergat
