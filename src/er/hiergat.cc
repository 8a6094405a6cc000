#include "er/hiergat.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/logging.h"
#include "graph/hhg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/graph.h"
#include "tensor/ops.h"

namespace hiergat {

namespace {

obs::Counter& CompiledPairs() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.score.compiled_pairs");
  return c;
}

obs::Counter& EagerPairs() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.score.eager_pairs");
  return c;
}

obs::Counter& SummarizeReplays() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.compiled.summarize_replays");
  return c;
}

/// Most pairs one ScoreBatch pass holds: a pass keeps every HHG, WpC
/// matrix and packed row of its pairs alive at once, and a handful of
/// pairs already fill a packed replay (four pairs pack ~180 summary
/// rows), so a longer span (a validation split) goes in passes of this
/// many pairs.
constexpr size_t kPairsPerPass = 8;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Checkpoint-metadata encoding of the family: every config field
// travels as a string key/value next to the weights, so Load can
// reconstruct the exact module geometry before reading tensors. Enum
// and integer fields are validated on read (a checkpoint written by a
// future config version, or a forged one, fails loudly instead of
// mis-casting).

/// Reads integer meta `key` into `out`; InvalidArgument naming the key
/// unless the value lies in [min_value, INT_MAX].
Status ReadIntMeta(const TensorReader& reader, const std::string& key,
                   int min_value, int* out) {
  HG_ASSIGN_OR_RETURN(const int64_t value, reader.GetMetaInt(key));
  if (value < min_value || value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "checkpoint meta '" + key + "' = " + std::to_string(value) +
        " is outside [" + std::to_string(min_value) + ", " +
        std::to_string(std::numeric_limits<int>::max()) + "]");
  }
  *out = static_cast<int>(value);
  return Status::Ok();
}

/// InvalidArgument naming meta `key` unless stored tensor `tensor` has
/// extent `expected` on `axis` (the tensor's shape depends on the key).
Status CheckStoredDim(const TensorReader& reader, const std::string& key,
                      const std::string& tensor, size_t axis,
                      int64_t expected) {
  const Shape* shape = reader.FindShape(tensor);
  if (shape == nullptr || shape->size() <= axis ||
      (*shape)[axis] != expected) {
    return Status::InvalidArgument("checkpoint meta '" + key +
                                   "' does not match the stored shape of " +
                                   tensor);
  }
  return Status::Ok();
}

void WriteContextualMeta(TensorWriter* writer,
                         const ContextualConfig& config) {
  writer->SetMetaBool("context.use_token_context", config.use_token_context);
  writer->SetMetaBool("context.use_attribute_context",
                      config.use_attribute_context);
  writer->SetMetaBool("context.use_entity_context",
                      config.use_entity_context);
  writer->SetMetaInt("context.max_common_tokens", config.max_common_tokens);
  writer->SetMetaFloat("context.dropout", config.dropout);
}

Status ReadContextualMeta(const TensorReader& reader,
                          ContextualConfig* config) {
  HG_ASSIGN_OR_RETURN(config->use_token_context,
                      reader.GetMetaBool("context.use_token_context"));
  HG_ASSIGN_OR_RETURN(config->use_attribute_context,
                      reader.GetMetaBool("context.use_attribute_context"));
  HG_ASSIGN_OR_RETURN(config->use_entity_context,
                      reader.GetMetaBool("context.use_entity_context"));
  HG_RETURN_IF_ERROR(ReadIntMeta(reader, "context.max_common_tokens", 0,
                                 &config->max_common_tokens));
  HG_ASSIGN_OR_RETURN(config->dropout,
                      reader.GetMetaFloat("context.dropout"));
  return Status::Ok();
}

Status ReadLmSizeMeta(const TensorReader& reader, LmSize* size) {
  HG_ASSIGN_OR_RETURN(const int64_t value, reader.GetMetaInt("lm_size"));
  if (value < static_cast<int64_t>(LmSize::kSmall) ||
      value > static_cast<int64_t>(LmSize::kLarge)) {
    return Status::InvalidArgument("unknown lm_size " +
                                   std::to_string(value));
  }
  *size = static_cast<LmSize>(value);
  return Status::Ok();
}

Status ReadViewCombinationMeta(const TensorReader& reader,
                               ViewCombination* combination) {
  HG_ASSIGN_OR_RETURN(const int64_t value,
                      reader.GetMetaInt("combination"));
  if (value < static_cast<int64_t>(ViewCombination::kViewAverage) ||
      value > static_cast<int64_t>(ViewCombination::kWeightAverage)) {
    return Status::InvalidArgument("unknown view combination " +
                                   std::to_string(value));
  }
  *combination = static_cast<ViewCombination>(value);
  return Status::Ok();
}

/// The pairwise model's stack carries a HierGatPlusConfig whose two
/// HierGAT+ switches it never reads.
HierGatPlusConfig StackConfig(const HierGatConfig& config) {
  HierGatPlusConfig out;
  static_cast<HierGatConfig&>(out) = config;
  return out;
}

}  // namespace

namespace internal_hiergat {

HierGatStack::HierGatStack(bool is_collective,
                           const HierGatPlusConfig& initial)
    : collective(is_collective), config(initial) {}

void HierGatStack::Build(LmBackbone new_backbone, int attributes,
                         uint64_t seed) {
  num_attributes = attributes;
  backbone = std::move(new_backbone);
  BuildModules(seed);
  built = true;
}

void HierGatStack::BuildModules(uint64_t seed) {
  // RNG draw order is part of the training contract: contextual ->
  // aggregator -> comparator -> [aligner] -> classifier.
  Rng rng(seed ^ (collective ? 0x9876u : 0x1234u));
  contextual = std::make_unique<ContextualEmbedder>(backbone.lm.get(),
                                                    config.context, rng);
  aggregator = std::make_unique<HierarchicalAggregator>(
      backbone.lm.get(), config.dropout, rng);
  const ViewCombination combination = config.use_entity_summarization
                                          ? config.combination
                                          : ViewCombination::kViewAverage;
  comparator = std::make_unique<HierarchicalComparator>(
      backbone.lm.get(), num_attributes, combination, rng);
  if (collective) {
    aligner = std::make_unique<EntityAligner>(
        num_attributes * backbone.lm->dim(), rng);
  }
  classifier = std::make_unique<Mlp>(
      std::vector<int>{backbone.lm->dim(), config.classifier_hidden, 2}, rng);
  summary_cache.Clear();

  CompiledScoringConfig compiled_config;
  compiled_config.lm = backbone.lm.get();
  compiled_config.comparator = comparator.get();
  compiled_config.classifier = classifier.get();
  compiled_config.num_attributes = num_attributes;
  compiled = std::make_unique<CompiledScoring>(compiled_config);
}

void HierGatStack::RegisterCheckpointParameters(NamedParameters* out) const {
  out->AddModule("lm", *backbone.lm);
  out->AddModule("contextual", *contextual);
  out->AddModule("comparator", *comparator);
  if (aligner != nullptr) out->AddModule("aligner", *aligner);
  out->AddModule("classifier", *classifier);
}

Status HierGatStack::Save(const std::string& path, DType dtype) const {
  if (!built) {
    return Status::FailedPrecondition(std::string(tag()) +
                                      " Save: train or load a model first");
  }
  const auto start = std::chrono::steady_clock::now();
  TensorWriter writer(tag());
  writer.SetMetaInt("lm_size", static_cast<int64_t>(config.lm_size));
  writer.SetMetaInt("combination", static_cast<int64_t>(config.combination));
  if (collective) {
    writer.SetMetaBool("use_alignment", config.use_alignment);
    writer.SetMetaBool("use_entity_summarization",
                       config.use_entity_summarization);
  }
  writer.SetMetaFloat("dropout", config.dropout);
  writer.SetMetaInt("classifier_hidden", config.classifier_hidden);
  writer.SetMetaInt("lm_pretrain_steps", config.lm_pretrain_steps);
  WriteContextualMeta(&writer, config.context);
  writer.SetMetaInt("num_attributes", num_attributes);
  writer.SetMeta("vocab", SerializeVocabulary(*backbone.vocab));

  NamedParameters params;
  RegisterCheckpointParameters(&params);
  HG_RETURN_IF_ERROR(writer.AddAll(params, dtype));
  const std::string bytes = writer.SerializeToString();
  HG_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));

  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("hiergat.ckpt.bytes")
      .Set(static_cast<double>(bytes.size()));
  metrics.GetGauge("hiergat.ckpt.save_ms").Set(MillisSince(start));
  return Status::Ok();
}

Status HierGatStack::Load(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  auto reader_or = TensorReader::Open(path);
  HG_RETURN_IF_ERROR(reader_or.status());
  const TensorReader& reader = reader_or.value();
  if (reader.model_tag() != tag()) {
    return Status::InvalidArgument("checkpoint holds a '" +
                                   reader.model_tag() + "' model, expected '" +
                                   tag() + "'");
  }

  HierGatPlusConfig loaded = config;
  HG_RETURN_IF_ERROR(ReadLmSizeMeta(reader, &loaded.lm_size));
  HG_RETURN_IF_ERROR(ReadViewCombinationMeta(reader, &loaded.combination));
  if (collective) {
    HG_ASSIGN_OR_RETURN(loaded.use_alignment,
                        reader.GetMetaBool("use_alignment"));
    HG_ASSIGN_OR_RETURN(loaded.use_entity_summarization,
                        reader.GetMetaBool("use_entity_summarization"));
  }
  HG_ASSIGN_OR_RETURN(loaded.dropout, reader.GetMetaFloat("dropout"));
  HG_RETURN_IF_ERROR(ReadIntMeta(reader, "classifier_hidden", 1,
                                 &loaded.classifier_hidden));
  HG_RETURN_IF_ERROR(ReadIntMeta(reader, "lm_pretrain_steps",
                                 std::numeric_limits<int>::min(),
                                 &loaded.lm_pretrain_steps));
  HG_RETURN_IF_ERROR(ReadContextualMeta(reader, &loaded.context));
  int attributes = 0;
  HG_RETURN_IF_ERROR(ReadIntMeta(reader, "num_attributes", 1, &attributes));
  HG_ASSIGN_OR_RETURN(const std::string vocab_text, reader.GetMeta("vocab"));
  std::unique_ptr<Vocabulary> vocab = DeserializeVocabulary(vocab_text);

  // Every module is sized from these values: check them against the
  // stored shapes before allocating anything, so a forged dimension is
  // a Status rather than a huge allocation. The comparator's view
  // attention scores [1, (2K + 1) * F] rows.
  const int64_t f = LmConfigFor(loaded.lm_size).dim;
  HG_RETURN_IF_ERROR(CheckStoredDim(reader, "vocab", "lm.token_table.table",
                                    0, vocab->size()));
  HG_RETURN_IF_ERROR(CheckStoredDim(reader, "classifier_hidden",
                                    "classifier.fc0.weight", 1,
                                    loaded.classifier_hidden));
  HG_RETURN_IF_ERROR(CheckStoredDim(
      reader, "num_attributes", "comparator.view_attention.scorer.weight", 0,
      (2 * int64_t{attributes} + 1) * f));

  // Rebuild geometry with a fixed throwaway seed: every initialized
  // weight is overwritten from the checkpoint below (ReadAll is strict,
  // so nothing can be left at its random initialization).
  config = loaded;
  num_attributes = attributes;
  built = false;
  backbone.vocab = std::move(vocab);
  backbone.lm = std::make_unique<MiniLm>(config.lm_size, backbone.vocab.get(),
                                         /*seed=*/0);
  BuildModules(/*seed=*/0);

  NamedParameters params;
  RegisterCheckpointParameters(&params);
  HG_RETURN_IF_ERROR(reader.ReadAll(params));
  built = true;

  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("hiergat.ckpt.bytes")
      .Set(static_cast<double>(reader.file_bytes()));
  metrics.GetGauge("hiergat.ckpt.load_ms").Set(MillisSince(start));
  return Status::Ok();
}

void HierGatStack::InvalidateInferenceCache() const {
  summary_cache.Clear();
  // Compiled graphs folded the old parameter values into constants.
  if (compiled != nullptr) compiled->Clear();
}

Status HierGatStack::CheckSchema(const Entity& entity) const {
  if (entity.num_attributes() == num_attributes) return Status::Ok();
  return Status::InvalidArgument(
      "entity has " + std::to_string(entity.num_attributes()) +
      " attribute(s); the " + tag() + " model was trained on " +
      std::to_string(num_attributes));
}

bool HierGatStack::UseCompiled(bool training) const {
  // Training (and any grad-enabled forward) must build autograd graphs,
  // and a capture in flight must keep tracing eager ops.
  return !training && !GradModeEnabled() && graph_compile_enabled &&
         compiled != nullptr && !graph::GraphCapture::Active();
}

std::vector<Tensor> HierGatStack::EncodeTokens(
    const std::vector<std::vector<int>>& ids, Rng& rng) const {
  const MiniLm& lm = *backbone.lm;
  std::vector<Tensor> out(ids.size());
  if (UseCompiled(/*training=*/false)) {
    const size_t f = static_cast<size_t>(lm.dim());
    const float* table = lm.token_table().table().data().data();
    PackedSequences seqs(lm.dim());
    for (size_t i = 0; i < ids.size(); ++i) {
      float* row = seqs.Append(static_cast<int>(ids[i].size()), i);
      for (size_t p = 0; row != nullptr && p < ids[i].size(); ++p) {
        std::copy_n(table + static_cast<size_t>(ids[i][p]) * f, f,
                    row + p * f);
      }
    }
    compiled->Encode(&seqs, /*cls_only=*/false, &out);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!out[i].defined()) {
      out[i] = lm.EncodeEmbedded(lm.Embed(ids[i]), /*training=*/false, rng);
    }
  }
  return out;
}

std::vector<Tensor> HierGatStack::Contextualize(std::span<const Hhg> hhgs,
                                                bool training, Rng& rng,
                                                SummaryCache* cache) const {
  std::vector<Tensor> wpc;
  wpc.reserve(hhgs.size());
  if (training || !config.context.use_token_context) {
    for (const Hhg& hhg : hhgs) {
      wpc.push_back(contextual->Compute(hhg, training, rng, cache));
    }
    return wpc;
  }
  const std::vector<std::vector<Tensor>> encodes = contextual->TokenEncodes(
      hhgs, cache, [&](const std::vector<std::vector<int>>& ids) {
        return EncodeTokens(ids, rng);
      });
  for (size_t i = 0; i < hhgs.size(); ++i) {
    wpc.push_back(contextual->Compute(hhgs[i], /*training=*/false, rng, cache,
                                      &encodes[i]));
  }
  return wpc;
}

std::vector<Tensor> HierGatStack::SummarizeAttributes(
    std::span<const SummaryJob> jobs, bool training, Rng& rng,
    Explanation* sink) const {
  std::vector<Tensor> summaries(jobs.size());
  if (sink != nullptr) sink->token_attention.resize(jobs.size());
  if (UseCompiled(training) && sink == nullptr) {
    // [CLS] followed by the gathered WpC rows; the summary is the
    // encoder's row 0.
    const size_t f = static_cast<size_t>(backbone.lm->dim());
    const float* cls = backbone.lm->token_table().table().data().data() +
                       static_cast<size_t>(Vocabulary::kCls) * f;
    PackedSequences seqs(backbone.lm->dim());
    for (size_t j = 0; j < jobs.size(); ++j) {
      const std::vector<int>& seq = *jobs[j].token_seq;
      float* row = seqs.Append(static_cast<int>(seq.size()) + 1, j);
      if (row == nullptr) continue;
      std::copy_n(cls, f, row);
      const Tensor& wpc = *jobs[j].wpc;
      for (int t : seq) {
        HG_CHECK(t >= 0 && t < wpc.dim(0));
        row += f;
        std::copy_n(wpc.data().data() + static_cast<size_t>(t) * f, f, row);
      }
    }
    if (compiled->Encode(&seqs, /*cls_only=*/true, &summaries)) {
      SummarizeReplays().Increment(seqs.count());
    }
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (summaries[j].defined()) continue;
    summaries[j] = aggregator->SummarizeAttribute(
        *jobs[j].wpc, *jobs[j].token_seq, training, rng,
        sink != nullptr ? &sink->token_attention[j] : nullptr);
  }
  return summaries;
}

std::vector<Tensor> HierGatStack::CompareLogits(
    std::span<const CompareJob> jobs, bool training, Rng& rng,
    Explanation* sink) const {
  std::vector<Tensor> logits(jobs.size());
  if (sink != nullptr) sink->attribute_weights.resize(jobs.size());
  if (UseCompiled(training) && sink == nullptr) {
    // `[CLS] l [SEP] r [SEP]` plus the segment rows 0 0 0 1 1, as
    // HierarchicalComparator::CompareAttribute builds it.
    const MiniLm& lm = *backbone.lm;
    const size_t f = static_cast<size_t>(lm.dim());
    const size_t k = static_cast<size_t>(num_attributes);
    const float* tokens = lm.token_table().table().data().data();
    const float* cls = tokens + static_cast<size_t>(Vocabulary::kCls) * f;
    const float* sep = tokens + static_cast<size_t>(Vocabulary::kSep) * f;
    const float* segments = lm.segment_table().table().data().data();
    PackedSequences seqs(lm.dim());
    for (size_t j = 0; j < jobs.size(); ++j) {
      HG_CHECK(jobs[j].left.size() == k && jobs[j].right.size() == k);
      for (size_t a = 0; a < k; ++a) {
        const float* parts[] = {cls, jobs[j].left[a].data().data(), sep,
                                jobs[j].right[a].data().data(), sep};
        float* row = seqs.Append(5, j * k + a);
        for (int r = 0; r < 5; ++r, row += f) {
          const float* segment = segments + (r < 3 ? 0 : f);
          for (size_t c = 0; c < f; ++c) row[c] = parts[r][c] + segment[c];
        }
      }
    }
    std::vector<Tensor> cls_rows(jobs.size() * k);
    if (compiled->Encode(&seqs, /*cls_only=*/true, &cls_rows)) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        logits[j] = compiled->CompareHead(
            std::span<const Tensor>(cls_rows).subspan(j * k, k), jobs[j].left,
            jobs[j].right, jobs[j].left_entity, jobs[j].right_entity);
        if (logits[j].defined()) CompiledPairs().Increment();
      }
    }
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (logits[j].defined()) continue;
    if (!training) EagerPairs().Increment();
    // Hierarchical comparison: one similarity view per aligned attribute.
    const CompareJob& job = jobs[j];
    std::vector<Tensor> similarities;
    similarities.reserve(job.left.size());
    for (size_t a = 0; a < job.left.size(); ++a) {
      similarities.push_back(comparator->CompareAttribute(
          job.left[a], job.right[a], training, rng));
    }
    Tensor view_weights;  // [1, K] under weight averaging, when explained.
    logits[j] = classifier->Forward(
        comparator->CombineViews(similarities, job.left_entity,
                                 job.right_entity,
                                 sink != nullptr ? &view_weights : nullptr));
    if (view_weights.defined()) {
      sink->attribute_weights[j] = view_weights.data();
    }
  }
  return logits;
}

CompiledScoring::Stats HierGatStack::compiled_stats() const {
  return compiled != nullptr ? compiled->stats() : CompiledScoring::Stats{};
}

std::vector<Tensor> HierGatStack::TrainableParameters() const {
  NamedParameters params;
  RegisterCheckpointParameters(&params);
  HG_CHECK(params.status().ok()) << params.status().ToString();
  return params.tensors();
}

std::vector<float> HierGatStack::ParameterLrMultipliers() const {
  // Slow fine-tuning for the pre-trained token table (see DittoModel).
  std::vector<float> multipliers(TrainableParameters().size(), 1.0f);
  multipliers[0] = 0.1f;
  return multipliers;
}

}  // namespace internal_hiergat

HierGatModel::HierGatModel(const HierGatConfig& config)
    : stack_(/*collective=*/false, StackConfig(config)) {}

void HierGatModel::Train(const PairDataset& data,
                         const TrainOptions& options) {
  HG_CHECK(!data.train.empty() || !data.test.empty());
  const EntityPair& proto =
      data.train.empty() ? data.test.front() : data.train.front();
  stack_.Build(MakeBackbone(data, stack_.config.lm_size,
                            stack_.config.lm_pretrain_steps, options.seed),
               proto.left.num_attributes(), options.seed);
  NeuralPairwiseModel::Train(data, options);
}

Status HierGatModel::ValidatePair(const EntityPair& pair) const {
  HG_RETURN_IF_ERROR(stack_.CheckSchema(pair.left));
  return stack_.CheckSchema(pair.right);
}

std::vector<float> HierGatModel::ScoreBatch(
    std::span<const EntityPair> pairs) const {
  // Direct callers get a per-call request context; engine chunks carry
  // their job's context and inherit it here.
  obs::ScopedTraceRoot trace_root;
  HG_TRACE_SPAN("HierGatModel::ScoreBatch");
  NoGradGuard no_grad;
  Rng unused(0);  // Inference draws nothing from it.
  std::vector<float> probabilities;
  probabilities.reserve(pairs.size());
  for (size_t begin = 0; begin < pairs.size(); begin += kPairsPerPass) {
    const std::span<const EntityPair> pass =
        pairs.subspan(begin, std::min(kPairsPerPass, pairs.size() - begin));
    for (const Tensor& logits :
         ForwardBatch(pass, /*training=*/false, unused)) {
      probabilities.push_back(Softmax(logits).at(0, 1));
    }
  }
  return probabilities;
}

Tensor HierGatModel::ForwardLogits(const EntityPair& pair, bool training,
                                   Rng& rng) const {
  return ForwardBatch(std::span<const EntityPair>(&pair, 1), training, rng)
      .front();
}

std::vector<Tensor> HierGatModel::ForwardBatch(
    std::span<const EntityPair> pairs, bool training, Rng& rng,
    AttentionReport* report) const {
  HG_CHECK(stack_.built) << "HierGatModel::Train must run before inference";
  HG_CHECK(report == nullptr || pairs.size() == 1);
  std::vector<Hhg> hhgs;
  hhgs.reserve(pairs.size());
  for (const EntityPair& pair : pairs) {
    const Status schema = ValidatePair(pair);
    HG_CHECK(schema.ok()) << schema.ToString();
    hhgs.push_back(Hhg::Build(pair.left, {&pair.right, 1}));
  }
  // Repeated attribute values hit the summary cache from their second
  // occurrence on, across pairs and batches.
  SummaryCache* cache =
      (!training && cache_enabled_) ? &stack_.summary_cache : nullptr;
  const std::vector<Tensor> wpc =
      stack_.Contextualize(hhgs, training, rng, cache);

  // Hierarchical aggregation per entity. (The summaries read the WpC
  // rows, which couple both entities through shared token nodes and
  // key-group context — so unlike the per-attribute terms above they
  // are pair-specific and never cached.)
  std::vector<internal_hiergat::HierGatStack::SummaryJob> summary_jobs;
  for (size_t p = 0; p < hhgs.size(); ++p) {
    for (int e = 0; e < 2; ++e) {
      for (int attr_id : hhgs[p].entity(e).attributes) {
        summary_jobs.push_back(
            {&wpc[p], &hhgs[p].attribute(attr_id).token_seq});
      }
    }
  }
  const size_t k = static_cast<size_t>(stack_.num_attributes);
  HG_CHECK_EQ(summary_jobs.size(), 2 * k * hhgs.size());
  internal_hiergat::HierGatStack::Explanation explanation;
  internal_hiergat::HierGatStack::Explanation* sink =
      report != nullptr ? &explanation : nullptr;
  const std::vector<Tensor> summaries =
      stack_.SummarizeAttributes(summary_jobs, training, rng, sink);

  const std::span<const Tensor> all(summaries);
  std::vector<internal_hiergat::HierGatStack::CompareJob> compare_jobs;
  compare_jobs.reserve(hhgs.size());
  for (size_t p = 0; p < hhgs.size(); ++p) {
    const std::span<const Tensor> left = all.subspan(2 * k * p, k);
    const std::span<const Tensor> right = all.subspan(2 * k * p + k, k);
    compare_jobs.push_back(
        {left, right,
         stack_.aggregator->SummarizeEntity({left.begin(), left.end()}),
         stack_.aggregator->SummarizeEntity({right.begin(), right.end()})});
  }
  std::vector<Tensor> logits =
      stack_.CompareLogits(compare_jobs, training, rng, sink);
  if (report != nullptr) {
    // The summary jobs ran left then right, attribute by attribute.
    size_t job = 0;
    for (int e = 0; e < 2; ++e) {
      auto& side = e == 0 ? report->left : report->right;
      for (int attr_id : hhgs[0].entity(e).attributes) {
        const Hhg::AttributeNode& attr = hhgs[0].attribute(attr_id);
        AttentionReport::AttributeAttention viz;
        viz.key = attr.key;
        for (int t : attr.token_seq) viz.tokens.push_back(hhgs[0].token(t));
        viz.weights = std::move(explanation.token_attention[job++]);
        side.push_back(std::move(viz));
      }
    }
    report->attribute_weights = std::move(explanation.attribute_weights[0]);
  }
  return logits;
}

StatusOr<HierGatModel::AttentionReport> HierGatModel::InspectAttention(
    const EntityPair& pair) const {
  HG_CHECK(stack_.built);
  HG_RETURN_IF_ERROR(ValidatePair(pair));
  NoGradGuard no_grad;
  Rng unused(0);  // Inference draws nothing from it.
  AttentionReport report;
  const Tensor logits =
      ForwardBatch({&pair, 1}, /*training=*/false, unused, &report).front();
  report.match_probability = Softmax(logits).at(0, 1);
  return report;
}

}  // namespace hiergat
