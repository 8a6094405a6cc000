#include "er/hiergat.h"

#include <chrono>
#include <limits>

#include "core/logging.h"
#include "graph/hhg.h"
#include "obs/metrics.h"
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
  compiled_config.aggregator = aggregator.get();
  compiled_config.comparator = comparator.get();
  compiled_config.classifier = classifier.get();
  compiled_config.num_attributes = num_attributes;
  compiled = std::make_unique<CompiledScoring>(compiled_config);
}

void HierGatStack::RegisterCheckpointParameters(NamedParameters* out) const {
  out->AddModule("lm", *backbone.lm);
  out->AddModule("contextual", *contextual);
  out->AddModule("aggregator", *aggregator);  // No own parameters today.
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

Status HierGatStack::QuantizeWeights() {
  if (!built) {
    return Status::FailedPrecondition(
        std::string(tag()) + " QuantizeWeights: train or load a model first");
  }
  NamedParameters params;
  RegisterCheckpointParameters(&params);
  HG_RETURN_IF_ERROR(params.QuantizeAll());
  // Every weight just moved to its dequantized value: memoized
  // summaries and compiled-graph constants are stale.
  InvalidateInferenceCache();
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

Tensor HierGatStack::SummarizeAttribute(const Tensor& wpc,
                                        const std::vector<int>& token_seq,
                                        bool training, Rng& rng) const {
  if (UseCompiled(training)) {
    Tensor summary = compiled->Summarize(wpc, token_seq);
    if (summary.defined()) return summary;
  }
  return aggregator->SummarizeAttribute(wpc, token_seq, training, rng);
}

Tensor HierGatStack::CompareLogits(const std::vector<Tensor>& left,
                                   const std::vector<Tensor>& right,
                                   const Tensor& left_entity,
                                   const Tensor& right_entity, bool training,
                                   Rng& rng) const {
  if (UseCompiled(training)) {
    Tensor logits = compiled->Compare(left, right, left_entity, right_entity);
    if (logits.defined()) {
      CompiledPairs().Increment();
      return logits;
    }
  }
  if (!training) EagerPairs().Increment();
  // Hierarchical comparison: one similarity view per aligned attribute.
  std::vector<Tensor> similarities;
  similarities.reserve(left.size());
  for (size_t a = 0; a < left.size(); ++a) {
    similarities.push_back(
        comparator->CompareAttribute(left[a], right[a], training, rng));
  }
  return classifier->Forward(
      comparator->CombineViews(similarities, left_entity, right_entity));
}

CompiledScoring::Stats HierGatStack::compiled_stats() const {
  return compiled != nullptr ? compiled->stats() : CompiledScoring::Stats{};
}

std::vector<Tensor> HierGatStack::TrainableParameters() const {
  std::vector<Tensor> params;
  AppendParameters(&params, backbone.lm->Parameters());
  AppendParameters(&params, contextual->Parameters());
  AppendParameters(&params, aggregator->Parameters());
  AppendParameters(&params, comparator->Parameters());
  if (aligner != nullptr) AppendParameters(&params, aligner->Parameters());
  AppendParameters(&params, classifier->Parameters());
  return params;
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

Tensor HierGatModel::ForwardLogits(const EntityPair& pair, bool training,
                                   Rng& rng) const {
  HG_CHECK(stack_.built) << "HierGatModel::Train must run before inference";
  const Status schema = ValidatePair(pair);
  HG_CHECK(schema.ok()) << schema.ToString();
  const Hhg hhg = Hhg::Build({pair.left, pair.right});
  // Repeated attribute values hit the summary cache from their second
  // occurrence on, across pairs and batches.
  SummaryCache* cache =
      (!training && cache_enabled_) ? &stack_.summary_cache : nullptr;
  const Tensor wpc = stack_.contextual->Compute(hhg, training, rng, cache);

  // Hierarchical aggregation per entity. (The summaries read the WpC
  // rows, which couple both entities through shared token nodes and
  // key-group context — so unlike the per-attribute terms above they
  // are pair-specific and never cached.)
  std::vector<std::vector<Tensor>> attr_embeddings(2);
  std::vector<Tensor> entity_embeddings(2);
  for (int e = 0; e < 2; ++e) {
    for (int attr_id : hhg.entity(e).attributes) {
      attr_embeddings[static_cast<size_t>(e)].push_back(
          stack_.SummarizeAttribute(wpc, hhg.attribute(attr_id).token_seq,
                                    training, rng));
    }
    entity_embeddings[static_cast<size_t>(e)] =
        stack_.aggregator->SummarizeEntity(
            attr_embeddings[static_cast<size_t>(e)]);
  }
  return stack_.CompareLogits(attr_embeddings[0], attr_embeddings[1],
                              entity_embeddings[0], entity_embeddings[1],
                              training, rng);
}

HierGatModel::AttentionReport HierGatModel::InspectAttention(
    const EntityPair& pair) const {
  HG_CHECK(stack_.built);
  const Status schema = ValidatePair(pair);
  HG_CHECK(schema.ok()) << schema.ToString();
  NoGradGuard no_grad;
  Rng unused(0);
  AttentionReport report;
  const Hhg hhg = Hhg::Build({pair.left, pair.right});
  const Tensor wpc =
      stack_.contextual->Compute(hhg, /*training=*/false, unused);
  const HierarchicalAggregator& aggregator = *stack_.aggregator;
  const HierarchicalComparator& comparator = *stack_.comparator;

  std::vector<std::vector<Tensor>> attr_embeddings(2);
  std::vector<Tensor> entity_embeddings(2);
  for (int e = 0; e < 2; ++e) {
    auto& side = e == 0 ? report.left : report.right;
    for (int attr_id : hhg.entity(e).attributes) {
      const Hhg::AttributeNode& attr = hhg.attribute(attr_id);
      attr_embeddings[static_cast<size_t>(e)].push_back(
          aggregator.SummarizeAttribute(wpc, attr.token_seq,
                                        /*training=*/false, unused));
      AttentionReport::AttributeAttention viz;
      viz.key = attr.key;
      for (int t : attr.token_seq) viz.tokens.push_back(hhg.token(t));
      viz.weights = aggregator.last_token_attention();
      viz.weights.resize(viz.tokens.size(), 0.0f);
      side.push_back(std::move(viz));
    }
    entity_embeddings[static_cast<size_t>(e)] =
        aggregator.SummarizeEntity(attr_embeddings[static_cast<size_t>(e)]);
  }
  std::vector<Tensor> similarities;
  for (int a = 0; a < stack_.num_attributes; ++a) {
    similarities.push_back(comparator.CompareAttribute(
        attr_embeddings[0][static_cast<size_t>(a)],
        attr_embeddings[1][static_cast<size_t>(a)], /*training=*/false,
        unused));
  }
  Tensor similarity = comparator.CombineViews(
      similarities, entity_embeddings[0], entity_embeddings[1]);
  if (comparator.combination() == ViewCombination::kWeightAverage) {
    const Tensor& weights = comparator.last_view_weights();
    for (int i = 0; i < weights.dim(1); ++i) {
      report.attribute_weights.push_back(weights.at(0, i));
    }
  }
  Tensor probs = Softmax(stack_.classifier->Forward(similarity));
  report.match_probability = probs.at(0, 1);
  return report;
}

}  // namespace hiergat
