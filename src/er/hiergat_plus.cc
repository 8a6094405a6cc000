#include "er/hiergat_plus.h"

#include "core/logging.h"
#include "graph/hhg.h"
#include "obs/trace.h"
#include "tensor/graph.h"
#include "tensor/ops.h"

namespace hiergat {

void HierGatPlusModel::Train(const CollectiveDataset& data,
                             const TrainOptions& options) {
  HG_CHECK(!data.train.empty());
  stack_.Build(MakeBackboneCollective(data, stack_.config.lm_size,
                                      stack_.config.lm_pretrain_steps,
                                      options.seed),
               data.train.front().query.num_attributes(), options.seed);
  NeuralCollectiveModel::Train(data, options);
}

Tensor HierGatPlusModel::ForwardQueryLogits(const CollectiveQuery& query,
                                            bool training, Rng& rng) const {
  // Direct callers get a per-query request context; engine chunks
  // carry their job's context and inherit it here.
  obs::ScopedTraceRoot trace_root;
  HG_CHECK(stack_.built)
      << "HierGatPlusModel::Train must run before inference";
  const int num_attributes = stack_.num_attributes;
  // One HHG for the query and all candidates (Figure 2's relation
  // network lives inside this shared graph).
  std::vector<Entity> entities;
  entities.reserve(query.candidates.size() + 1);
  entities.push_back(query.query);
  entities.insert(entities.end(), query.candidates.begin(),
                  query.candidates.end());
  const Hhg hhg = Hhg::Build(entities);
  SummaryCache* cache = training ? nullptr : &stack_.summary_cache;
  const Tensor wpc = stack_.contextual->Compute(hhg, training, rng, cache);

  // Compiled-graph replay (DESIGN.md §11): only on the pure inference
  // path — training (and any grad-enabled forward) must build autograd
  // graphs, and a capture in flight must keep tracing eager ops.
  const CompiledScoring* compiled = stack_.compiled.get();
  const bool use_compiled = !training && !GradModeEnabled() &&
                            stack_.graph_compile_enabled &&
                            compiled != nullptr &&
                            !graph::GraphCapture::Active();

  const int m = hhg.num_entities();
  std::vector<std::vector<Tensor>> attr_embeddings(
      static_cast<size_t>(m));
  std::vector<Tensor> entity_rows;
  entity_rows.reserve(static_cast<size_t>(m));
  for (int e = 0; e < m; ++e) {
    for (int attr_id : hhg.entity(e).attributes) {
      const std::vector<int>& token_seq = hhg.attribute(attr_id).token_seq;
      Tensor summary;
      if (use_compiled) summary = compiled->Summarize(wpc, token_seq);
      if (!summary.defined()) {
        // Eager fallback (capture failed for this length); bit-identical
        // to replay, so mixing paths within one query is fine.
        summary = stack_.aggregator->SummarizeAttribute(wpc, token_seq,
                                                        training, rng);
      }
      attr_embeddings[static_cast<size_t>(e)].push_back(std::move(summary));
    }
    // Schema sanity: all entities share the dataset's K attributes.
    HG_CHECK_EQ(static_cast<int>(attr_embeddings[static_cast<size_t>(e)].size()),
                num_attributes);
    entity_rows.push_back(stack_.aggregator->SummarizeEntity(
        attr_embeddings[static_cast<size_t>(e)]));
  }
  Tensor entity_matrix = ConcatRows(entity_rows);  // [M, K*F]

  if (stack_.config.use_alignment) {
    std::vector<std::vector<int>> related;
    related.reserve(static_cast<size_t>(m));
    for (int e = 0; e < m; ++e) related.push_back(hhg.RelatedEntities(e));
    entity_matrix = stack_.aligner->Align(entity_matrix, related);
  }

  // Compare the query (entity 0) with every candidate.
  Tensor query_entity = SliceRows(entity_matrix, 0, 1);
  std::vector<Tensor> logits_rows;
  logits_rows.reserve(query.candidates.size());
  for (int c = 1; c < m; ++c) {
    Tensor candidate_entity = SliceRows(entity_matrix, c, c + 1);
    if (use_compiled) {
      Tensor logits =
          compiled->Compare(attr_embeddings[0],
                            attr_embeddings[static_cast<size_t>(c)],
                            query_entity, candidate_entity);
      if (logits.defined()) {
        logits_rows.push_back(std::move(logits));
        continue;
      }
    }
    std::vector<Tensor> similarities;
    similarities.reserve(static_cast<size_t>(num_attributes));
    for (int a = 0; a < num_attributes; ++a) {
      similarities.push_back(stack_.comparator->CompareAttribute(
          attr_embeddings[0][static_cast<size_t>(a)],
          attr_embeddings[static_cast<size_t>(c)][static_cast<size_t>(a)],
          training, rng));
    }
    Tensor similarity = stack_.comparator->CombineViews(
        similarities, query_entity, candidate_entity);
    logits_rows.push_back(stack_.classifier->Forward(similarity));
  }
  return ConcatRows(logits_rows);  // [N, 2]
}

}  // namespace hiergat
