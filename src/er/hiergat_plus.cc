#include "er/hiergat_plus.h"

#include "core/logging.h"
#include "graph/hhg.h"
#include "obs/trace.h"
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
  // One HHG for the query and all candidates (Figure 2's relation
  // network lives inside this shared graph).
  std::vector<Entity> entities;
  entities.reserve(query.candidates.size() + 1);
  entities.push_back(query.query);
  entities.insert(entities.end(), query.candidates.begin(),
                  query.candidates.end());
  for (const Entity& entity : entities) {
    const Status schema = stack_.CheckSchema(entity);
    HG_CHECK(schema.ok()) << schema.ToString();
  }
  const Hhg hhg = Hhg::Build(entities);
  SummaryCache* cache = training ? nullptr : &stack_.summary_cache;
  const Tensor wpc = stack_.Contextualize(std::span<const Hhg>(&hhg, 1),
                                          training, rng, cache)
                         .front();

  // Every entity's attribute summaries, in one batch.
  const int m = hhg.num_entities();
  const size_t k = static_cast<size_t>(stack_.num_attributes);
  std::vector<internal_hiergat::HierGatStack::SummaryJob> summary_jobs;
  for (int e = 0; e < m; ++e) {
    for (int attr_id : hhg.entity(e).attributes) {
      summary_jobs.push_back({&wpc, &hhg.attribute(attr_id).token_seq});
    }
  }
  HG_CHECK_EQ(summary_jobs.size(), k * static_cast<size_t>(m));
  const std::vector<Tensor> summaries =
      stack_.SummarizeAttributes(summary_jobs, training, rng);
  const std::span<const Tensor> all(summaries);
  auto attributes = [&](int e) {
    return all.subspan(k * static_cast<size_t>(e), k);
  };
  std::vector<Tensor> entity_rows;
  entity_rows.reserve(static_cast<size_t>(m));
  for (int e = 0; e < m; ++e) {
    entity_rows.push_back(stack_.aggregator->SummarizeEntity(
        {attributes(e).begin(), attributes(e).end()}));
  }
  Tensor entity_matrix = ConcatRows(entity_rows);  // [M, K*F]

  if (stack_.config.use_alignment) {
    std::vector<std::vector<int>> related;
    related.reserve(static_cast<size_t>(m));
    for (int e = 0; e < m; ++e) related.push_back(hhg.RelatedEntities(e));
    entity_matrix = stack_.aligner->Align(entity_matrix, related);
  }

  // Compare the query (entity 0) with every candidate.
  const Tensor query_entity = SliceRows(entity_matrix, 0, 1);
  std::vector<internal_hiergat::HierGatStack::CompareJob> compare_jobs;
  compare_jobs.reserve(query.candidates.size());
  for (int c = 1; c < m; ++c) {
    compare_jobs.push_back({attributes(0), attributes(c), query_entity,
                            SliceRows(entity_matrix, c, c + 1)});
  }
  // [N, 2]
  return ConcatRows(stack_.CompareLogits(compare_jobs, training, rng));
}

}  // namespace hiergat
