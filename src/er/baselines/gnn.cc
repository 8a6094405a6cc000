#include "er/baselines/gnn.h"

#include <cmath>
#include <span>

#include "core/logging.h"
#include "er/lm_backbone.h"
#include "tensor/ops.h"
#include "text/hashed_embeddings.h"

namespace hiergat {

GraphCollectiveModel::GraphCollectiveModel(const GnnConfig& config)
    : config_(config) {}

GraphCollectiveModel::~GraphCollectiveModel() = default;

void GraphCollectiveModel::Train(const CollectiveDataset& data,
                                 const TrainOptions& options) {
  vocab_ = BuildVocabularyCollective({&data.train, &data.valid, &data.test});
  Rng rng(options.seed);
  embeddings_ = std::make_unique<Embedding>(vocab_->size(),
                                            config_.embedding_dim, rng, 0.02f);
  const HashedEmbeddings hashed(config_.embedding_dim, 3, 5, options.seed);
  for (int id = Vocabulary::kNumSpecial; id < vocab_->size(); ++id) {
    embeddings_->SetRow(id, hashed.WordVector(vocab_->Token(id)));
  }
  BuildPropagation(rng);
  head_ = std::make_unique<Mlp>(
      std::vector<int>{4 * entity_dim(), 2 * entity_dim(), 2}, rng);
  built_ = true;
  NeuralCollectiveModel::Train(data, options);
}

Tensor GraphCollectiveModel::ForwardQueryLogits(const CollectiveQuery& query,
                                                bool training,
                                                Rng& rng) const {
  HG_CHECK(built_) << "Train before inference";
  const Hhg hhg = Hhg::Build(query.query, query.candidates);

  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(hhg.num_tokens()));
  for (const std::string& token : hhg.tokens()) {
    ids.push_back(vocab_->Id(token));
  }
  Tensor tokens = embeddings_->Forward(ids);
  tokens = Dropout(tokens, config_.dropout, rng, training);

  Tensor entity_rows = EntityEmbeddings(hhg, tokens, training);  // [M, D]
  Tensor vq = SliceRows(entity_rows, 0, 1);
  std::vector<Tensor> logits;
  logits.reserve(query.candidates.size());
  for (int c = 1; c < hhg.num_entities(); ++c) {
    Tensor vc = SliceRows(entity_rows, c, c + 1);
    Tensor diff = Sub(vq, vc);
    Tensor abs_diff = Add(Relu(diff), Relu(Neg(diff)));
    Tensor features = ConcatCols({vq, vc, abs_diff, Mul(vq, vc)});
    logits.push_back(head_->Forward(features));
  }
  return ConcatRows(logits);
}

std::vector<Tensor> GraphCollectiveModel::TrainableParameters() const {
  std::vector<Tensor> params;
  AppendParameters(&params, embeddings_->Parameters());
  AppendParameters(&params, PropagationParameters());
  AppendParameters(&params, head_->Parameters());
  return params;
}

namespace {

/// Node layout of the homogeneous view: [tokens | attributes | entities].
struct HomogeneousGraph {
  int num_tokens = 0;
  int num_attributes = 0;
  int num_entities = 0;
  int total = 0;
  std::vector<std::pair<int, int>> edges;  // Undirected, by flat id.
};

HomogeneousGraph Flatten(const Hhg& hhg) {
  HomogeneousGraph g;
  g.num_tokens = hhg.num_tokens();
  g.num_attributes = hhg.num_attributes();
  g.num_entities = hhg.num_entities();
  g.total = g.num_tokens + g.num_attributes + g.num_entities;
  for (int a = 0; a < g.num_attributes; ++a) {
    const int attr_flat = g.num_tokens + a;
    for (int t : hhg.attribute_tokens(a)) g.edges.emplace_back(t, attr_flat);
    g.edges.emplace_back(attr_flat,
                         g.num_tokens + g.num_attributes +
                             hhg.attribute(a).entity);
  }
  return g;
}

/// Initial features: token rows from the embedding table; attribute and
/// entity rows as means of their children (gives every node semantics).
Tensor InitialFeatures(const Hhg& hhg, const HomogeneousGraph& g,
                       const Tensor& tokens) {
  const int f = tokens.dim(1);
  std::vector<Tensor> rows = {tokens};
  std::vector<Tensor> attr_rows;
  for (int a = 0; a < g.num_attributes; ++a) {
    const auto& seq = hhg.attribute(a).token_seq;
    if (seq.empty()) {
      attr_rows.push_back(Tensor::Zeros({1, f}));
    } else {
      attr_rows.push_back(MeanRows(GatherRows(tokens, seq)));
    }
  }
  Tensor attrs = ConcatRows(attr_rows);
  rows.push_back(attrs);
  for (int e = 0; e < g.num_entities; ++e) {
    const auto& attr_ids = hhg.entity(e).attributes;
    rows.push_back(MeanRows(GatherRows(attrs, attr_ids)));
  }
  return ConcatRows(rows);
}

}  // namespace

GcnCollectiveModel::GcnCollectiveModel(const GnnConfig& config)
    : GraphCollectiveModel(config) {}

void GcnCollectiveModel::BuildPropagation(Rng& rng) {
  layer_weights_.clear();
  int in = config_.embedding_dim;
  for (int l = 0; l < config_.layers; ++l) {
    layer_weights_.push_back(
        std::make_unique<Linear>(in, config_.hidden_dim, rng));
    in = config_.hidden_dim;
  }
}

Tensor GcnCollectiveModel::EntityEmbeddings(const Hhg& hhg,
                                            const Tensor& tokens,
                                            bool training) const {
  (void)training;
  const HomogeneousGraph g = Flatten(hhg);
  // Symmetric-normalized adjacency with self-loops (constant data).
  std::vector<int> degree(static_cast<size_t>(g.total), 1);
  for (const auto& [u, v] : g.edges) {
    ++degree[static_cast<size_t>(u)];
    ++degree[static_cast<size_t>(v)];
  }
  Tensor adj = Tensor::Zeros({g.total, g.total});
  auto put = [&](int u, int v) {
    adj.set(u, v,
            1.0f / std::sqrt(static_cast<float>(degree[static_cast<size_t>(u)]) *
                             static_cast<float>(degree[static_cast<size_t>(v)])));
  };
  for (int n = 0; n < g.total; ++n) put(n, n);
  for (const auto& [u, v] : g.edges) {
    put(u, v);
    put(v, u);
  }
  Tensor h = InitialFeatures(hhg, g, tokens);
  for (size_t l = 0; l < layer_weights_.size(); ++l) {
    h = MatMul(adj, layer_weights_[l]->Forward(h));
    if (l + 1 < layer_weights_.size()) h = Relu(h);
  }
  return SliceRows(h, g.num_tokens + g.num_attributes, g.total);
}

std::vector<Tensor> GcnCollectiveModel::PropagationParameters() const {
  std::vector<Tensor> params;
  for (const auto& w : layer_weights_) {
    AppendParameters(&params, w->Parameters());
  }
  return params;
}

GatCollectiveModel::GatCollectiveModel(const GnnConfig& config)
    : GraphCollectiveModel(config) {}

void GatCollectiveModel::BuildPropagation(Rng& rng) {
  layer_weights_.clear();
  src_scores_.clear();
  dst_scores_.clear();
  int in = config_.embedding_dim;
  for (int l = 0; l < config_.layers; ++l) {
    layer_weights_.push_back(
        std::make_unique<Linear>(in, config_.hidden_dim, rng, false));
    src_scores_.push_back(
        std::make_unique<Linear>(config_.hidden_dim, 1, rng, false));
    dst_scores_.push_back(
        std::make_unique<Linear>(config_.hidden_dim, 1, rng, false));
    in = config_.hidden_dim;
  }
}

Tensor GatCollectiveModel::EntityEmbeddings(const Hhg& hhg,
                                            const Tensor& tokens,
                                            bool training) const {
  (void)training;
  const HomogeneousGraph g = Flatten(hhg);
  // Edge mask: 0 on edges/self-loops, -1e9 elsewhere (constant data).
  Tensor mask = Tensor::Full({g.total, g.total}, -1e9f);
  for (int n = 0; n < g.total; ++n) mask.set(n, n, 0.0f);
  for (const auto& [u, v] : g.edges) {
    mask.set(u, v, 0.0f);
    mask.set(v, u, 0.0f);
  }
  Tensor ones_col = Tensor::Full({g.total, 1}, 1.0f);
  Tensor h = InitialFeatures(hhg, g, tokens);
  for (size_t l = 0; l < layer_weights_.size(); ++l) {
    Tensor hw = layer_weights_[l]->Forward(h);              // [N, D]
    Tensor s = src_scores_[l]->Forward(hw);                 // [N, 1]
    Tensor t = dst_scores_[l]->Forward(hw);                 // [N, 1]
    // e_ij = LeakyReLU(s_i + t_j), then mask and row-softmax.
    Tensor scores = Add(MatMul(s, Transpose(ones_col)),
                        MatMul(ones_col, Transpose(t)));    // [N, N]
    Tensor attention = Softmax(Add(LeakyRelu(scores), mask));
    h = MatMul(attention, hw);
    if (l + 1 < layer_weights_.size()) h = Relu(h);
  }
  return SliceRows(h, g.num_tokens + g.num_attributes, g.total);
}

std::vector<Tensor> GatCollectiveModel::PropagationParameters() const {
  std::vector<Tensor> params;
  for (size_t l = 0; l < layer_weights_.size(); ++l) {
    AppendParameters(&params, layer_weights_[l]->Parameters());
    AppendParameters(&params, src_scores_[l]->Parameters());
    AppendParameters(&params, dst_scores_[l]->Parameters());
  }
  return params;
}

HgatCollectiveModel::HgatCollectiveModel(const GnnConfig& config)
    : GraphCollectiveModel(config) {}

void HgatCollectiveModel::BuildPropagation(Rng& rng) {
  token_pool_ =
      std::make_unique<GraphAttentionPool>(config_.embedding_dim, rng, true);
  attribute_pool_ =
      std::make_unique<GraphAttentionPool>(config_.embedding_dim, rng, true);
}

Tensor HgatCollectiveModel::EntityEmbeddings(const Hhg& hhg,
                                             const Tensor& tokens,
                                             bool training) const {
  (void)training;
  // Layer 1: token -> attribute.
  std::vector<Tensor> attr_rows;
  attr_rows.reserve(static_cast<size_t>(hhg.num_attributes()));
  for (int a = 0; a < hhg.num_attributes(); ++a) {
    const std::span<const int> distinct = hhg.attribute_tokens(a);
    if (distinct.empty()) {
      attr_rows.push_back(Tensor::Zeros({1, config_.embedding_dim}));
      continue;
    }
    Tensor nodes = GatherRows(
        tokens, std::vector<int>(distinct.begin(), distinct.end()));
    attr_rows.push_back(token_pool_->Pool(nodes, nodes));
  }
  Tensor attrs = ConcatRows(attr_rows);
  // Layer 2: attribute -> entity.
  std::vector<Tensor> entity_rows;
  entity_rows.reserve(static_cast<size_t>(hhg.num_entities()));
  for (int e = 0; e < hhg.num_entities(); ++e) {
    Tensor nodes = GatherRows(attrs, hhg.entity(e).attributes);
    entity_rows.push_back(attribute_pool_->Pool(nodes, nodes));
  }
  return ConcatRows(entity_rows);
}

std::vector<Tensor> HgatCollectiveModel::PropagationParameters() const {
  std::vector<Tensor> params;
  AppendParameters(&params, token_pool_->Parameters());
  AppendParameters(&params, attribute_pool_->Parameters());
  return params;
}

}  // namespace hiergat
