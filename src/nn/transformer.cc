#include "nn/transformer.h"

#include <cmath>

#include "core/logging.h"
#include "tensor/ops.h"

namespace hiergat {

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, Rng& rng)
    : config_(config) {
  attn_ = std::make_unique<MultiHeadSelfAttention>(config.dim,
                                                   config.num_heads, rng);
  ffn1_ = std::make_unique<Linear>(config.dim, config.ffn_dim, rng);
  ffn2_ = std::make_unique<Linear>(config.ffn_dim, config.dim, rng);
  norm1_ = std::make_unique<LayerNormLayer>(config.dim);
  norm2_ = std::make_unique<LayerNormLayer>(config.dim);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x, bool training,
                                        Rng& rng,
                                        std::span<const int> segments,
                                        std::span<const int> queries,
                                        Tensor* attention) const {
  // Pre-LN residual blocks: x + Attn(LN(x)), then h + FFN(LN(h)).
  // Pre-LN keeps gradients well-conditioned when training from scratch,
  // which our MiniLM-scale models do. Every projection below lowers to
  // the fused LinearOp / AttentionScores graph nodes (tensor/ops.h), so
  // a layer's forward builds ~2x fewer autograd nodes than the unfused
  // MatMul + Add chain it replaces.
  Tensor attended =
      attn_->Forward(norm1_->Forward(x), segments, queries, attention);
  attended = Dropout(attended, config_.dropout, rng, training);
  Tensor h = Add(queries.empty() ? x : QueryRows(x, segments, queries),
                 attended);
  Tensor ffn = ffn2_->Forward(Gelu(ffn1_->Forward(norm2_->Forward(h))));
  ffn = Dropout(ffn, config_.dropout, rng, training);
  return Add(h, ffn);
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       Rng& rng)
    : config_(config) {
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
  }
  final_norm_ = std::make_unique<LayerNormLayer>(config.dim);
}

Tensor TransformerEncoder::Forward(const Tensor& x, bool training, Rng& rng,
                                   bool add_positions,
                                   std::span<const int> segments,
                                   std::span<const int> queries,
                                   Tensor* attention) const {
  HG_CHECK(segments.empty() || !add_positions)
      << "packed sequences carry their own positions";
  HG_CHECK(!segments.empty() || queries.empty())
      << "a query table needs packed sequences";
  Tensor h = x;
  if (add_positions) {
    h = Add(h, Scale(SinusoidalPositions(x.dim(0), x.dim(1)),
                     config_.position_scale));
  }
  // Packed, the last layer always gathers its query rows, so one graph
  // serves every query table; earlier layers run every row, whose keys
  // and values the next layer reads.
  const std::span<const int> last_queries = queries.empty() ? segments : queries;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i]->Forward(h, training, rng, segments,
                            last ? last_queries : std::span<const int>(),
                            last ? attention : nullptr);
  }
  return final_norm_->Forward(h);
}

Tensor SinusoidalPositions(int len, int dim) {
  Tensor pos = Tensor::Zeros({len, dim});
  for (int p = 0; p < len; ++p) {
    for (int i = 0; i < dim; ++i) {
      const float exponent =
          static_cast<float>(2 * (i / 2)) / static_cast<float>(dim);
      const float angle =
          static_cast<float>(p) / std::pow(10000.0f, exponent);
      pos.set(p, i, (i % 2 == 0) ? std::sin(angle) : std::cos(angle));
    }
  }
  return pos;
}

}  // namespace hiergat
