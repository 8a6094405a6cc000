#include "nn/attention.h"

#include <cmath>

#include "core/logging.h"
#include "tensor/ops.h"

namespace hiergat {

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int num_heads,
                                               Rng& rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {
  HG_CHECK_EQ(head_dim_ * num_heads, dim)
      << "dim must be divisible by num_heads";
  // Identity-slice initialization: head h's Q/K/V start as the identity
  // restricted to its coordinate slice (plus noise). Attention scores
  // then begin as content dot-products, so token-matching circuits —
  // which large pre-trained LMs provide out of the box and the ER heads
  // rely on — exist from step one instead of having to be discovered.
  const float kAttnGain = 1.4f;
  auto identity_slice = [&](int head, float gain,
                            float noise) -> std::unique_ptr<Linear> {
    auto layer = std::make_unique<Linear>(dim, head_dim_, rng, false);
    Tensor w = layer->weight();  // [dim, head_dim]
    for (int r = 0; r < dim; ++r) {
      for (int c = 0; c < head_dim_; ++c) {
        const float eye = (r == head * head_dim_ + c) ? gain : 0.0f;
        w.set(r, c, eye + rng.NextGaussian() * noise);
      }
    }
    return layer;
  };
  for (int h = 0; h < num_heads; ++h) {
    q_proj_.push_back(identity_slice(h, kAttnGain, 0.02f));
    k_proj_.push_back(identity_slice(h, kAttnGain, 0.02f));
    v_proj_.push_back(identity_slice(h, 1.0f, 0.02f));
  }
  out_proj_ = std::make_unique<Linear>(dim, dim, rng, true);
  // Output projection starts near identity so the residual stream keeps
  // token content.
  Tensor w = out_proj_->weight();
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < dim; ++c) {
      w.set(r, c, (r == c ? 1.0f : 0.0f) + rng.NextGaussian() * 0.02f);
    }
  }
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& q_input,
                                       const Tensor& kv_input,
                                       std::span<const int> segments,
                                       std::span<const int> queries,
                                       Tensor* attention) const {
  HG_CHECK_EQ(q_input.dim(1), dim_);
  HG_CHECK_EQ(kv_input.dim(1), dim_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // In self-attention, mask the diagonal: a token's own content reaches
  // the output through the residual connection, while the attention
  // pathway carries *context*. Without this, content-similarity scores
  // saturate on self (always the best match) and cross-token matching
  // circuits never receive probability mass.
  const bool self_attention = q_input.impl() == kv_input.impl();
  const bool packed = !segments.empty();
  HG_CHECK(!packed || self_attention);
  HG_CHECK(packed || queries.empty());
  Tensor diag_mask;
  if (self_attention && !packed && q_input.dim(0) > 1) {
    diag_mask = Tensor::Zeros({q_input.dim(0), q_input.dim(0)});
    for (int i = 0; i < q_input.dim(0); ++i) diag_mask.set(i, i, -1e9f);
  }
  // Packed with a query table, only the query rows project to queries.
  const Tensor q_rows =
      queries.empty() ? q_input : QueryRows(q_input, segments, queries);
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(q_proj_.size());
  Tensor attn_sum;
  for (size_t h = 0; h < q_proj_.size(); ++h) {
    Tensor q = q_proj_[h]->Forward(q_rows);     // [Lq, hd]
    Tensor k = k_proj_[h]->Forward(kv_input);   // [Lk, hd]
    Tensor v = v_proj_[h]->Forward(kv_input);   // [Lk, hd]
    // Fused scaled QK^T + mask + row-softmax: one graph node per head
    // instead of MatMul/Transpose/Scale/Add/Softmax. Packed, each
    // sequence masks its own diagonal.
    if (packed) {
      head_outputs.push_back(MatMul(
          AttentionScores(q, k, scale, segments, queries), v, segments,
          queries));
      continue;
    }
    Tensor attn = AttentionScores(q, k, scale, diag_mask);  // [Lq, Lk]
    if (attention != nullptr) {
      attn_sum = attn_sum.defined() ? Add(attn_sum, attn.Detach())
                                    : attn.Detach();
    }
    head_outputs.push_back(MatMul(attn, v));    // [Lq, hd]
  }
  if (attn_sum.defined()) {
    *attention = Tensor::FromVector(attn_sum.shape(), attn_sum.data());
    for (float& v : attention->data()) v /= static_cast<float>(num_heads_);
  }
  return out_proj_->Forward(ConcatCols(head_outputs));
}

}  // namespace hiergat
