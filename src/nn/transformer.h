#ifndef HIERGAT_NN_TRANSFORMER_H_
#define HIERGAT_NN_TRANSFORMER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace hiergat {

/// Hyper-parameters of a transformer encoder stack.
struct TransformerConfig {
  int dim = 48;        ///< Model (embedding) width F.
  int num_heads = 2;   ///< Attention heads; must divide dim.
  int num_layers = 2;  ///< Encoder layers.
  int ffn_dim = 96;    ///< Inner width of the feed-forward block.
  float dropout = 0.1f;
  /// Multiplier on the sinusoidal position signal. Kept well below the
  /// (unit-norm) token embeddings so content dominates attention.
  float position_scale = 0.1f;
};

/// One pre-LN transformer encoder layer:
///   h = x + Dropout(SelfAttn(LN(x)));  out = h + Dropout(FFN(LN(h)))
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, Rng& rng);

  /// `segments`: see TransformerEncoder::Forward. With `queries` too,
  /// the layer returns only the query rows, packed as QueryRows packs
  /// them; everything after its first LayerNorm and the key/value
  /// projections runs on those rows alone. `attention`, when given,
  /// receives the head-averaged attention (MultiHeadSelfAttention).
  Tensor Forward(const Tensor& x, bool training, Rng& rng,
                 std::span<const int> segments = {},
                 std::span<const int> queries = {},
                 Tensor* attention = nullptr) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("attn", *attn_);
    out->AddModule("ffn1", *ffn1_);
    out->AddModule("ffn2", *ffn2_);
    out->AddModule("norm1", *norm1_);
    out->AddModule("norm2", *norm2_);
  }

 private:
  TransformerConfig config_;
  std::unique_ptr<MultiHeadSelfAttention> attn_;
  std::unique_ptr<Linear> ffn1_;
  std::unique_ptr<Linear> ffn2_;
  std::unique_ptr<LayerNormLayer> norm1_;
  std::unique_ptr<LayerNormLayer> norm2_;
};

/// Stack of encoder layers with sinusoidal positional encoding.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, Rng& rng);

  /// Encodes a [seq_len, dim] sequence. When `add_positions` is true a
  /// sinusoidal position signal is added before the first layer.
  ///
  /// Packed inference (DESIGN.md §11): with `segments`, `x` holds several
  /// sequences (sequence s is rows [segments[s], segments[s + 1])) that
  /// already carry their positions, and attention stays within each
  /// sequence. The last layer runs its query side on the query rows
  /// `queries` picks (every row when empty; see graph::Replay), and only
  /// those come out, packed at rows [queries[s], queries[s + 1]). Every
  /// row that comes out has the bits it has when its sequence is encoded
  /// alone.
  ///
  /// `attention`, when given, receives the final layer's head-averaged
  /// attention matrix (unpacked input only).
  Tensor Forward(const Tensor& x, bool training, Rng& rng,
                 bool add_positions = true,
                 std::span<const int> segments = {},
                 std::span<const int> queries = {},
                 Tensor* attention = nullptr) const;

  void RegisterParameters(NamedParameters* out) const override {
    for (size_t i = 0; i < layers_.size(); ++i) {
      out->AddModule("layer" + std::to_string(i), *layers_[i]);
    }
    out->AddModule("final_norm", *final_norm_);
  }

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  std::unique_ptr<LayerNormLayer> final_norm_;
};

/// The classic sin/cos positional-encoding matrix of shape [len, dim].
Tensor SinusoidalPositions(int len, int dim);

}  // namespace hiergat

#endif  // HIERGAT_NN_TRANSFORMER_H_
