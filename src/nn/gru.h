#ifndef HIERGAT_NN_GRU_H_
#define HIERGAT_NN_GRU_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace hiergat {

/// Gated recurrent unit layer (Cho et al. 2014), the sequence encoder
/// used by the DeepMatcher baseline.
///
/// For each step t over the input rows x_t:
///   z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
///   r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
///   n_t = tanh  (x_t Wn + (r_t * h_{t-1}) Un + bn)
///   h_t = (1 - z_t) * h_{t-1} + z_t * n_t
class Gru : public Module {
 public:
  Gru(int input_dim, int hidden_dim, Rng& rng);

  /// Runs the recurrence over a [seq_len, input_dim] sequence and
  /// returns all hidden states [seq_len, hidden_dim]. When `reverse` is
  /// true the sequence is processed back-to-front (output stays aligned
  /// with the input order).
  Tensor Forward(const Tensor& x, bool reverse = false) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("wz", *wz_);
    out->AddModule("uz", *uz_);
    out->AddModule("wr", *wr_);
    out->AddModule("ur", *ur_);
    out->AddModule("wn", *wn_);
    out->AddModule("un", *un_);
  }

  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  std::unique_ptr<Linear> wz_, uz_;
  std::unique_ptr<Linear> wr_, ur_;
  std::unique_ptr<Linear> wn_, un_;
};

/// Bidirectional GRU: concatenates forward and backward hidden states,
/// producing [seq_len, 2 * hidden_dim].
class BiGru : public Module {
 public:
  BiGru(int input_dim, int hidden_dim, Rng& rng)
      : fwd_(std::make_unique<Gru>(input_dim, hidden_dim, rng)),
        bwd_(std::make_unique<Gru>(input_dim, hidden_dim, rng)) {}

  Tensor Forward(const Tensor& x) const;

  void RegisterParameters(NamedParameters* out) const override {
    out->AddModule("fwd", *fwd_);
    out->AddModule("bwd", *bwd_);
  }

  int output_dim() const { return 2 * fwd_->hidden_dim(); }

 private:
  std::unique_ptr<Gru> fwd_;
  std::unique_ptr<Gru> bwd_;
};

}  // namespace hiergat

#endif  // HIERGAT_NN_GRU_H_
