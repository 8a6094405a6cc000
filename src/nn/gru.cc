#include "nn/gru.h"

#include "core/logging.h"
#include "tensor/ops.h"

namespace hiergat {

Gru::Gru(int input_dim, int hidden_dim, Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  wz_ = std::make_unique<Linear>(input_dim, hidden_dim, rng, true);
  uz_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
  wr_ = std::make_unique<Linear>(input_dim, hidden_dim, rng, true);
  ur_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
  wn_ = std::make_unique<Linear>(input_dim, hidden_dim, rng, true);
  un_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
}

Tensor Gru::Forward(const Tensor& x, bool reverse) const {
  HG_CHECK_EQ(x.dim(1), input_dim_);
  const int len = x.dim(0);
  // Input projections are time-independent: hoist them out of the
  // recurrence as three sequence-wide fused GEMMs ([len, hidden] each)
  // instead of 3 * len per-step [1, hidden] GEMM nodes.
  Tensor xz = wz_->Forward(x);
  Tensor xr = wr_->Forward(x);
  Tensor xn = wn_->Forward(x);
  Tensor h = Tensor::Zeros({1, hidden_dim_});
  std::vector<Tensor> states(static_cast<size_t>(len));
  Tensor ones = Tensor::Full({1, hidden_dim_}, 1.0f);
  for (int step = 0; step < len; ++step) {
    const int t = reverse ? len - 1 - step : step;
    Tensor z = Sigmoid(Add(Row(xz, t), uz_->Forward(h)));
    Tensor r = Sigmoid(Add(Row(xr, t), ur_->Forward(h)));
    Tensor n = Tanh(Add(Row(xn, t), un_->Forward(Mul(r, h))));
    h = Add(Mul(Sub(ones, z), h), Mul(z, n));
    states[static_cast<size_t>(t)] = h;
  }
  return ConcatRows(states);
}

Tensor BiGru::Forward(const Tensor& x) const {
  return ConcatCols({fwd_->Forward(x, /*reverse=*/false),
                     bwd_->Forward(x, /*reverse=*/true)});
}

}  // namespace hiergat
