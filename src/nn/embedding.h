#ifndef HIERGAT_NN_EMBEDDING_H_
#define HIERGAT_NN_EMBEDDING_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace hiergat {

/// Trainable lookup table of `vocab_size` x `dim` embeddings.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng, float init_stddev = 0.1f);

  /// Rows for the given ids as an [ids.size(), dim] tensor. Gradients
  /// scatter-add into the table, so fine-tuning pre-set vectors works.
  Tensor Forward(const std::vector<int>& ids) const;

  /// Overwrites row `id` with `values` (used to inject pre-trained
  /// vectors; `values.size()` must equal dim).
  void SetRow(int id, const std::vector<float>& values);

  void RegisterParameters(NamedParameters* out) const override {
    (void)out->Add("table", table_);
  }

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const Tensor& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  Tensor table_;  // [vocab_size, dim]
};

}  // namespace hiergat

#endif  // HIERGAT_NN_EMBEDDING_H_
