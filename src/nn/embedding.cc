#include "nn/embedding.h"

#include <algorithm>

#include "core/logging.h"

namespace hiergat {

Embedding::Embedding(int vocab_size, int dim, Rng& rng, float init_stddev)
    : vocab_size_(vocab_size), dim_(dim) {
  table_ = Tensor::Randn({vocab_size, dim}, rng, init_stddev,
                         /*requires_grad=*/true);
}

Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return EmbeddingLookup(table_, ids);
}

void Embedding::SetRow(int id, const std::vector<float>& values) {
  HG_CHECK(id >= 0 && id < vocab_size_);
  HG_CHECK_EQ(static_cast<int>(values.size()), dim_);
  std::copy(values.begin(), values.end(),
            table_.data().begin() + static_cast<size_t>(id) * dim_);
}

}  // namespace hiergat
