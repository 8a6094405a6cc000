#include "text/hashed_embeddings.h"

#include <cmath>
#include <cstdint>

#include "tensor/backend.h"

namespace hiergat {

namespace {

uint64_t Fnv1a(const char* data, size_t len, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<float> HashedEmbeddings::WordVector(
    const std::string& word) const {
  // Each n-gram adds its hashed vector through the active backend
  // (kernels::HashedNgramAccumulate), bit-identical on every backend.
  std::vector<float> acc(static_cast<size_t>(dim_), 0.0f);
  const std::string padded = "<" + word + ">";
  const int len = static_cast<int>(padded.size());
  for (int n = min_n_; n <= max_n_; ++n) {
    for (int start = 0; start + n <= len; ++start) {
      backend::HashedNgramAccumulate(
          Fnv1a(padded.data() + start, static_cast<size_t>(n),
                seed_ + static_cast<uint64_t>(n)),
          dim_, acc.data());
    }
  }
  // Include the whole word as its own "n-gram" so exact forms dominate.
  backend::HashedNgramAccumulate(
      Fnv1a(padded.data(), padded.size(), seed_ ^ 0xabcdULL), dim_,
      acc.data());
  // L2-normalize so token identity is not drowned out by positional
  // signals or layer scales downstream.
  double norm_sq = 0.0;
  for (float v : acc) norm_sq += static_cast<double>(v) * v;
  const float inv =
      norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
  for (float& v : acc) v *= inv;
  return acc;
}

}  // namespace hiergat
