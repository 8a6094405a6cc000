#ifndef HIERGAT_TEXT_HASHED_EMBEDDINGS_H_
#define HIERGAT_TEXT_HASHED_EMBEDDINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hiergat {

/// FastText-style subword embeddings without a learned table.
///
/// The vector of a word is the average of deterministic pseudo-random
/// unit-variance vectors, one per character n-gram (n in [min_n, max_n],
/// with boundary markers '<' and '>'). Two consequences match §4.1 of
/// the paper: every unknown/brand-specific surface form ("coolmax",
/// "tp-link") gets a *distinct* vector, and morphologically similar
/// words get correlated vectors because they share n-grams. These
/// vectors initialize the trainable embedding tables and are then
/// fine-tuned through the task loss.
class HashedEmbeddings {
 public:
  explicit HashedEmbeddings(int dim, int min_n = 3, int max_n = 5,
                            uint64_t seed = 0x5eedf00dULL)
      : dim_(dim), min_n_(min_n), max_n_(max_n), seed_(seed) {}

  /// Deterministic `dim`-dimensional vector for `word`.
  std::vector<float> WordVector(const std::string& word) const;

  int dim() const { return dim_; }

 private:
  int dim_;
  int min_n_;
  int max_n_;
  uint64_t seed_;
};

}  // namespace hiergat

#endif  // HIERGAT_TEXT_HASHED_EMBEDDINGS_H_
