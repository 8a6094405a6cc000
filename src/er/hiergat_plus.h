#ifndef HIERGAT_ER_HIERGAT_PLUS_H_
#define HIERGAT_ER_HIERGAT_PLUS_H_

#include <string>
#include <vector>

#include "er/hiergat.h"

namespace hiergat {

/// HierGAT+ — the collective extension (§5.2.3): one HHG holds the
/// query and all its candidates; entity-level context removes redundant
/// common-token information; the entity alignment layer (Eq. 5)
/// sharpens candidate embeddings against each other before comparison.
/// Everything but the collective forward pass is HierGAT's stack (see
/// internal_hiergat::HierGatStack and the matching HierGatModel
/// members).
class HierGatPlusModel : public NeuralCollectiveModel {
 public:
  explicit HierGatPlusModel(
      const HierGatPlusConfig& config = HierGatPlusConfig())
      : stack_(/*is_collective=*/true, config) {}

  std::string name() const override { return "HierGAT+"; }

  void Train(const CollectiveDataset& data,
             const TrainOptions& options) override;

  void InvalidateInferenceCache() const override {
    stack_.InvalidateInferenceCache();
  }

  /// Full checkpoint round-trip (config + vocabulary + weights),
  /// including the alignment layer.
  Status Save(const std::string& path) const override {
    return stack_.Save(path, DType::kF32);
  }
  Status Save(const std::string& path, DType dtype) const {
    return stack_.Save(path, dtype);
  }
  Status Load(const std::string& path) override { return stack_.Load(path); }

  /// Inference-time entity-summary cache (hit/miss/eviction stats; also
  /// aggregated into the `hiergat.cache.*` metrics).
  const SummaryCache& summary_cache() const { return stack_.summary_cache; }

  /// See HierGatModel::set_graph_compile_enabled; the compare graph
  /// takes the aligned entity embeddings.
  void set_graph_compile_enabled(bool enabled) {
    stack_.graph_compile_enabled = enabled;
  }
  CompiledScoring::Stats compiled_stats() const {
    return stack_.compiled_stats();
  }

 protected:
  Tensor ForwardQueryLogits(const CollectiveQuery& query, bool training,
                            Rng& rng) const override;
  std::vector<Tensor> TrainableParameters() const override {
    return stack_.TrainableParameters();
  }
  std::vector<float> ParameterLrMultipliers() const override {
    return stack_.ParameterLrMultipliers();
  }

 private:
  internal_hiergat::HierGatStack stack_;
};

}  // namespace hiergat

#endif  // HIERGAT_ER_HIERGAT_PLUS_H_
