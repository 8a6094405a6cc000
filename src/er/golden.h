#ifndef HIERGAT_ER_GOLDEN_H_
#define HIERGAT_ER_GOLDEN_H_

/// Golden-regression fixtures: a tiny deterministic dataset, a small
/// model configuration, and score-file I/O shared by tools/make_golden
/// (which trains and emits the fixtures) and tests/golden_test (which
/// loads the checked-in fixtures and asserts score parity without any
/// training at test time).

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/entity.h"
#include "data/synthetic.h"
#include "er/hiergat.h"
#include "er/hiergat_plus.h"

namespace hiergat {
namespace golden {

/// Fixture file names inside tests/fixtures/. Checkpoints are written
/// in f16 to stay within the repository size budget (f16 -> f32 -> f16
/// is exact, so re-saving a loaded fixture reproduces it bitwise).
inline constexpr char kHierGatCheckpoint[] = "hiergat_small.ckpt";
inline constexpr char kHierGatScores[] = "hiergat_small.scores";
inline constexpr char kHierGatPlusCheckpoint[] = "hiergat_plus_small.ckpt";
inline constexpr char kHierGatPlusScores[] = "hiergat_plus_small.scores";

/// Largest per-score difference golden_test accepts between a score and
/// its fixture, or between compiled replay and eager scoring (which are
/// in fact bit-identical). One value for every golden comparison.
inline constexpr float kScoreTolerance = 1e-5f;

/// The bundled mini dataset specs. Deliberately tiny: the vocabulary is
/// checkpointed alongside the weights, so dataset size bounds fixture
/// size.
SyntheticSpec PairSpec();
SyntheticSpec CollectiveSpec();

/// Deterministic datasets generated from the specs above.
PairDataset MakePairDataset();
CollectiveDataset MakeCollectiveDataset();

/// Small model configs (kSmall LM, short in-domain pre-training).
HierGatConfig PairModelConfig();
HierGatPlusConfig CollectiveModelConfig();

/// Fixed-seed training options used when regenerating fixtures.
TrainOptions TrainingOptions();

/// The pairs/queries whose scores the golden files record (a slice of
/// the test split — unseen during training).
std::vector<EntityPair> ProbePairs(const PairDataset& data);
std::vector<CollectiveQuery> ProbeQueries(const CollectiveDataset& data);

/// Flattens PredictQuery over all probe queries into one score vector.
std::vector<float> ScoreQueries(const CollectiveModel& model,
                                const std::vector<CollectiveQuery>& queries);

/// Score files hold one score per line, printed with enough digits to
/// round-trip a float exactly.
std::string FormatScores(const std::vector<float>& scores);
StatusOr<std::vector<float>> ParseScores(const std::string& text);
Status WriteScores(const std::string& path, const std::vector<float>& scores);
StatusOr<std::vector<float>> ReadScores(const std::string& path);

/// Trains a fixture model from scratch (used only when regenerating).
std::unique_ptr<HierGatModel> TrainPairModel();
std::unique_ptr<HierGatPlusModel> TrainCollectiveModel();

}  // namespace golden
}  // namespace hiergat

#endif  // HIERGAT_ER_GOLDEN_H_
