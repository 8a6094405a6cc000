#include "er/session.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

#include "core/logging.h"
#include "core/serialize.h"
#include "er/baselines/deepmatcher.h"
#include "er/baselines/ditto.h"
#include "er/baselines/gnn.h"
#include "er/baselines/magellan.h"
#include "er/hiergat.h"
#include "er/hiergat_plus.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "tensor/threadpool.h"

namespace hiergat {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Copies the session's backbone overrides into an LM-backed config;
/// a negative `lm_pretrain_steps` keeps the model's own default.
template <typename Config>
Config LmConfig(const SessionOptions& options) {
  Config config;
  config.lm_size = options.lm_size;
  if (options.lm_pretrain_steps >= 0) {
    config.lm_pretrain_steps = options.lm_pretrain_steps;
  }
  return config;
}

/// Pairwise matchers by name (case-insensitive); null for unknown names.
std::unique_ptr<PairwiseModel> MakePairwise(const SessionOptions& options) {
  const std::string key = Lower(options.matcher);
  if (key == "hiergat") {
    return std::make_unique<HierGatModel>(LmConfig<HierGatConfig>(options));
  }
  if (key == "ditto") {
    return std::make_unique<DittoModel>(LmConfig<DittoConfig>(options));
  }
  if (key == "deepmatcher" || key == "dm") {
    return std::make_unique<DeepMatcherModel>();
  }
  if (key == "dm+" || key == "dmplus") return std::make_unique<DmPlusModel>();
  if (key == "magellan") return std::make_unique<MagellanModel>();
  return nullptr;
}

/// Collective matchers by name (case-insensitive); null for unknown names.
std::unique_ptr<CollectiveModel> MakeCollective(const SessionOptions& options) {
  const std::string key = Lower(options.matcher);
  if (key == "hiergat+" || key == "hiergatplus") {
    return std::make_unique<HierGatPlusModel>(
        LmConfig<HierGatPlusConfig>(options));
  }
  if (key == "gcn") return std::make_unique<GcnCollectiveModel>();
  if (key == "gat") return std::make_unique<GatCollectiveModel>();
  if (key == "hgat") return std::make_unique<HgatCollectiveModel>();
  return nullptr;
}

/// Restores a checkpoint of the model family `Model` (tagged `tag`).
/// The tag is peeked first so a checkpoint of the other family reports
/// "not a known <kind> matcher" instead of a confusing tag-mismatch
/// error from the wrong Load.
template <typename Model, typename Base>
StatusOr<std::unique_ptr<Base>> LoadTagged(const std::string& path,
                                           const std::string& tag,
                                           const char* kind) {
  auto reader_or = TensorReader::Open(path);
  HG_RETURN_IF_ERROR(reader_or.status());
  const std::string found = reader_or.value().model_tag();
  if (found != tag) {
    return Status::InvalidArgument("checkpoint tag '" + found +
                                   "' is not a known " + kind + " matcher");
  }
  std::unique_ptr<Base> model = std::make_unique<Model>();
  HG_RETURN_IF_ERROR(model->Load(path));
  return StatusOr<std::unique_ptr<Base>>(std::move(model));
}

}  // namespace

StatusOr<std::unique_ptr<Session>> Session::Open(
    const SessionOptions& options) {
  const int threads = options.engine.num_threads;
  if (threads < 0 || threads > kMaxThreads) {
    return Status::InvalidArgument(
        "engine.num_threads " + std::to_string(threads) +
        " is not in [0, " + std::to_string(kMaxThreads) + "]");
  }
  std::unique_ptr<Session> session(new Session());

  if (options.collective) {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadTagged<HierGatPlusModel, CollectiveModel>(
          options.checkpoint_path, "HierGAT+", "collective");
      HG_RETURN_IF_ERROR(model_or.status());
      session->collective_model_ = std::move(model_or).value();
    } else {
      session->collective_model_ = MakeCollective(options);
      if (session->collective_model_ == nullptr) {
        return Status::InvalidArgument("unknown collective matcher '" +
                                       options.matcher + "'");
      }
    }
  } else {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadTagged<HierGatModel, PairwiseModel>(
          options.checkpoint_path, "HierGAT", "pairwise");
      HG_RETURN_IF_ERROR(model_or.status());
      session->pairwise_model_ = std::move(model_or).value();
    } else {
      session->pairwise_model_ = MakePairwise(options);
      if (session->pairwise_model_ == nullptr) {
        return Status::InvalidArgument("unknown pairwise matcher '" +
                                       options.matcher + "'");
      }
    }
  }

  session->engine_ = std::make_unique<InferenceEngine>(options.engine);
  obs::RecordFlightEvent(obs::FlightEventKind::kSessionOpen, "Session::Open",
                         session->engine_->num_threads());
  HG_LOG(INFO) << "Session opened: "
               << (options.collective ? "collective" : "pairwise") << " '"
               << (session->pairwise_model_
                       ? session->pairwise_model_->name()
                       : session->collective_model_->name())
               << "'"
               << (options.checkpoint_path.empty()
                       ? std::string(" (untrained)")
                       : " from " + options.checkpoint_path)
               << ", " << session->engine_->num_threads()
               << " engine thread(s)";
  return StatusOr<std::unique_ptr<Session>>(std::move(session));
}

Session::~Session() = default;

Status Session::Train(const PairDataset& data, const TrainOptions& options) {
  if (pairwise_model_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Train(PairDataset): this is a collective session");
  }
  pairwise_model_->Train(data, options);
  return Status::Ok();
}

std::vector<float> Session::Score(std::span<const EntityPair> pairs) {
  HG_CHECK(pairwise_model_ != nullptr)
      << "Session::Score needs a pairwise session";
  return engine_->Score(*pairwise_model_, pairs);
}

EvalResult Session::Evaluate(std::span<const EntityPair> pairs) {
  HG_CHECK(pairwise_model_ != nullptr)
      << "Session::Evaluate(pairs) needs a pairwise session";
  return engine_->Evaluate(*pairwise_model_, pairs);
}

Status Session::Train(const CollectiveDataset& data,
                      const TrainOptions& options) {
  if (collective_model_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Train(CollectiveDataset): this is a pairwise session");
  }
  collective_model_->Train(data, options);
  return Status::Ok();
}

std::vector<std::vector<float>> Session::ScoreQueries(
    std::span<const CollectiveQuery> queries) {
  HG_CHECK(collective_model_ != nullptr)
      << "Session::ScoreQueries needs a collective session";
  return engine_->ScoreQueries(*collective_model_, queries);
}

EvalResult Session::Evaluate(std::span<const CollectiveQuery> queries) {
  HG_CHECK(collective_model_ != nullptr)
      << "Session::Evaluate(queries) needs a collective session";
  return engine_->Evaluate(*collective_model_, queries);
}

Status Session::SaveCheckpoint(const std::string& path) const {
  if (pairwise_model_ != nullptr) return pairwise_model_->Save(path);
  return collective_model_->Save(path);
}

}  // namespace hiergat
