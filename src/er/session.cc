#include "er/session.h"

#include <utility>

#include "core/logging.h"
#include "er/er.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace hiergat {

StatusOr<std::unique_ptr<Session>> Session::Open(
    const SessionOptions& options) {
  std::unique_ptr<Session> session(new Session());

  MatcherOptions matcher_options;
  matcher_options.lm_size = options.lm_size;
  matcher_options.lm_pretrain_steps = options.lm_pretrain_steps;

  if (options.collective) {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadCollectiveMatcher(options.checkpoint_path);
      HG_RETURN_IF_ERROR(model_or.status());
      session->collective_model_ = std::move(model_or).value();
    } else {
      session->collective_model_ =
          MakeCollectiveMatcher(options.matcher, matcher_options);
      if (session->collective_model_ == nullptr) {
        return Status::InvalidArgument("unknown collective matcher '" +
                                       options.matcher + "'");
      }
    }
    if (options.summary_cache_capacity > 0) {
      session->collective_model_->set_summary_cache_capacity(
          options.summary_cache_capacity);
    }
    session->collective_model_->set_graph_compile_enabled(
        options.enable_graph_compile);
  } else {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadMatcher(options.checkpoint_path);
      HG_RETURN_IF_ERROR(model_or.status());
      session->pairwise_model_ = std::move(model_or).value();
    } else {
      session->pairwise_model_ = MakeMatcher(options.matcher, matcher_options);
      if (session->pairwise_model_ == nullptr) {
        return Status::InvalidArgument("unknown pairwise matcher '" +
                                       options.matcher + "'");
      }
    }
    if (options.summary_cache_capacity > 0) {
      session->pairwise_model_->set_summary_cache_capacity(
          options.summary_cache_capacity);
    }
    session->pairwise_model_->set_graph_compile_enabled(
        options.enable_graph_compile);
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
               << " engine thread(s), graph_compile="
               << (options.enable_graph_compile ? "on" : "off");
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
