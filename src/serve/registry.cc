#include "serve/registry.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace hiergat {
namespace serve {

namespace {

obs::Gauge& ModelsGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("hiergat.serve.registry.models");
  return gauge;
}
obs::Counter& ReloadsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.registry.reloads");
  return counter;
}
obs::Counter& ReloadFailuresCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.registry.reload_failures");
  return counter;
}

/// Opens and fully validates a serving Session; shared by LoadModel and
/// Reload so both paths publish only ready models.
StatusOr<std::shared_ptr<Session>> OpenServingSession(
    const SessionOptions& options) {
  if (options.collective) {
    return Status::InvalidArgument(
        "registry: serving scores entity pairs; collective sessions are not "
        "servable");
  }
  if (options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "registry: serving needs a checkpoint_path (an untrained model has "
        "nothing to serve)");
  }
  auto session_or = Session::Open(options);
  if (!session_or.ok()) return session_or.status();
  return std::shared_ptr<Session>(std::move(session_or).value());
}

}  // namespace

Status ModelRegistry::LoadModel(const std::string& name,
                                const SessionOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: model name must be non-empty");
  }
  auto session_or = OpenServingSession(options);
  if (!session_or.ok()) return session_or.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    models_[name] = Entry{std::move(session_or).value(), options};
    ModelsGauge().Set(static_cast<double>(models_.size()));
  }
  HG_LOG(INFO) << "registry: loaded model '" << name << "' from "
               << options.checkpoint_path;
  return Status::Ok();
}

Status ModelRegistry::Reload(const std::string& name,
                             const std::string& checkpoint_path) {
  SessionOptions options;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end()) {
      return Status::NotFound("registry: no model named '" + name + "'");
    }
    options = it->second.options;
  }
  if (!checkpoint_path.empty()) options.checkpoint_path = checkpoint_path;

  // The slow part — checkpoint read, weight load, engine spin-up —
  // happens with no lock held, while the old Session keeps serving.
  auto session_or = OpenServingSession(options);
  if (!session_or.ok()) {
    ReloadFailuresCounter().Increment();
    HG_LOG(ERROR) << "registry: reload of '" << name << "' from "
                  << options.checkpoint_path
                  << " failed: " << session_or.status().ToString()
                  << " (old model keeps serving)";
    return session_or.status();
  }

  std::shared_ptr<Session> replaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end()) {
      // The model was dropped while we were loading; publish anyway —
      // a reload is an upsert of a known name.
      models_[name] = Entry{std::move(session_or).value(), options};
    } else {
      replaced = std::move(it->second.session);
      it->second.session = std::move(session_or).value();
      it->second.options = options;
    }
    ModelsGauge().Set(static_cast<double>(models_.size()));
  }
  ReloadsCounter().Increment();
  obs::RecordFlightEvent(obs::FlightEventKind::kServeReload,
                         "registry.Reload",
                         static_cast<int64_t>(replaced.use_count()));
  HG_LOG(INFO) << "registry: hot-swapped model '" << name << "' from "
               << options.checkpoint_path;
  // `replaced` leaves scope here; if batches are still in flight on the
  // old Session they hold their own shared_ptr and the teardown (engine
  // join) runs when the last of them finishes — the drain protocol.
  return Status::Ok();
}

std::shared_ptr<Session> ModelRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (name.empty()) {
    if (models_.size() != 1) return nullptr;
    return models_.begin()->second.session;
  }
  auto it = models_.find(name);
  if (it == models_.end()) return nullptr;
  return it->second.session;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

}  // namespace serve
}  // namespace hiergat
