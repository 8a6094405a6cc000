#ifndef HIERGAT_SERVE_REGISTRY_H_
#define HIERGAT_SERVE_REGISTRY_H_

/// Model registry for the serving layer (DESIGN.md §14): owns
/// checkpoint-loaded er::Sessions keyed by model name and supports
/// zero-downtime hot-swap. Sessions are handed out as shared_ptr
/// copies, so the swap protocol is simply:
///
///   1. Reload() opens the replacement Session fully — checkpoint read,
///      weights loaded, engine started — with no lock held and while
///      the old Session keeps serving.
///   2. Only a ready Session is published: one mutex-guarded
///      shared_ptr swap. A half-loaded model is never reachable, so it
///      can never produce a score.
///   3. The old Session drains via its refcount: in-flight batches
///      hold a shared_ptr and finish on the old weights; the last
///      release runs ~Session (which joins the engine pool's workers).
///
/// Requests therefore always score against exactly one fully-loaded
/// model version — never a mix, never a partial load.

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/status.h"
#include "er/session.h"

namespace hiergat {
namespace serve {

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Opens a Session per `options` and publishes it under `name`,
  /// replacing (hot-swapping) any existing model of that name. The
  /// serving wire format carries entity pairs, so collective sessions
  /// are rejected; `options.checkpoint_path` must be set — an untrained
  /// model has nothing to serve.
  Status LoadModel(const std::string& name, const SessionOptions& options);

  /// Hot-swaps `name` with a Session re-opened from `checkpoint_path`
  /// (empty = the model's current checkpoint, i.e. pick up an updated
  /// file in place). All other SessionOptions are retained from
  /// LoadModel. On failure the old Session keeps serving untouched.
  Status Reload(const std::string& name, const std::string& checkpoint_path);

  /// The published Session for `name`, or null when unknown. An empty
  /// name resolves to the registry's only model (null when the registry
  /// holds zero or several models — explicit names are required then).
  /// The returned shared_ptr keeps the model alive across a hot-swap
  /// for as long as the caller scores with it.
  std::shared_ptr<Session> Get(const std::string& name) const;

  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<Session> session;
    /// LoadModel's options, with checkpoint_path tracking the last
    /// successful (re)load — Reload("") re-opens from here.
    SessionOptions options;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> models_;
};

}  // namespace serve
}  // namespace hiergat

#endif  // HIERGAT_SERVE_REGISTRY_H_
