#ifndef HIERGAT_ER_ER_H_
#define HIERGAT_ER_ER_H_

/// Umbrella header: the public surface of the ER system in one include.
/// Typical flow: load/generate a dataset, Session::Open(...), Train,
/// then batch-score blocker output through Session::Score (which routes
/// through the engine's thread pool). Session::Open is the one way to
/// build a matcher by name or restore one from a checkpoint; for
/// long-lived serving, put Sessions behind serve::ModelRegistry +
/// serve::Server (DESIGN.md §14).

#include "blocking/blocker.h"
#include "data/csv.h"
#include "data/entity.h"
#include "data/synthetic.h"
#include "er/baselines/deepmatcher.h"
#include "er/baselines/ditto.h"
#include "er/baselines/gnn.h"
#include "er/baselines/magellan.h"
#include "er/engine.h"
#include "er/hiergat.h"
#include "er/hiergat_plus.h"
#include "er/metrics.h"
#include "er/model.h"
#include "er/session.h"
#include "er/summary_cache.h"

#endif  // HIERGAT_ER_ER_H_
