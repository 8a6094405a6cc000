// Quickstart: train HierGAT on a small product benchmark and match two
// entities.
//
//   $ ./examples/quickstart
//
// Walks the full public API through the er.h umbrella header: generate
// (or load) a dataset, open an er::Session (model + inference engine +
// compiled scoring graphs behind one options struct), train it,
// batch-score candidates, and evaluate F1.

#include <cstdio>

#include "er/er.h"
#include "obs/metrics.h"

using namespace hiergat;  // Example code; library code never does this.

int main() {
  // 1. Data: a small synthetic product-matching benchmark with a 3:1:1
  //    train/validation/test split. Swap in ReadPairsCsv() to use your
  //    own labeled pairs.
  SyntheticSpec spec;
  spec.name = "quickstart";
  spec.num_pairs = 300;
  spec.num_attributes = 3;  // title / brand / description.
  spec.hardness = 0.5f;
  spec.noise = 0.05f;
  spec.seed = 1;
  const PairDataset data = GeneratePairDataset(spec);
  std::printf("dataset: %d pairs (%d positive), schema of %d attributes\n",
              data.TotalSize(), data.PositiveCount(), data.NumAttributes());

  // 2. Session: pairwise HierGAT with the small MiniLM backbone plus a
  //    4-lane inference engine, in one call. The backbone is
  //    pre-trained on the dataset's unlabeled text, then the whole
  //    stack fine-tunes end-to-end; TrainOptions::seed drives both
  //    stages. Set options.checkpoint_path to resume a saved model
  //    instead of training.
  SessionOptions session_options;
  session_options.matcher = "hiergat";
  session_options.lm_size = LmSize::kSmall;
  session_options.lm_pretrain_steps = 1500;
  session_options.engine.num_threads = 4;
  auto session_or = Session::Open(session_options);
  if (!session_or.ok()) {
    std::fprintf(stderr, "Session::Open failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Session> session = std::move(session_or).value();

  TrainOptions options;
  options.epochs = 8;
  options.verbose = true;
  if (const Status status = session->Train(data, options); !status.ok()) {
    std::fprintf(stderr, "train failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // 3. Evaluate on the held-out test pairs.
  const EvalResult result = session->Evaluate(data.test);
  std::printf("\ntest metrics: %s\n", result.ToString().c_str());

  // 4. Batch-score the test pairs — the production path for blocker
  //    output. The session routes through its engine (thread pool
  //    + summary cache) and the compiled scoring graphs
  //    (DESIGN.md §11); repeated same-shape batches replay planned
  //    arena graphs instead of re-running eager ops.
  const std::vector<float> probabilities = session->Score(data.test);

  const EntityPair& pair = data.test.front();
  std::printf("\nentity A: %s\nentity B: %s\n",
              pair.left.Serialize().c_str(), pair.right.Serialize().c_str());
  std::printf("P(match) = %.3f   (gold label: %d)\n", probabilities.front(),
              pair.label);

  // 5. Observability: every stage above recorded metrics (cache hit
  //    rate, compiled-graph replays, batch latency,
  //    training telemetry). Export them Prometheus-style; see
  //    DESIGN.md §8.
  std::printf("\n--- metrics (Prometheus exposition) ---\n%s",
              obs::MetricsRegistry::Global().PrometheusText().c_str());
  return 0;
}
