// Product matching end to end: raw source tables -> keyword blocking ->
// labeled training pairs -> model comparison (the full Figure 5
// pipeline, including the Blocker stage the experiment harnesses skip).
// Each matcher is opened by name as an er::Session, and the surviving
// candidates are scored in one batch through the session's engine.

#include <cstdio>
#include <map>

#include "er/er.h"

using namespace hiergat;  // Example code; library code never does this.

int main() {
  // Two raw product catalogs with a gold mapping between them.
  SyntheticSpec spec;
  spec.name = "shop-matching";
  spec.num_attributes = 3;
  spec.hardness = 0.6f;
  spec.noise = 0.06f;
  spec.seed = 21;
  const TwoTableDataset raw = GenerateTwoTable(spec, 120, 360);
  std::printf("table A: %zu rows, table B: %zu rows, gold matches: %zu\n",
              raw.table_a.size(), raw.table_b.size(), raw.matches.size());

  // Blocking: keep pairs sharing at least 3 value tokens (Figure 5's
  // key-word filtering blocker), then report pruning power and recall.
  const auto candidates = KeywordBlock(raw.table_a, raw.table_b, 3);
  const float recall = BlockingRecall(candidates, raw.matches);
  std::printf(
      "blocking: %zu candidates of %zu possible (%.1f%% pruned), "
      "recall %.1f%%\n",
      candidates.size(), raw.table_a.size() * raw.table_b.size(),
      100.0 * (1.0 - static_cast<double>(candidates.size()) /
                         static_cast<double>(raw.table_a.size() *
                                             raw.table_b.size())),
      100.0 * recall);

  // Label the surviving candidates with the gold mapping and split.
  std::map<int, int> gold(raw.matches.begin(), raw.matches.end());
  std::vector<EntityPair> pairs;
  for (const auto& [a, b] : candidates) {
    EntityPair pair;
    pair.left = raw.table_a[static_cast<size_t>(a)];
    pair.right = raw.table_b[static_cast<size_t>(b)];
    const auto it = gold.find(a);
    pair.label = (it != gold.end() && it->second == b) ? 1 : 0;
    pairs.push_back(std::move(pair));
  }
  PairDataset data;
  data.name = spec.name;
  const size_t train_end = pairs.size() * 3 / 5;
  const size_t valid_end = pairs.size() * 4 / 5;
  data.train.assign(pairs.begin(), pairs.begin() + train_end);
  data.valid.assign(pairs.begin() + train_end, pairs.begin() + valid_end);
  data.test.assign(pairs.begin() + valid_end, pairs.end());
  std::printf("matching dataset: %d pairs, %d positive\n", data.TotalSize(),
              data.PositiveCount());

  // Export the blocked pairs so they can be re-used outside the demo.
  const Status status = WritePairsCsv("/tmp/product_pairs.csv", data.train);
  std::printf("exported training pairs: %s\n", status.ToString().c_str());

  // Compare a classical and a neural matcher on the same data, each
  // opened by name as a Session and evaluated through its engine so
  // scoring uses the batched inference path.
  TrainOptions options;
  options.epochs = 8;

  SessionOptions session_options;
  session_options.lm_size = LmSize::kSmall;
  session_options.lm_pretrain_steps = 1500;
  session_options.engine.num_threads = 4;
  for (const char* name : {"magellan", "hiergat"}) {
    session_options.matcher = name;
    auto session_or = Session::Open(session_options);
    if (!session_or.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   session_or.status().ToString().c_str());
      return 1;
    }
    Session& session = *session_or.value();
    const Status trained = session.Train(data, options);
    if (!trained.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, trained.ToString().c_str());
      return 1;
    }
    std::printf("\n%s: %s\n", session.model()->name().c_str(),
                session.Evaluate(data.test).ToString().c_str());
  }
  return 0;
}
