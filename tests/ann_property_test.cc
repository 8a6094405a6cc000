#include "blocking/ann_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/embed_blocker.h"
#include "core/rng.h"
#include "data/synthetic.h"

namespace hiergat {
namespace {

/// Clustered unit-ish vectors: `num_clusters` random centers, each point
/// a center plus noise — the shape real embedding spaces have, and the
/// regime where ANN recall is meaningful (uniform random vectors make
/// every neighbor equally far).
std::vector<std::vector<float>> ClusteredVectors(int n, int dim,
                                                 int num_clusters,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(
      static_cast<size_t>(num_clusters));
  for (auto& c : centers) {
    c.resize(static_cast<size_t>(dim));
    for (float& v : c) v = rng.NextFloat(-1.0f, 1.0f);
  }
  std::vector<std::vector<float>> points(static_cast<size_t>(n));
  for (auto& p : points) {
    const auto& c = centers[rng.NextUint64(static_cast<uint64_t>(num_clusters))];
    p.resize(static_cast<size_t>(dim));
    for (int i = 0; i < dim; ++i) {
      p[static_cast<size_t>(i)] =
          c[static_cast<size_t>(i)] + rng.NextFloat(-0.15f, 0.15f);
    }
  }
  return points;
}

/// Fraction of brute-force top-k ids that Search reproduces, averaged
/// over `num_queries` held-out probes.
float RecallAtK(const AnnIndex& index,
                const std::vector<std::vector<float>>& queries, int k) {
  int hit = 0, total = 0;
  for (const auto& q : queries) {
    const auto approx = index.Search(q, k);
    const auto exact = index.SearchBruteForce(q, k);
    std::set<int64_t> approx_ids;
    for (const auto& h : approx) approx_ids.insert(h.id);
    for (const auto& h : exact) {
      hit += approx_ids.count(h.id) ? 1 : 0;
      ++total;
    }
  }
  return total == 0 ? 1.0f : static_cast<float>(hit) / static_cast<float>(total);
}

AnnIndexOptions SmallOptions(int dim, int shards) {
  AnnIndexOptions options;
  options.dim = dim;
  options.num_shards = shards;
  return options;
}

TEST(AnnPropertyTest, RecallMatchesBruteForceAcrossConfigs) {
  // The headline property: recall@10 vs exact search stays high across
  // dimension and shard-count permutations, with fixed seeds.
  for (const int dim : {8, 32}) {
    for (const int shards : {1, 3}) {
      AnnIndex index(SmallOptions(dim, shards));
      const auto points = ClusteredVectors(1500, dim, 20, 101 + dim + shards);
      for (size_t i = 0; i < points.size(); ++i) {
        index.Insert(static_cast<int64_t>(i), points[i]);
      }
      const auto queries =
          ClusteredVectors(60, dim, 20, 101 + dim + shards);  // Same centers.
      const float recall = RecallAtK(index, queries, 10);
      EXPECT_GE(recall, kAnnMinRecall) << "dim=" << dim << " shards=" << shards;
      EXPECT_TRUE(index.CheckInvariants().ok())
          << index.CheckInvariants().ToString();
    }
  }
}

TEST(AnnPropertyTest, InsertOrderPermutationsKeepRecallBand) {
  const int dim = 16;
  const auto points = ClusteredVectors(1200, dim, 15, 202);
  const auto queries = ClusteredVectors(50, dim, 15, 202);
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(7);
  for (int permutation = 0; permutation < 3; ++permutation) {
    AnnIndex index(SmallOptions(dim, 2));
    for (const size_t i : order) {
      index.Insert(static_cast<int64_t>(i), points[i]);
    }
    EXPECT_GE(RecallAtK(index, queries, 10), kAnnMinRecall)
        << "permutation " << permutation;
    EXPECT_TRUE(index.CheckInvariants().ok());
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUint64(i)]);
    }
  }
}

TEST(AnnPropertyTest, GraphInvariantsHoldWhileGrowing) {
  // Bidirectional links, layer shape, and entry-point reachability must
  // hold at every growth stage, not just at the end.
  AnnIndex index(SmallOptions(12, 2));
  const auto points = ClusteredVectors(600, 12, 8, 303);
  for (size_t i = 0; i < points.size(); ++i) {
    index.Insert(static_cast<int64_t>(i), points[i]);
    if (i % 97 == 0 || i + 1 == points.size()) {
      const Status status = index.CheckInvariants();
      ASSERT_TRUE(status.ok()) << "after " << (i + 1)
                               << " inserts: " << status.ToString();
    }
  }
  EXPECT_EQ(index.size(), 600);
}

TEST(AnnPropertyTest, DeterministicUnderFixedSeeds) {
  const int dim = 16;
  const auto points = ClusteredVectors(800, dim, 10, 404);
  auto queries = ClusteredVectors(20, dim, 10, 404);
  // Every inserted vector is a query too, so the two graphs must agree
  // wherever a search can start, not only around the cluster probes.
  queries.insert(queries.end(), points.begin(), points.end());
  AnnIndex a(SmallOptions(dim, 3));
  AnnIndex b(SmallOptions(dim, 3));
  for (size_t i = 0; i < points.size(); ++i) {
    a.Insert(static_cast<int64_t>(i), points[i]);
    b.Insert(static_cast<int64_t>(i), points[i]);
  }
  for (const auto& q : queries) {
    const auto ha = a.Search(q, 10);
    const auto hb = b.Search(q, 10);
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id);
      EXPECT_EQ(ha[i].similarity, hb[i].similarity);
    }
  }
}

/// FNV-1a over the result ids (and counts) of Search(q, 10) for every
/// query.
uint64_t SearchIdHash(const AnnIndex& index,
                      const std::vector<std::vector<float>>& queries) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& q : queries) {
    const auto hits = index.Search(q, 10);
    mix(hits.size());
    for (const auto& hit : hits) mix(static_cast<uint64_t>(hit.id));
  }
  return hash;
}

TEST(AnnPropertyTest, PinnedSearchIdsAcrossDotTailsAndDegrees) {
  // Graph construction and the int8 walk are pure functions of the seed
  // and the insert order, every int8 dot is an exact integer, and the
  // float rerank sums in one fixed order on every backend, so the result
  // ids are pinned constants under every HIERGAT_BACKEND and host.
  // dim 33 and 100 run the vector loops with scalar tails (the int8
  // dot's 32-byte chunks, the rerank's 16 lanes and its half block), 128
  // is the bench shape; M 2 and 3
  // keep lists full so every insert shrinks some list (and re-victimizes
  // when the dropped node has one link left), M 24 is the bench degree.
  // Every 5th point duplicates an earlier one (exact similarity ties,
  // broken by slot) and every 97th is all-zero.
  struct Config {
    int dim;
    int m;
    uint64_t expected;
  };
  const Config configs[] = {
      {33, 2, 0x1bf6b810f265b39eULL},   {33, 3, 0xf546a74e5d801869ULL},
      {33, 24, 0x0ae1fedaec646fa0ULL},  {100, 2, 0x425fded1f33cd713ULL},
      {100, 3, 0x07928b16360937a6ULL},  {100, 24, 0xdae4ebc9bddbf1e8ULL},
      {128, 2, 0x60385bb03bdab1b2ULL},  {128, 3, 0xb4b9bbce4cbca2dbULL},
      {128, 24, 0x47cd80045be223d5ULL},
  };
  constexpr int kPoints = 1200;
  constexpr int kQueries = 80;
  for (const Config& config : configs) {
    auto points = ClusteredVectors(kPoints + kQueries, config.dim, 12,
                                   900 + static_cast<uint64_t>(config.dim));
    for (int i = 0; i < kPoints; ++i) {
      auto& p = points[static_cast<size_t>(i)];
      if (i % 97 == 96) {
        std::fill(p.begin(), p.end(), 0.0f);
      } else if (i % 5 == 4) {
        p = points[static_cast<size_t>(i / 2)];
      }
    }
    std::vector<std::vector<float>> queries(points.begin() + kPoints,
                                            points.end());
    for (int i = 0; i < kPoints; i += 61) {
      queries.push_back(points[static_cast<size_t>(i)]);
    }
    queries.push_back(std::vector<float>(static_cast<size_t>(config.dim)));
    AnnIndexOptions options = SmallOptions(config.dim, 2);
    options.max_neighbors = config.m;
    options.ef_construction = 64;
    AnnIndex index(options);
    for (int i = 0; i < kPoints; ++i) {
      index.Insert(i, points[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(SearchIdHash(index, queries), config.expected)
        << "dim=" << config.dim << " M=" << config.m << " got 0x" << std::hex
        << SearchIdHash(index, queries);
  }
}

TEST(AnnPropertyTest, IncrementalInsertMatchesBatchRecallBand) {
  // Satellite: interleaved Insert() + query must land in the same
  // recall band as a batch build over the same records — inserts after
  // queries must not degrade the graph.
  const int dim = 16;
  const auto points = ClusteredVectors(1000, dim, 12, 505);
  const auto queries = ClusteredVectors(40, dim, 12, 505);

  AnnIndex batch(SmallOptions(dim, 2));
  for (size_t i = 0; i < points.size(); ++i) {
    batch.Insert(static_cast<int64_t>(i), points[i]);
  }

  AnnIndex interleaved(SmallOptions(dim, 2));
  for (size_t i = 0; i < points.size(); ++i) {
    interleaved.Insert(static_cast<int64_t>(i), points[i]);
    if (i % 50 == 0) {
      // Query mid-build; results just have to be well-formed.
      const auto hits = interleaved.Search(queries[(i / 50) % queries.size()], 5);
      EXPECT_LE(hits.size(), 5u);
    }
  }

  const float batch_recall = RecallAtK(batch, queries, 10);
  const float interleaved_recall = RecallAtK(interleaved, queries, 10);
  EXPECT_GE(batch_recall, kAnnMinRecall);
  EXPECT_GE(interleaved_recall, kAnnMinRecall);
  EXPECT_NEAR(batch_recall, interleaved_recall, 0.05f);
  EXPECT_TRUE(interleaved.CheckInvariants().ok());
}

TEST(AnnPropertyTest, ConcurrentReadersDuringInsertStream) {
  // Satellite (TSan target): readers overlap a writer. Every hit a
  // reader sees must be a valid already-inserted id; no crashes, no
  // races. The per-shard reader/writer lock is the thing under test.
  const int dim = 8;
  AnnIndex index(SmallOptions(dim, 2));
  const auto points = ClusteredVectors(800, dim, 8, 606);
  // Seed the index so readers always have something to search.
  for (size_t i = 0; i < 100; ++i) {
    index.Insert(static_cast<int64_t>(i), points[i]);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(700 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const auto& q = points[rng.NextUint64(points.size())];
        for (const auto& hit : index.Search(q, 5)) {
          if (hit.id < 0 || hit.id >= 800) bad_hits.fetch_add(1);
        }
      }
    });
  }
  for (size_t i = 100; i < points.size(); ++i) {
    index.Insert(static_cast<int64_t>(i), points[i]);
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad_hits.load(), 0);
  EXPECT_EQ(index.size(), 800);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(AnnPropertyTest, EdgeCases) {
  AnnIndex index(SmallOptions(4, 2));
  // Empty index: no hits, invariants hold.
  EXPECT_TRUE(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 5).empty());
  EXPECT_TRUE(index.CheckInvariants().ok());
  index.Insert(42, {1.0f, 0.0f, 0.0f, 0.0f});
  index.Insert(7, {0.0f, 0.0f, 0.0f, 0.0f});  // Zero vector is storable.
  index.Insert(9, {0.9f, 0.1f, 0.0f, 0.0f});
  EXPECT_TRUE(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 0).empty());
  // Exclude drops exactly the requested id.
  const auto hits = index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 3, /*exclude=*/42);
  for (const auto& h : hits) EXPECT_NE(h.id, 42);
  // n larger than the index returns everything.
  EXPECT_EQ(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 100).size(), 3u);
  // Ties break by ascending id (duplicate vectors under distinct ids).
  AnnIndex ties(SmallOptions(4, 1));
  ties.Insert(5, {1.0f, 0.0f, 0.0f, 0.0f});
  ties.Insert(3, {1.0f, 0.0f, 0.0f, 0.0f});
  const auto tied = ties.Search({1.0f, 0.0f, 0.0f, 0.0f}, 2);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied[0].id, 3);
  EXPECT_EQ(tied[1].id, 5);
  // Any non-negative id is storable, up to the largest int64_t.
  AnnIndex wide(SmallOptions(4, 2));
  const int64_t big = int64_t{1} << 47;
  const int64_t max = std::numeric_limits<int64_t>::max();
  wide.Insert(big, {0.0f, 0.0f, 1.0f, 0.0f});
  wide.Insert(max, {0.0f, 0.0f, 0.0f, 1.0f});
  const auto big_hits = wide.Search({0.0f, 0.0f, 1.0f, 0.0f}, 1);
  ASSERT_EQ(big_hits.size(), 1u);
  EXPECT_EQ(big_hits[0].id, big);
  const auto max_hits = wide.Search({0.0f, 0.0f, 0.0f, 1.0f}, 1);
  ASSERT_EQ(max_hits.size(), 1u);
  EXPECT_EQ(max_hits[0].id, max);
}

TEST(AnnPropertyTest, NonFiniteInputIsRefused) {
  // A hostile vector gets a Status, never a stored NaN; a hostile query
  // gets no hits, never a NaN similarity.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  AnnIndex index(SmallOptions(4, 2));
  for (int i = 0; i < 20; ++i) {
    const float x = static_cast<float>(i);
    ASSERT_TRUE(index.Insert(i, {1.0f, x, 0.5f, -x}).ok());
  }
  for (const std::vector<float>& bad :
       std::vector<std::vector<float>>{{nan, 0.0f, 0.0f, 0.0f},
                                       {0.0f, inf, 0.0f, 0.0f},
                                       {0.0f, 0.0f, -inf, 0.0f}}) {
    const Status status = index.Insert(100, bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(index.size(), 20);
    EXPECT_TRUE(index.CheckInvariants().ok());
    EXPECT_TRUE(index.Search(bad, 3).empty());
    EXPECT_TRUE(index.SearchBruteForce(bad, 3).empty());
  }
  EXPECT_EQ(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 3).size(), 3u);
}

TEST(AnnPropertyTest, QuantizeNeverEmitsMinus128) {
  // The AVX2 int8 dot negates and takes absolute values of bytes, which
  // -128 does not survive; components a hair above 1 (a normalization
  // that rounds up) and far above it must still land in [-127, 127].
  const float above_one = std::nextafter(1.0f, 2.0f);
  const std::vector<float> values = {
      1.0f,   above_one, 1.0039f,  1.004f,  1.5f,   1e30f,
      -1.0f, -above_one, -1.0039f, -1.004f, -1.5f, -1e30f,
      0.5f / 127.0f, -0.5f / 127.0f, 0.0f};
  const std::vector<int8_t> expected = {127,  127,  127,  127,  127,  127,
                                        -127, -127, -127, -127, -127, -127,
                                        1,    -1,   0};
  std::vector<int8_t> q(values.size());
  AnnIndex::Quantize(values.data(), static_cast<int>(values.size()),
                     q.data());
  EXPECT_EQ(q, expected);
  // Every float from 1 up to the first 127 * v that rounds away from
  // 127, and its negation.
  std::vector<float> near_one;
  for (float v = 1.0f; v * 127.0f < 127.5f; v = std::nextafter(v, 2.0f)) {
    near_one.push_back(v);
    near_one.push_back(-v);
  }
  ASSERT_GT(near_one.size(), 1000u);
  std::vector<int8_t> near_q(near_one.size());
  AnnIndex::Quantize(near_one.data(), static_cast<int>(near_one.size()),
                     near_q.data());
  for (size_t i = 0; i < near_one.size(); ++i) {
    ASSERT_EQ(near_q[i], near_one[i] > 0 ? 127 : -127) << near_one[i];
  }
}

Entity MakeEntity(const std::string& title) {
  Entity e;
  e.Add("title", title);
  return e;
}

TEST(EmbedBlockerTest, FindsNearDuplicatesOnSyntheticTables) {
  SyntheticSpec spec;
  spec.name = "embed";
  spec.seed = 91;
  TwoTableDataset raw = GenerateTwoTable(spec, 120, 360);
  EmbedBlockOptions options;
  options.top_n = 10;
  EmbedBlocker blocker(options);
  blocker.AddAll(raw.table_b);
  std::vector<std::pair<int, int>> candidates;
  for (size_t qi = 0; qi < raw.table_a.size(); ++qi) {
    for (const auto& hit : blocker.TopN(raw.table_a[qi], options.top_n)) {
      candidates.emplace_back(static_cast<int>(qi),
                              static_cast<int>(hit.id));
    }
  }
  EXPECT_GE(BlockingRecall(candidates, raw.matches), 0.95f);
}

TEST(EmbedBlockerTest, ProgressiveBandsDescendAndCoverEverything) {
  SyntheticSpec spec;
  spec.name = "prog";
  spec.seed = 93;
  TwoTableDataset raw = GenerateTwoTable(spec, 80, 240);
  EmbedBlockOptions options;
  options.top_n = 8;
  options.bands = 4;
  EmbedBlocker blocker(options);
  blocker.AddAll(raw.table_b);
  ProgressiveCandidates stream(blocker, raw.table_a, options);
  float previous_floor = 2.0f;
  float previous_min_sim = 2.0f;
  int emitted = 0, batches = 0;
  while (!stream.Done()) {
    const auto batch = stream.NextBatch();
    const float floor = stream.band_floors()[static_cast<size_t>(batches)];
    EXPECT_LT(floor, previous_floor) << "floors must strictly descend";
    float batch_max = -2.0f;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GE(batch[i].similarity, floor - 1e-6f);
      // A later band never out-scores an earlier band's weakest pair.
      EXPECT_LE(batch[i].similarity, previous_min_sim + 1e-6f);
      if (i > 0) {
        EXPECT_LE(batch[i].similarity, batch[i - 1].similarity)
            << "within a band, pairs are sorted best-first";
      }
      batch_max = std::max(batch_max, batch[i].similarity);
    }
    if (!batch.empty()) {
      previous_min_sim = batch.back().similarity;
    }
    previous_floor = floor;
    emitted += static_cast<int>(batch.size());
    ++batches;
  }
  EXPECT_EQ(batches, options.bands);
  EXPECT_EQ(emitted, stream.total_pairs());
  EXPECT_EQ(emitted, static_cast<int>(raw.table_a.size()) * options.top_n);
  EXPECT_TRUE(stream.NextBatch().empty()) << "exhausted stream stays empty";
}

TEST(EmbedBlockerTest, EmbedderIsDeterministicAndNormalized) {
  HashedNgramEmbedder embedder(32);
  const Entity e = MakeEntity("acme widget mk100 deluxe");
  const auto a = embedder(e);
  const auto b = embedder(e);  // Second call hits the word cache.
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);
  float norm = 0.0f;
  for (const float v : a) norm += v * v;
  EXPECT_NEAR(norm, 1.0f, 1e-4f);
  // No tokens -> zero vector, not NaN.
  const auto zero = embedder(Entity());
  for (const float v : zero) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace hiergat
