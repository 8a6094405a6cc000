#include "e2e_metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace hiergat {
namespace e2e {
namespace {

std::vector<int> RandomPartition(std::mt19937& rng, int n, int labels) {
  std::uniform_int_distribution<int> pick(0, labels - 1);
  std::vector<int> partition(static_cast<size_t>(n));
  for (int& label : partition) label = pick(rng);
  return partition;
}

TEST(ClusterPairCounts, MatchesBruteForcePairEnumeration) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + trial % 40;
    const std::vector<int> predicted =
        RandomPartition(rng, n, 1 + trial % 7);
    const std::vector<int> gold = RandomPartition(rng, n, 1 + trial % 11);
    PairCounts brute;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const bool p = predicted[static_cast<size_t>(i)] ==
                       predicted[static_cast<size_t>(j)];
        const bool g =
            gold[static_cast<size_t>(i)] == gold[static_cast<size_t>(j)];
        brute.predicted_pairs += p;
        brute.gold_pairs += g;
        brute.true_pairs += p && g;
      }
    }
    const PairCounts fast = ClusterPairCounts(predicted, gold);
    EXPECT_EQ(fast.true_pairs, brute.true_pairs);
    EXPECT_EQ(fast.predicted_pairs, brute.predicted_pairs);
    EXPECT_EQ(fast.gold_pairs, brute.gold_pairs);
    EXPECT_DOUBLE_EQ(fast.F1(), brute.F1());
  }
}

TEST(ClusterPairCounts, OneGiantClusterHasLowPrecision) {
  // Union-find chaining every record together: all gold pairs are
  // found, and precision is gold pairs over all C(n, 2) pairs.
  const std::vector<int> predicted(6, 0);
  const std::vector<int> gold = {0, 0, 1, 1, 2, 2};
  const PairCounts counts = ClusterPairCounts(predicted, gold);
  EXPECT_EQ(counts.true_pairs, 3);
  EXPECT_EQ(counts.predicted_pairs, 15);
  EXPECT_EQ(counts.gold_pairs, 3);
  EXPECT_DOUBLE_EQ(counts.F1(), 2.0 * 3 / 18);
}

TEST(UnionFind, LabelsFollowUnions) {
  UnionFind clusters(5);
  clusters.Union(0, 3);
  clusters.Union(3, 4);
  const std::vector<int> labels = clusters.Labels();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[0], labels[4]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[2]);
}

TEST(BandRecall, AccumulatesAcrossBands) {
  // 10 gold pairs; gold hits land in bands 0, 0, 1, 3 (band 2 empty).
  const std::vector<double> recall =
      CumulativeBandRecall({0, 1, 0, 3}, 4, 10);
  ASSERT_EQ(recall.size(), 4u);
  EXPECT_DOUBLE_EQ(recall[0], 0.2);
  EXPECT_DOUBLE_EQ(recall[1], 0.3);
  EXPECT_DOUBLE_EQ(recall[2], 0.3);
  EXPECT_DOUBLE_EQ(recall[3], 0.4);
}

TEST(Latency, SummaryCountsSamples) {
  std::vector<double> values;
  for (int i = 1; i <= 2000; ++i) values.push_back(i);
  const LatencySummary summary = SummarizeLatencies(values);
  EXPECT_EQ(summary.samples, 2000u);
  EXPECT_DOUBLE_EQ(summary.p50, 1000.5);
  EXPECT_NEAR(summary.p95, 1900.05, 1e-9);
  // 1901..2000 lie above the p95.
  EXPECT_EQ(summary.beyond_p95, 100u);

  const LatencySummary empty = SummarizeLatencies({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.beyond_p95, 0u);
}

constexpr uint64_t kMs = 1'000'000;

TEST(HostSpeed, ScalesByTheProbesAroundAnInterval) {
  // Reference probe 2 ms. Probes of 2 ms at 0 ms, 4 ms at 100 ms, 2 ms
  // at 200 ms: the host ran at full speed, then half, then full.
  HostSpeed speed(0.002);
  speed.Add(0, 2 * kMs);
  speed.Add(100 * kMs, 104 * kMs);
  speed.Add(200 * kMs, 202 * kMs);
  // 98 ms between the first two probes: mean probe 3 ms.
  EXPECT_NEAR(speed.ReferenceSeconds(2 * kMs, 100 * kMs), 0.098 * 2 / 3,
              1e-12);
  // An interval spanning a probe uses the probes outside it.
  EXPECT_NEAR(speed.ReferenceSeconds(50 * kMs, 150 * kMs), 0.1, 1e-12);
  // Before the first probe or after the last: the one probe there is.
  EXPECT_NEAR(speed.ReferenceSeconds(300 * kMs, 310 * kMs), 0.01, 1e-12);
  EXPECT_NEAR(speed.ProbeSecondsWithin(0, 150 * kMs), 0.006, 1e-12);
  EXPECT_DOUBLE_EQ(speed.MedianSlowdown(), 1.0);
}

TEST(HostSpeed, WithoutProbesGivesWallSeconds) {
  const HostSpeed speed(0.002);
  EXPECT_NEAR(speed.ReferenceSeconds(0, 30 * kMs), 0.03, 1e-12);
}

}  // namespace
}  // namespace e2e
}  // namespace hiergat
