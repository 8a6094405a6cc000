// Serving throughput: QPS and latency quantiles of the matching server
// (src/serve) under concurrent single-pair clients, with dynamic
// batching off (batch size 1) versus on — the coalescing win the
// serving layer exists for. Engine thread count is held equal across
// configs, so the speedup isolates batching: a 1-pair engine job keeps
// at most one lane busy, a coalesced batch uses the whole pool.
//
// The load generator is open-loop: each client thread sends on a fixed
// schedule (HIERGAT_BENCH_SERVE_RATE total requests/sec; 0 = unpaced
// back-to-back) and, when paced, latency is measured from the
// *scheduled* send time, so a slow server cannot hide queueing delay by
// slowing the clients down (no coordinated omission).
//
// The configs are measured in alternating rounds (b1, b8d500, b32d1000,
// then the reverse order, ...) and each config's QPS comes from its
// summed rounds, so load from other processes on a shared host falls
// on every config alike and cancels out of the batching speedup.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "data/synthetic.h"
#include "er/session.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace hiergat {
namespace {

/// One config's load, summed over its rounds.
struct LoadResult {
  double wall_seconds = 0.0;
  int64_t shed = 0;
  std::vector<double> latencies;  // Every answered request, seconds.

  double qps() const {
    return static_cast<double>(latencies.size()) /
           std::max(1e-9, wall_seconds);
  }
};

/// Drives `threads` clients of single-pair score requests against the
/// server and adds the wall time, sheds and per-request latencies to
/// `result`. Client t sends pairs `first + t * requests_per_thread + r`.
void RunLoad(int port, const std::vector<EntityPair>& pairs, int threads,
             int first, int requests_per_thread, double rate_per_sec,
             LoadResult* result) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::vector<int64_t> sheds(static_cast<size_t>(threads), 0);
  const double interval_sec =
      rate_per_sec > 0 ? static_cast<double>(threads) / rate_per_sec : 0.0;

  std::vector<std::thread> clients;
  const auto start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto client_or = serve::Client::Connect("127.0.0.1", port);
      if (!client_or.ok()) {
        std::fprintf(stderr, "client connect failed: %s\n",
                     client_or.status().ToString().c_str());
        return;
      }
      std::unique_ptr<serve::Client> client = std::move(client_or).value();
      std::vector<EntityPair> one(1);
      for (int r = 0; r < requests_per_thread; ++r) {
        one[0] = pairs[static_cast<size_t>(
            (first + t * requests_per_thread + r) %
            static_cast<int>(pairs.size()))];
        auto scheduled = start;
        if (interval_sec > 0) {
          scheduled += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(r * interval_sec));
          std::this_thread::sleep_until(scheduled);
        }
        const auto sent =
            interval_sec > 0 ? std::max(scheduled, Clock::now()) : Clock::now();
        const auto measured_from = interval_sec > 0 ? scheduled : sent;
        const auto scores = client->Score("", one);
        if (!scores.ok()) {
          if (scores.status().code() == StatusCode::kResourceExhausted) {
            ++sheds[static_cast<size_t>(t)];
            continue;
          }
          std::fprintf(stderr, "score failed: %s\n",
                       scores.status().ToString().c_str());
          return;
        }
        latencies[static_cast<size_t>(t)].push_back(
            std::chrono::duration<double>(Clock::now() - measured_from)
                .count());
      }
    });
  }
  for (std::thread& c : clients) c.join();
  result->wall_seconds +=
      std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t t = 0; t < latencies.size(); ++t) {
    result->latencies.insert(result->latencies.end(), latencies[t].begin(),
                             latencies[t].end());
    result->shed += sheds[t];
  }
}

int main_impl(int argc, char** argv) {
  bench::PrintHeader(
      "Serving QPS with dynamic batching",
      "coalescing concurrent single-pair requests into engine batches "
      "multiplies server throughput at equal engine thread count");

  // A briefly trained small matcher; serving overhead and engine
  // utilization are what is measured, not match quality.
  SyntheticSpec spec;
  spec.name = "serve-bench";
  spec.num_attributes = 3;
  spec.hardness = 0.5f;
  spec.noise = 0.05f;
  spec.desc_len = 6;
  spec.seed = 2024;
  spec.num_pairs = 200;
  PairDataset data = GeneratePairDataset(spec);

  const std::string ckpt_path = "/tmp/hiergat_bench_serve_qps.ckpt";
  {
    SessionOptions train_options;
    train_options.matcher = "hiergat";
    train_options.lm_size = LmSize::kSmall;
    train_options.lm_pretrain_steps = 0;
    auto session_or = Session::Open(train_options);
    if (!session_or.ok()) {
      std::fprintf(stderr, "session open failed: %s\n",
                   session_or.status().ToString().c_str());
      return 1;
    }
    TrainOptions fit = bench::BenchTrainOptions(7);
    fit.epochs = 1;
    fit.max_train_items = 32;
    (void)session_or.value()->Train(data, fit);
    const Status saved = session_or.value()->SaveCheckpoint(ckpt_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
  }

  constexpr int kEngineThreads = 4;
  serve::ModelRegistry registry;
  {
    SessionOptions serve_options;
    serve_options.checkpoint_path = ckpt_path;
    serve_options.engine.num_threads = kEngineThreads;
    const Status loaded = registry.LoadModel("bench", serve_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "model load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }

  const int client_threads = 8;
  const int requests_per_thread = std::max(
      10, static_cast<int>(bench::IntEnv("HIERGAT_BENCH_SERVE_REQUESTS", 150) *
                           bench::Scale()));
  const double rate = static_cast<double>(
      bench::IntEnv("HIERGAT_BENCH_SERVE_RATE", 0));  // 0 = unpaced.

  struct Config {
    const char* key;
    int max_batch_size;
    int max_delay_us;
  };
  const Config configs[] = {
      {"b1", 1, 0},           // Batching off: one engine job per request.
      {"b8d500", 8, 500},     // Moderate coalescing.
      {"b32d1000", 32, 1000}, // Full coalescing under a 1ms budget.
  };

  bench::BenchResult result("serve_qps");
  result.AddParam("engine_threads", kEngineThreads);
  result.AddParam("client_threads", client_threads);
  result.AddParam("requests_per_thread", requests_per_thread);
  result.AddParam("rate_per_sec", rate);
  result.AddParam("scale", bench::Scale());

  constexpr size_t kConfigs = std::size(configs);
  std::vector<std::unique_ptr<serve::Server>> servers;
  for (const Config& config : configs) {
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.batcher.max_batch_size = config.max_batch_size;
    server_options.batcher.max_delay_us = config.max_delay_us;
    auto server_or = serve::Server::Start(&registry, server_options);
    if (!server_or.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   server_or.status().ToString().c_str());
      return 1;
    }
    servers.push_back(std::move(server_or).value());
    // Warm the summary cache (and page in the model) outside the timed
    // window.
    LoadResult warm;
    RunLoad(servers.back()->port(), data.test, client_threads, 0, 2, 0.0,
            &warm);
  }

  // Round r sends the next slice of each client's requests to every
  // config; odd rounds visit the configs in reverse order.
  constexpr int kRounds = 10;
  LoadResult loads[kConfigs];
  int sent = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int next = requests_per_thread * (round + 1) / kRounds;
    for (size_t i = 0; i < kConfigs; ++i) {
      const size_t c = round % 2 == 0 ? i : kConfigs - 1 - i;
      RunLoad(servers[c]->port(), data.test, client_threads,
              sent * client_threads, next - sent, rate, &loads[c]);
    }
    sent = next;
  }
  for (const auto& server : servers) server->Shutdown();

  bench::Table table("Serving throughput (higher QPS is better)",
                     {"config", "QPS", "p50 ms", "p95 ms", "p99 ms", "shed"});
  for (size_t c = 0; c < kConfigs; ++c) {
    const LoadResult& load = loads[c];
    const double qps = load.qps();
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    if (!load.latencies.empty()) {
      p50 = bench::PercentileOf(load.latencies, 0.5);
      p95 = bench::PercentileOf(load.latencies, 0.95);
      p99 = bench::PercentileOf(load.latencies, 0.99);
    }
    table.AddRow({configs[c].key, bench::Fmt(qps, 1),
                  bench::Fmt(p50 * 1e3, 2), bench::Fmt(p95 * 1e3, 2),
                  bench::Fmt(p99 * 1e3, 2), std::to_string(load.shed)});
    const std::string key = configs[c].key;
    result.AddMetric("qps." + key, qps);
    result.AddMetric("p50_seconds." + key, p50);
    result.AddMetric("p95_seconds." + key, p95);
    result.AddMetric("p99_seconds." + key, p99);
    result.AddMetric("shed." + key, static_cast<double>(load.shed));
  }
  table.Print();

  // The top-level latency fields come from b32d1000's full per-request
  // sample, so they match its p50_seconds/p95_seconds rows.
  const double qps_b1 = loads[0].qps();
  const double speedup = qps_b1 > 0 ? loads[1].qps() / qps_b1 : 0.0;
  result.AddMetric("batching_speedup", speedup);
  result.set_throughput(loads[2].qps());
  result.SetLatencies(loads[2].latencies);
  std::printf(
      "\ndynamic batching: b8d500 is %.2fx the QPS of batch-size-1 at "
      "%d engine threads\n",
      speedup, kEngineThreads);
  std::printf(
      "note: the coalescing win scales with free cores — a batch spreads "
      "across all engine lanes while a 1-pair job uses one; on a "
      "single-core host only the amortized dispatch overhead remains.\n");

  if (!bench::WriteBenchJson(bench::JsonOutPath(argc, argv), result)) {
    return 1;
  }
  std::remove(ckpt_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hiergat

int main(int argc, char** argv) { return hiergat::main_impl(argc, argv); }
