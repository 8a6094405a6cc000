// Tests for the serving layer (src/serve): wire-format round-trips and
// hostile-input rejection, registry hot-swap under concurrent scoring
// load, dynamic-batcher coalescing correctness and batch window,
// admission-control sheds, and an end-to-end framed-TCP + HTTP-shim
// smoke against a real server on an ephemeral port. Runs under the TSan
// preset (ctest -L serve) — the registry swap, batcher, and server
// teardown are the interesting race surfaces.

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/status.h"
#include "data/entity.h"
#include "er/session.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace hiergat {
namespace serve {
namespace {

#ifndef HIERGAT_FIXTURE_DIR
#error "HIERGAT_FIXTURE_DIR must point at tests/fixtures"
#endif

std::string FixtureCheckpoint() {
  return std::string(HIERGAT_FIXTURE_DIR) + "/hiergat_small.ckpt";
}

Entity MakeEntity(const std::string& id, const std::string& name,
                  const std::string& desc) {
  Entity entity;
  entity.Add("id", id);
  entity.Add("name", name);
  entity.Add("description", desc);
  return entity;
}

std::vector<EntityPair> MakePairs(int n) {
  std::vector<EntityPair> pairs;
  for (int i = 0; i < n; ++i) {
    EntityPair pair;
    pair.left = MakeEntity("a" + std::to_string(i), "acme pump " + std::to_string(i),
                           "industrial water pump model " + std::to_string(i));
    pair.right = MakeEntity("b" + std::to_string(i), "acme pump " + std::to_string(i),
                            "water pump industrial model " + std::to_string(i));
    pair.label = 1;
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

SessionOptions FixtureSessionOptions(int threads = 2) {
  SessionOptions options;
  options.checkpoint_path = FixtureCheckpoint();
  options.engine.num_threads = threads;
  return options;
}

// --- Wire format -----------------------------------------------------

TEST(WireTest, ScoreRequestRoundTrips) {
  Request request;
  request.type = MessageType::kScore;
  request.trace_id = 0xabcdef0123456789ull;
  request.score.model = "prod";
  request.score.pairs = MakePairs(3);

  const std::string payload = EncodeRequest(request);
  const StatusOr<Request> decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, MessageType::kScore);
  EXPECT_EQ(decoded.value().trace_id, request.trace_id);
  EXPECT_EQ(decoded.value().score.model, "prod");
  ASSERT_EQ(decoded.value().score.pairs.size(), 3u);
  EXPECT_EQ(decoded.value().score.pairs[2].left.Get("id"), "a2");
  EXPECT_EQ(decoded.value().score.pairs[2].right.Get("name"), "acme pump 2");
  // Labels deliberately do not travel (serving is inference-only).
  EXPECT_EQ(decoded.value().score.pairs[0].label, 0);
}

TEST(WireTest, ReloadAndPingRoundTrip) {
  Request reload;
  reload.type = MessageType::kReload;
  reload.reload.model = "prod";
  reload.reload.checkpoint_path = "/models/v2.ckpt";
  const StatusOr<Request> decoded = DecodeRequest(EncodeRequest(reload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().reload.checkpoint_path, "/models/v2.ckpt");

  Request ping;
  ping.type = MessageType::kPing;
  EXPECT_TRUE(DecodeRequest(EncodeRequest(ping)).ok());
}

TEST(WireTest, ResponseRoundTrips) {
  Response response;
  response.status = WireStatus::kResourceExhausted;
  response.trace_id = 42;
  response.message = "admission: shed";
  response.scores = {0.25f, 0.75f};
  const StatusOr<Response> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().status, WireStatus::kResourceExhausted);
  EXPECT_EQ(decoded.value().trace_id, 42u);
  EXPECT_EQ(decoded.value().message, "admission: shed");
  EXPECT_EQ(decoded.value().scores, (std::vector<float>{0.25f, 0.75f}));
}

TEST(WireTest, TruncatedAndCorruptPayloadsAreRejectedNotUB) {
  Request request;
  request.type = MessageType::kScore;
  request.score.pairs = MakePairs(2);
  const std::string payload = EncodeRequest(request);

  // Every prefix must decode to an error, never crash or misparse.
  for (size_t len = 0; len < payload.size(); ++len) {
    const StatusOr<Request> decoded =
        DecodeRequest(std::string_view(payload.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too (a frame is exactly one payload).
  EXPECT_FALSE(DecodeRequest(payload + "x").ok());
  // Future versions are rejected instead of misparsed.
  std::string wrong_version = payload;
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(DecodeRequest(wrong_version).ok());
  // A hostile pair count larger than the payload cannot OOM.
  Request empty;
  empty.type = MessageType::kScore;
  std::string hostile = EncodeRequest(empty);
  // num_pairs u32 sits after version(2) + type(2) + trace(8) + model
  // short-string(2 + 0); overwrite it with a huge value.
  const size_t count_offset = 2 + 2 + 8 + 2;
  ASSERT_LE(count_offset + 4, hostile.size());
  hostile[count_offset] = static_cast<char>(0xff);
  hostile[count_offset + 1] = static_cast<char>(0xff);
  hostile[count_offset + 2] = static_cast<char>(0xff);
  hostile[count_offset + 3] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeRequest(hostile).ok());
}

// --- Registry --------------------------------------------------------

TEST(RegistryTest, LoadGetAndNameResolution) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get(""), nullptr);  // Empty registry.

  ASSERT_TRUE(registry.LoadModel("small", FixtureSessionOptions()).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.Get("small"), nullptr);
  // Empty name resolves to the only model...
  EXPECT_EQ(registry.Get(""), registry.Get("small"));
  EXPECT_EQ(registry.Get("unknown"), nullptr);

  ASSERT_TRUE(registry.LoadModel("second", FixtureSessionOptions()).ok());
  // ...but is ambiguous once a second model is published.
  EXPECT_EQ(registry.Get(""), nullptr);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(registry.Get("second"), nullptr);
  EXPECT_NE(registry.Get("small"), nullptr);
}

TEST(RegistryTest, RejectsUntrainedAndCollectiveOptions) {
  ModelRegistry registry;
  SessionOptions no_checkpoint;
  EXPECT_FALSE(registry.LoadModel("fresh", no_checkpoint).ok());

  SessionOptions collective = FixtureSessionOptions();
  collective.collective = true;
  EXPECT_FALSE(registry.LoadModel("collective", collective).ok());
}

TEST(RegistryTest, FailedReloadKeepsOldModelServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("m", FixtureSessionOptions()).ok());
  const std::shared_ptr<Session> before = registry.Get("m");

  EXPECT_FALSE(registry.Reload("m", "/nonexistent/path.ckpt").ok());
  EXPECT_EQ(registry.Get("m"), before);  // Untouched.
  EXPECT_FALSE(registry.Reload("ghost", "").ok());  // Unknown name.
}

TEST(RegistryTest, HotSwapUnderConcurrentLoadNeverFailsOrMixesScores) {
  // The zero-downtime guarantee: N threads score continuously while the
  // model is reloaded repeatedly. Every request must succeed, and —
  // because the reload re-opens the same checkpoint — every result must
  // be bit-identical to the baseline (a half-loaded model would not be).
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("m", FixtureSessionOptions()).ok());
  const std::vector<EntityPair> pairs = MakePairs(4);
  const std::vector<float> baseline = registry.Get("m")->Score(pairs);
  ASSERT_EQ(baseline.size(), pairs.size());

  constexpr int kScorers = 4;
  constexpr int kReloads = 5;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> scored{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < kScorers; ++t) {
    scorers.emplace_back([&] {
      while (!stop.load()) {
        const std::shared_ptr<Session> session = registry.Get("m");
        if (session == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<float> scores = session->Score(pairs);
        scored.fetch_add(1);
        if (scores != baseline) failures.fetch_add(1);
      }
    });
  }

  int64_t reload_failures = 0;
  for (int r = 0; r < kReloads; ++r) {
    // Empty path = re-open the current checkpoint: a genuinely new
    // Session (fresh engine, fresh caches) with identical weights.
    if (!registry.Reload("m", "").ok()) ++reload_failures;
  }
  stop.store(true);
  for (std::thread& t : scorers) t.join();

  EXPECT_EQ(reload_failures, 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(scored.load(), 0);
}

// --- Batcher ---------------------------------------------------------

TEST(BatcherTest, ResultsMatchDirectScoringAndRequestOrder) {
  auto session_or = Session::Open(FixtureSessionOptions());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::shared_ptr<Session> session = std::move(session_or).value();

  const std::vector<EntityPair> pairs = MakePairs(6);
  const std::vector<float> direct = session->Score(pairs);

  DynamicBatcher batcher;
  // Concurrent callers with distinct (overlapping) slices coalesce;
  // each must get exactly its own slice of scores back.
  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::vector<std::vector<float>> results(kCallers);
  std::vector<Status> statuses(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::vector<EntityPair> mine = {pairs[static_cast<size_t>(t)]};
      auto result = batcher.Score(session, std::move(mine));
      statuses[static_cast<size_t>(t)] = result.status();
      if (result.ok()) results[static_cast<size_t>(t)] = result.value();
    });
  }
  for (std::thread& t : callers) t.join();
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_TRUE(statuses[static_cast<size_t>(t)].ok())
        << statuses[static_cast<size_t>(t)].ToString();
    ASSERT_EQ(results[static_cast<size_t>(t)].size(), 1u);
    EXPECT_EQ(results[static_cast<size_t>(t)][0],
              direct[static_cast<size_t>(t)])
        << "caller " << t << " got another request's score";
  }

  const DynamicBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kCallers);
  EXPECT_EQ(stats.pairs, kCallers);
  EXPECT_GE(stats.batches, 1);
}

TEST(BatcherTest, CoalescesConcurrentRequestsIntoFewerBatches) {
  auto session_or = Session::Open(FixtureSessionOptions());
  ASSERT_TRUE(session_or.ok());
  std::shared_ptr<Session> session = std::move(session_or).value();

  BatcherOptions options;
  options.max_batch_size = 64;
  options.max_delay_us = 20000;  // Generous window so CI timing can't flake.
  DynamicBatcher batcher(options);

  constexpr int kCallers = 8;
  const std::vector<EntityPair> pairs = MakePairs(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      (void)batcher.Score(session, {pairs[static_cast<size_t>(t)]});
    });
  }
  for (std::thread& t : callers) t.join();

  const DynamicBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kCallers);
  // The whole point of dynamic batching: strictly fewer dispatches than
  // requests (the 20ms window lets all pending requests coalesce).
  EXPECT_LT(stats.batches, stats.requests);
}

TEST(BatcherTest, RejectsAfterShutdownAndNullSession) {
  auto session_or = Session::Open(FixtureSessionOptions());
  ASSERT_TRUE(session_or.ok());
  std::shared_ptr<Session> session = std::move(session_or).value();

  DynamicBatcher batcher;
  EXPECT_EQ(batcher.Score(nullptr, MakePairs(1)).status().code(),
            StatusCode::kInvalidArgument);
  const auto empty = batcher.Score(session, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  batcher.Shutdown();
  EXPECT_EQ(batcher.Score(session, MakePairs(1)).status().code(),
            StatusCode::kUnavailable);
}

TEST(BatcherTest, WindowStartsAtEachRequestsOwnArrival) {
  // Two sessions, so the two requests can never share a batch.
  auto a_or = Session::Open(FixtureSessionOptions());
  auto b_or = Session::Open(FixtureSessionOptions());
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  std::shared_ptr<Session> a = std::move(a_or).value();
  std::shared_ptr<Session> b = std::move(b_or).value();
  const std::vector<EntityPair> pair = MakePairs(1);
  // Warm both so the timed calls do not compile scoring graphs.
  (void)a->Score(pair);
  (void)b->Score(pair);

  constexpr auto kWindow = std::chrono::milliseconds(200);
  BatcherOptions options;
  options.max_delay_us = 200000;
  DynamicBatcher batcher(options);

  std::thread first([&] { EXPECT_TRUE(batcher.Score(a, pair).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto arrived = std::chrono::steady_clock::now();
  EXPECT_TRUE(batcher.Score(b, pair).ok());
  const auto waited = std::chrono::steady_clock::now() - arrived;
  first.join();

  // B's window closes one window after B arrived, and A's batch ran
  // inside it. A window restarted after A's batch would keep B about
  // two windows.
  EXPECT_LT(waited, kWindow * 3 / 2);
  EXPECT_EQ(batcher.stats().batches, 2);
}

// --- Admission -------------------------------------------------------

TEST(AdmissionTest, ShedsOverQueueLimitAndCountsRejections) {
  auto session_or = Session::Open(FixtureSessionOptions());
  ASSERT_TRUE(session_or.ok());
  std::shared_ptr<Session> session = std::move(session_or).value();

  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_delay_us = 10000000;  // Only a full batch closes the window.
  options.max_pending_pairs = 4;
  DynamicBatcher batcher(options);
  obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.admission.rejected");
  const obs::Gauge& queued = obs::MetricsRegistry::Global().GetGauge(
      "hiergat.serve.batch.queue_pairs");
  const int64_t before = rejected.Value();

  // 5 pairs can never fit under a 4-pair cap.
  EXPECT_EQ(batcher.Score(session, MakePairs(5)).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.Value(), before + 1);

  // A queued 3-pair request counts against the cap until it is answered:
  // 3 + 2 > 4 sheds, 3 + 1 fills the batch and closes the window.
  std::thread leader(
      [&] { EXPECT_TRUE(batcher.Score(session, MakePairs(3)).ok()); });
  while (queued.Value() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(batcher.Score(session, MakePairs(2)).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.Value(), before + 2);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(batcher.Score(session, MakePairs(1)).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5));
  leader.join();
  EXPECT_EQ(batcher.stats().batches, 1);

  EXPECT_TRUE(batcher.Score(session, MakePairs(4)).ok());
  EXPECT_EQ(queued.Value(), 0.0);
}

// --- End-to-end ------------------------------------------------------

TEST(ServerTest, FramedScoringHttpShimReloadAndDrain) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("small", FixtureSessionOptions()).ok());
  const std::vector<EntityPair> pairs = MakePairs(3);
  const std::vector<float> expected = registry.Get("small")->Score(pairs);

  ServerOptions options;
  options.port = 0;  // Ephemeral.
  auto server_or = Server::Start(&registry, options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<Server> server = std::move(server_or).value();
  ASSERT_GT(server->port(), 0);

  // Framed protocol: ping, score (explicit + empty model name), reload.
  auto client_or = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  std::unique_ptr<Client> client = std::move(client_or).value();
  EXPECT_TRUE(client->Ping().ok());

  const auto named = client->Score("small", pairs, /*trace_id=*/77);
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named.value(), expected) << "server scores differ from local";
  const auto unnamed = client->Score("", pairs);
  ASSERT_TRUE(unnamed.ok());
  EXPECT_EQ(unnamed.value(), expected);
  EXPECT_EQ(client->Score("ghost", pairs).status().code(),
            StatusCode::kNotFound);

  // Reload over the wire, then scores still match (same checkpoint).
  EXPECT_TRUE(client->Reload("small", "").ok());
  EXPECT_FALSE(client->Reload("small", "/nonexistent.ckpt").ok());
  const auto after_reload = client->Score("small", pairs);
  ASSERT_TRUE(after_reload.ok());
  EXPECT_EQ(after_reload.value(), expected);

  // HTTP shim on the same port.
  const auto healthz = HttpGet("127.0.0.1", server->port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz.value().find("200 OK"), std::string::npos);
  const auto readyz = HttpGet("127.0.0.1", server->port(), "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_NE(readyz.value().find("200 OK"), std::string::npos);
  const auto metrics = HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("hiergat_serve_requests"),
            std::string::npos);
  const auto missing = HttpGet("127.0.0.1", server->port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing.value().find("404"), std::string::npos);

  server->Shutdown();
  const Server::Stats stats = server->stats();
  EXPECT_GE(stats.requests, 7);
  EXPECT_GE(stats.http_requests, 4);
}

TEST(ServerTest, SchemaDriftedPairIsInvalidArgumentAndServerKeepsServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("small", FixtureSessionOptions()).ok());
  const std::vector<EntityPair> valid = MakePairs(2);
  const std::vector<float> expected = registry.Get("small")->Score(valid);

  ServerOptions options;
  options.port = 0;
  auto server_or = Server::Start(&registry, options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<Server> server = std::move(server_or).value();
  auto client_or = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  std::unique_ptr<Client> client = std::move(client_or).value();

  // The fixture model was trained on three attributes (MakeEntity's).
  EntityPair both_wider = valid[0];
  both_wider.left.Add("brand", "acme");
  both_wider.right.Add("brand", "acme");
  EntityPair one_wider = valid[0];
  one_wider.right.Add("brand", "acme");
  EntityPair empty_side = valid[0];
  empty_side.left = Entity();
  for (const EntityPair& drifted : {both_wider, one_wider, empty_side}) {
    // Next to a valid pair: the whole request is refused, unscored.
    const auto scores = client->Score("small", {valid[1], drifted});
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument)
        << scores.status().ToString();
  }

  const auto after = client->Score("small", valid);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), expected);
}

TEST(ServerTest, ReadyzReports503WithNoModels) {
  ModelRegistry registry;  // Empty.
  ServerOptions options;
  options.port = 0;
  auto server_or = Server::Start(&registry, options);
  ASSERT_TRUE(server_or.ok());
  const auto readyz = HttpGet("127.0.0.1", server_or.value()->port(), "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_NE(readyz.value().find("503"), std::string::npos);
}

int MapsLineCount() {
  std::ifstream maps("/proc/self/maps");
  int lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ServerTest, FinishedConnectionsReleaseTheirThreads) {
  ModelRegistry registry;  // Health probes need no model.
  ServerOptions options;
  options.port = 0;
  auto server_or = Server::Start(&registry, options);
  ASSERT_TRUE(server_or.ok());
  const int port = server_or.value()->port();
  ASSERT_TRUE(HttpGet("127.0.0.1", port, "/healthz").ok());

  // A finished connection thread that is never joined keeps its stack
  // and guard page mapped: about 2 lines per connection.
  const int before = MapsLineCount();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(HttpGet("127.0.0.1", port, "/healthz").ok());
  }
  EXPECT_LT(MapsLineCount() - before, 50);
}

TEST(ServerTest, OverloadShedsWithExplicitResourceExhausted) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("small", FixtureSessionOptions()).ok());

  ServerOptions options;
  options.port = 0;
  options.batcher.max_pending_pairs = 1;  // Overloads immediately.
  auto server_or = Server::Start(&registry, options);
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  // Drive concurrent clients until someone is shed; the shed must be
  // the explicit RESOURCE_EXHAUSTED answer, not a timeout or a drop.
  constexpr int kClients = 4;
  std::atomic<int64_t> sheds{0};
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client_or = Client::Connect("127.0.0.1", server->port());
      if (!client_or.ok()) {
        errors.fetch_add(1);
        return;
      }
      const std::vector<EntityPair> two = MakePairs(2);
      for (int r = 0; r < 10; ++r) {
        const auto scores = client_or.value()->Score("small", two);
        if (scores.ok()) continue;
        if (scores.status().code() == StatusCode::kResourceExhausted) {
          sheds.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_GT(sheds.load(), 0) << "2-pair requests against a 1-pair cap "
                                "should always shed";
  EXPECT_EQ(errors.load(), 0);
  obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.serve.admission.rejected");
  EXPECT_GE(rejected.Value(), sheds.load());
}

}  // namespace
}  // namespace serve
}  // namespace hiergat
