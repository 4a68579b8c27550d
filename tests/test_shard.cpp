// Tests for the sharded serving subsystem: consistent-hash ring properties
// (uniformity, minimal remap, replica distinctness), the keep-alive
// HttpClient, and the router end to end — replication, routed predicts that
// stay bit-exact, failover on worker death, catalog-driven repair, and fleet
// metrics/readyz aggregation.
//
// Router tests use in-process workers: several (ServingRuntime, HttpServer)
// pairs in this one process, reached over real TCP. That exercises the same
// transport the production fleet uses inside one process, so the whole file
// runs under ThreadSanitizer. Real worker processes are exercised by
// test_process (ProcessLauncher + codegen_server --worker) and the bench
// harness.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "serve/shard/journal.hpp"
#include "serve/shard/process.hpp"
#include "serve/shard/ring.hpp"
#include "serve/shard/router.hpp"
#include "serve/shard/supervisor.hpp"
#include "util/base64.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"
#include "web/http_client.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::serve;
namespace json = cnn2fpga::json;

namespace {

std::string deploy_body(const std::string& name, int seed = 7) {
  return util::format(
      R"({"name": "%s", "board": "zedboard", "optimize": true, "seed": %d,
          "input": {"channels": 1, "height": 8, "width": 8},
          "layers": [
            {"type": "conv", "feature_maps_out": 2, "kernel": 3,
             "pool": {"type": "max", "kernel": 2, "step": 2}},
            {"type": "linear", "neurons": 4}
          ]})",
      name.c_str(), seed);
}

std::string predict_body(const std::string& design_id, float fill = 0.25f) {
  std::string image = "[";
  for (int i = 0; i < 64; ++i) {
    image += util::format("%s%.6f", i == 0 ? "" : ",", fill + 0.001f * static_cast<float>(i));
  }
  image += "]";
  return util::format(R"({"design_id": "%s", "image": %s})", design_id.c_str(),
                      image.c_str());
}

web::HttpRequest post(const std::string& body) {
  web::HttpRequest request;
  request.method = "POST";
  request.body = body;
  return request;
}

// ---------------------------------------------------------------------------
// Hash ring properties
// ---------------------------------------------------------------------------

std::vector<std::string> synthetic_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(util::format("design-%zx", i * 2654435761u));
  return keys;
}

TEST(Ring, SpreadsKeysRoughlyUniformly) {
  shard::HashRing ring;
  for (int w = 0; w < 4; ++w) ring.add(util::format("worker-%d", w));
  const auto keys = synthetic_keys(1000);
  std::map<std::string, int> share;
  for (const auto& key : keys) share[ring.primary(key)]++;
  ASSERT_EQ(share.size(), 4u);
  for (const auto& [worker, count] : share) {
    // Perfect balance is 250; 64 vnodes keeps every share well inside 2x.
    EXPECT_GT(count, 100) << worker;
    EXPECT_LT(count, 450) << worker;
  }
}

TEST(Ring, JoinMovesOnlyKeysTheNewWorkerOwns) {
  shard::HashRing ring;
  for (int w = 0; w < 4; ++w) ring.add(util::format("worker-%d", w));
  const auto keys = synthetic_keys(1000);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.primary(key);

  ring.add("worker-4");
  int moved = 0;
  for (const auto& key : keys) {
    const std::string after = ring.primary(key);
    if (after != before[key]) {
      ++moved;
      // The defining consistent-hashing property: a key only moves TO the
      // newcomer; ownership never shuffles between incumbents.
      EXPECT_EQ(after, "worker-4") << key;
    }
  }
  // Expected share is K/N = 200 of 1000; modulo hashing would move ~800.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 400);
}

TEST(Ring, LeaveMovesOnlyTheDepartedWorkersKeys) {
  shard::HashRing ring;
  for (int w = 0; w < 4; ++w) ring.add(util::format("worker-%d", w));
  const auto keys = synthetic_keys(1000);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.primary(key);

  ring.remove("worker-2");
  for (const auto& key : keys) {
    if (before[key] != "worker-2") {
      EXPECT_EQ(ring.primary(key), before[key]) << key;
    } else {
      EXPECT_NE(ring.primary(key), "worker-2") << key;
    }
  }
}

TEST(Ring, ReplicasAreDistinctWorkers) {
  shard::HashRing ring;
  for (int w = 0; w < 3; ++w) ring.add(util::format("worker-%d", w));
  for (const auto& key : synthetic_keys(200)) {
    const auto two = ring.replicas(key, 2);
    ASSERT_EQ(two.size(), 2u) << key;
    EXPECT_NE(two[0], two[1]) << key;
    EXPECT_EQ(two[0], ring.primary(key)) << key;
    // Asking for more replicas than workers returns every distinct worker.
    const auto all = ring.replicas(key, 5);
    EXPECT_EQ(all.size(), 3u) << key;
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), 3u) << key;
  }
}

TEST(Ring, EmptyRingAnswersEmpty) {
  shard::HashRing ring;
  EXPECT_EQ(ring.primary("anything"), "");
  EXPECT_TRUE(ring.replicas("anything", 2).empty());
}

// ---------------------------------------------------------------------------
// Keep-alive HttpClient
// ---------------------------------------------------------------------------

TEST(HttpClient, KeepAliveReusesOneConnection) {
  web::HttpServer server;
  server.route("GET", "/ping", [](const web::HttpRequest&) {
    web::HttpResponse response;
    response.body = "{\"pong\":true}";
    return response;
  });
  const int port = server.start();

  web::ClientConfig config;
  config.keep_alive = true;
  web::HttpClient client("127.0.0.1", port, config);
  for (int i = 0; i < 5; ++i) {
    const auto response = client.request("GET", "/ping");
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->status, 200) << i;
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  server.stop();
}

TEST(HttpClient, WithoutKeepAliveOpensPerRequest) {
  web::HttpServer server;
  server.route("GET", "/ping", [](const web::HttpRequest&) { return web::HttpResponse{}; });
  const int port = server.start();
  web::HttpClient client("127.0.0.1", port);  // keep_alive off by default
  ASSERT_TRUE(client.request("GET", "/ping").has_value());
  ASSERT_TRUE(client.request("GET", "/ping").has_value());
  EXPECT_EQ(client.connections_opened(), 2u);
  server.stop();
}

TEST(HttpClient, RefusedConnectionFailsPromptly) {
  const int port = shard::reserve_local_port();
  ASSERT_GT(port, 0);
  web::ClientConfig config;
  config.connect_timeout_ms = 500;
  web::HttpClient client("127.0.0.1", port, config);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request("GET", "/ping").has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);
}

TEST(HttpClient, StaleKeepAliveConnectionRetriesOnFreshSocket) {
  web::HttpServer server;
  server.route("GET", "/ping", [](const web::HttpRequest&) { return web::HttpResponse{}; });
  const int port = server.start();

  web::ClientConfig config;
  config.keep_alive = true;
  web::HttpClient client("127.0.0.1", port, config);
  ASSERT_TRUE(client.request("GET", "/ping").has_value());
  EXPECT_TRUE(client.connected());

  // Server restart severs the pooled connection; the next request must
  // silently reconnect instead of failing.
  server.stop();
  ASSERT_EQ(server.start(port), port);
  const auto response = client.request("GET", "/ping");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);
  server.stop();
}

TEST(HttpClient, NonDigitContentLengthIsATransportFailure) {
  // A one-connection server that answers every request with a canned reply,
  // so the client sees exactly the header lines under test. Only the first
  // row frames its body one way; the client refuses every other one rather
  // than guess where the body ends.
  for (const auto& [lines, accepted] : std::vector<std::pair<std::string, bool>>{
           {"Content-Length: 2", true},
           {"Content-Length: 2x", false},
           {"Content-Length: +2", false},
           {"Content-Length: -1", false},
           {"Content-Length: ", false},
           {"Content-Length: 2\r\nContent-Length: 2", false},
           {"Transfer-Encoding: chunked\r\nContent-Length: 2", false},
           {"Transfer-Encoding: identity", false},
           {"Content-Length : 2", false},
           {"Content-Length\t: 2", false},
           {"X-Note: a\r\n folded\r\nContent-Length: 2", false},
           {"Content-Length 2", false},
           {": 2\r\nContent-Length: 2", false}}) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(listener, 1), 0);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const timeval accept_timeout{5, 0};  // never hang the suite on a lost connect
    ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &accept_timeout, sizeof(accept_timeout));
    std::thread canned([listener, lines = lines] {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      char buf[4096];
      (void)::recv(fd, buf, sizeof(buf), 0);
      const std::string reply =
          "HTTP/1.1 200 OK\r\n" + lines + "\r\nConnection: close\r\n\r\nok";
      (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
    });
    web::HttpClient client("127.0.0.1", ntohs(addr.sin_port));
    const auto response = client.request("GET", "/ping");
    canned.join();
    ::close(listener);
    EXPECT_EQ(response.has_value(), accepted) << "'" << lines << "'";
    if (response) {
      EXPECT_EQ(response->body, "ok");
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram JSON: the raw buckets the fleet merge relies on
// ---------------------------------------------------------------------------

TEST(Metrics, HistogramJsonExportsSumAndRawBuckets) {
  Histogram histogram;
  histogram.record(0);
  histogram.record(3);
  histogram.record(3);
  histogram.record(1000);
  const json::Value doc = histogram.to_json();
  EXPECT_EQ(doc.get_int("count", -1), 4);
  EXPECT_EQ(doc.get_int("sum", -1), 1006);
  const json::Value* buckets = doc.find("buckets");
  ASSERT_NE(buckets, nullptr);
  std::uint64_t total = 0;
  for (const json::Value& pair : buckets->as_array()) {
    ASSERT_EQ(pair.as_array().size(), 2u);
    total += static_cast<std::uint64_t>(pair.as_array()[1].as_int());
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
}

// ---------------------------------------------------------------------------
// Router integration over real TCP (in-process workers)
// ---------------------------------------------------------------------------

/// One worker of the in-process fleet: a full serving runtime behind a real
/// HTTP listener, restartable on its reserved port to model crash + rejoin.
struct InProcWorker {
  InProcWorker() { start(); }

  void start() {
    runtime = std::make_unique<ServingRuntime>(make_config());
    server = std::make_unique<web::HttpServer>();
    install_serve_api(*server, *runtime);
    port = server->start(port);  // port 0 first time, then the same port again
  }

  /// Death: close the listener and drop all state (a fresh start() models a
  /// restarted, empty worker).
  void kill() {
    server->stop();
    server.reset();
    runtime.reset();
  }

  static ServingConfig make_config() {
    ServingConfig config;
    config.worker_threads = 2;
    return config;
  }

  std::unique_ptr<ServingRuntime> runtime;
  std::unique_ptr<web::HttpServer> server;
  int port = 0;
};

struct Fleet {
  explicit Fleet(std::size_t n, std::size_t replication = 2) {
    shard::RouterConfig config;
    config.replication = replication;
    config.probe_interval_ms = 0;  // probes only via probe_now(): deterministic
    config.worker.client.connect_timeout_ms = 500;
    config.worker.client.read_timeout_ms = 10000;
    config.worker.down_after_failures = 2;
    router = std::make_unique<shard::Router>(config);
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<InProcWorker>());
      router->add_worker(util::format("worker-%zu", i), "127.0.0.1", workers[i]->port);
    }
  }

  InProcWorker& by_id(const std::string& id) {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (util::format("worker-%zu", i) == id) return *workers[i];
    }
    ADD_FAILURE() << "unknown worker id " << id;
    return *workers[0];
  }

  std::unique_ptr<shard::Router> router;
  std::vector<std::unique_ptr<InProcWorker>> workers;
};

TEST(Router, DeployReplicatesToDistinctWorkersAndPredictIsBitExact) {
  Fleet fleet(2);
  const std::string body = deploy_body("shard_net");

  const auto deployed = fleet.router->handle_deploy(post(body));
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  EXPECT_EQ(deployed.headers.at("X-Shard-Replication"), "2");
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();
  EXPECT_EQ(fleet.router->holders(design_id).size(), 2u);
  // Both workers' registries really hold the design (replication is deploys,
  // not bookkeeping).
  EXPECT_NE(fleet.workers[0]->runtime->registry().find(design_id), nullptr);
  EXPECT_NE(fleet.workers[1]->runtime->registry().find(design_id), nullptr);
  EXPECT_EQ(fleet.router->key_mismatches(), 0u);

  // Reference: the same deploy on a standalone runtime. The routed logits
  // must match bit for bit (%.17g round-trips doubles exactly).
  ServingRuntime reference(InProcWorker::make_config());
  const auto ref_deploy = reference.handle_deploy(post(body));
  ASSERT_EQ(ref_deploy.status, 200);
  const auto ref_predict = reference.handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(ref_predict.status, 200);
  const json::Value expected = json::parse(ref_predict.body);

  const auto routed = fleet.router->handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(routed.status, 200) << routed.body;
  EXPECT_EQ(routed.headers.at("X-Shard-Attempts"), "1");
  EXPECT_FALSE(routed.headers.at("X-Shard-Worker").empty());
  const json::Value actual = json::parse(routed.body);
  EXPECT_EQ(actual.at("predicted").as_int(), expected.at("predicted").as_int());
  const json::Array& expected_logits = expected.at("logits").as_array();
  const json::Array& actual_logits = actual.at("logits").as_array();
  ASSERT_EQ(actual_logits.size(), expected_logits.size());
  for (std::size_t i = 0; i < expected_logits.size(); ++i) {
    EXPECT_EQ(actual_logits[i].as_double(), expected_logits[i].as_double()) << i;
  }
}

TEST(Router, DeployReachesEveryReplicaAtOnce) {
  // Each worker's registry stalls 200 ms on a deploy miss. The router sends
  // the deploy to both replicas at once, so it waits out one stall, not two.
  Fleet fleet(2);
  for (const auto& worker : fleet.workers) {
    ASSERT_TRUE(worker->runtime->faults().configure("registry.deploy=latency:200000"));
  }
  const auto asked = std::chrono::steady_clock::now();
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("fan_out_net")));
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - asked);
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  EXPECT_LT(took.count(), 300);
  EXPECT_EQ(deployed.headers.at("X-Shard-Replication"), "2");
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();
  EXPECT_NE(fleet.workers[0]->runtime->registry().find(design_id), nullptr);
  EXPECT_NE(fleet.workers[1]->runtime->registry().find(design_id), nullptr);
}

TEST(Router, ConcurrentPredictsToOneWorkerAllAnswerPromptly) {
  // The router keeps up to 8 kept-alive connections per worker. Eight
  // predicts at once open about that many, and the worker must serve each
  // at once, not after one of its idle connections times out.
  Fleet fleet(1, 1);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("burst_net")));
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();

  constexpr int kClients = 8;
  std::latch start(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::chrono::milliseconds> waited(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      const auto asked = std::chrono::steady_clock::now();
      statuses[c] = fleet.router->handle_predict(post(predict_body(design_id))).status;
      waited[c] = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - asked);
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(statuses[c], 200) << "client " << c;
    EXPECT_LT(waited[c].count(), 2000) << "client " << c;
  }
}

TEST(Router, CacheHitOnSecondDeployThroughRouter) {
  Fleet fleet(2);
  const std::string body = deploy_body("cache_net");
  const auto first = fleet.router->handle_deploy(post(body));
  ASSERT_EQ(first.status, 200);
  EXPECT_FALSE(json::parse(first.body).at("cache_hit").as_bool());
  const auto second = fleet.router->handle_deploy(post(body));
  ASSERT_EQ(second.status, 200);
  EXPECT_TRUE(json::parse(second.body).at("cache_hit").as_bool());
}

TEST(Router, UnknownDesignPassesThroughWorker404) {
  Fleet fleet(2);
  const auto response =
      fleet.router->handle_predict(post(predict_body("0123456789abcdef")));
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(json::parse(response.body).at("error").at("code").as_string(),
            "unknown_design");
}

TEST(Router, FailoverOnWorkerDeathShedsNoRequests) {
  Fleet fleet(2);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("failover_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();

  const auto first = fleet.router->handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(first.status, 200);
  const std::string primary = first.headers.at("X-Shard-Worker");

  fleet.by_id(primary).kill();

  // Every predict after the death must still answer 200 from the replica —
  // the dead worker sheds only its in-flight work, nothing afterwards.
  int failovers_seen = 0;
  for (int i = 0; i < 8; ++i) {
    const auto response = fleet.router->handle_predict(post(predict_body(design_id)));
    ASSERT_EQ(response.status, 200) << "request " << i << ": " << response.body;
    EXPECT_NE(response.headers.at("X-Shard-Worker"), primary);
    if (response.headers.at("X-Shard-Attempts") != "1") ++failovers_seen;
  }
  EXPECT_GT(failovers_seen, 0);
  EXPECT_GT(fleet.router->failovers(), 0u);
  // The transport failures took the worker off the ring inline (no probe
  // cycle ran yet).
  EXPECT_EQ(fleet.router->ring_workers().size(), 1u);

  // Fleet readyz reports the dead worker and the shrunken ring.
  const auto readyz = fleet.router->handle_readyz({});
  EXPECT_EQ(readyz.status, 200);  // the surviving worker still serves
  const json::Value doc = json::parse(readyz.body);
  EXPECT_EQ(doc.at("status").as_string(), "degraded");
  EXPECT_EQ(doc.at("workers").at(primary).at("state").as_string(), "down");
  EXPECT_EQ(doc.at("ring").at("workers").as_array().size(), 1u);
}

TEST(Router, RecoveredWorkerRejoinsAndIsRepairedWithoutFullRebalance) {
  Fleet fleet(2);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("rejoin_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();
  const auto first = fleet.router->handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(first.status, 200);
  const std::string primary = first.headers.at("X-Shard-Worker");

  InProcWorker& victim = fleet.by_id(primary);
  victim.kill();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(fleet.router->handle_predict(post(predict_body(design_id))).status, 200);
  }
  ASSERT_EQ(fleet.router->ring_workers().size(), 1u);

  // Restart on the same port with an EMPTY registry: rejoin must re-replicate
  // from the router's catalog, not assume state survived.
  victim.start();
  ASSERT_EQ(victim.runtime->registry().find(design_id), nullptr);
  const std::uint64_t repairs_before = fleet.router->repairs();
  fleet.router->probe_now();
  EXPECT_EQ(fleet.router->ring_workers().size(), 2u);
  EXPECT_GT(fleet.router->repairs(), repairs_before);
  EXPECT_NE(victim.runtime->registry().find(design_id), nullptr);

  const auto holders = fleet.router->holders(design_id);
  EXPECT_EQ(holders.size(), 2u);
  const auto after = fleet.router->handle_predict(post(predict_body(design_id)));
  EXPECT_EQ(after.status, 200);
}

TEST(Router, LostRegistryEntryIsRedeployedFromCatalogOn404) {
  Fleet fleet(1, /*replication=*/1);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("replay_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();

  // Restart the only worker with a fresh (empty) runtime on the same port:
  // the ring still routes to it, its registry answers 404.
  fleet.workers[0]->kill();
  fleet.workers[0]->start();
  ASSERT_EQ(fleet.workers[0]->runtime->registry().find(design_id), nullptr);

  const auto response = fleet.router->handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_GT(fleet.router->repairs(), 0u);
  EXPECT_NE(fleet.workers[0]->runtime->registry().find(design_id), nullptr);
}

TEST(Router, ShardWorkerFaultSiteForcesFailover) {
  Fleet fleet(2);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("drill_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();

  // Fire exactly once: the first candidate "fails", the replica answers.
  fleet.router->faults().arm("shard.worker", {FaultKind::kError, 1.0, 1, 0});
  const auto response = fleet.router->handle_predict(post(predict_body(design_id)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.headers.at("X-Shard-Attempts"), "2");
  EXPECT_EQ(fleet.router->injected_failures(), 1u);
  // The drill must not poison real health state: both workers stay up.
  fleet.router->probe_now();
  EXPECT_EQ(fleet.router->ring_workers().size(), 2u);
}

TEST(Router, FleetMetricsSumCountersAndMergeHistograms) {
  Fleet fleet(2);
  // Two designs so that (very likely) both workers see some traffic; with
  // replication 2 on a 2-worker ring each design lands on both anyway.
  const auto d1 = fleet.router->handle_deploy(post(deploy_body("metrics_a")));
  const auto d2 = fleet.router->handle_deploy(post(deploy_body("metrics_b", 9)));
  ASSERT_EQ(d1.status, 200);
  ASSERT_EQ(d2.status, 200);
  const std::string id1 = json::parse(d1.body).at("design_id").as_string();
  const std::string id2 = json::parse(d2.body).at("design_id").as_string();

  const int per_design = 6;
  for (int i = 0; i < per_design; ++i) {
    ASSERT_EQ(fleet.router->handle_predict(post(predict_body(id1))).status, 200);
    ASSERT_EQ(fleet.router->handle_predict(post(predict_body(id2))).status, 200);
  }

  const auto metrics = fleet.router->handle_metrics({});
  ASSERT_EQ(metrics.status, 200);
  const json::Value doc = json::parse(metrics.body);

  // The fleet block is the exact sum of the per-worker blocks.
  std::uint64_t worker_sum = 0;
  std::uint64_t worker_exec_count = 0;
  std::uint64_t worker_exec_sum = 0;
  for (const auto& [id, worker_doc] : doc.at("workers").as_object()) {
    worker_sum += static_cast<std::uint64_t>(
        worker_doc.at("predict").get_int("total", 0));
    worker_exec_count += static_cast<std::uint64_t>(
        worker_doc.at("predict").at("exec_us").get_int("count", 0));
    worker_exec_sum += static_cast<std::uint64_t>(
        worker_doc.at("predict").at("exec_us").get_int("sum", 0));
  }
  EXPECT_EQ(worker_sum, static_cast<std::uint64_t>(2 * per_design));
  const json::Value& fleet_predict = doc.at("fleet").at("predict");
  EXPECT_EQ(static_cast<std::uint64_t>(fleet_predict.get_int("total", 0)), worker_sum);

  // Histogram merge is exact in count and sum, and percentiles are
  // recomputed from the merged buckets (present and bounded by max).
  const json::Value& exec = fleet_predict.at("exec_us");
  EXPECT_EQ(static_cast<std::uint64_t>(exec.get_int("count", 0)), worker_exec_count);
  EXPECT_EQ(static_cast<std::uint64_t>(exec.get_int("sum", 0)), worker_exec_sum);
  EXPECT_LE(exec.get_int("p99", -1), exec.get_int("max", -1));
  ASSERT_NE(exec.find("buckets"), nullptr);
  std::uint64_t bucket_total = 0;
  for (const json::Value& pair : exec.at("buckets").as_array()) {
    bucket_total += static_cast<std::uint64_t>(pair.as_array()[1].as_int());
  }
  EXPECT_EQ(bucket_total, worker_exec_count);

  // Recomputed fleet ratios stay in range instead of being summed.
  const double hit_rate = doc.at("fleet").at("deploy").at("cache_hit_rate").as_double();
  EXPECT_GE(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("router").get_int("key_mismatches", -1)),
            0u);
}

TEST(Router, FleetHistogramMergeDropsOutOfRangeBuckets) {
  // Two stub workers whose scraped histograms carry bucket pairs a real
  // Histogram never emits: out-of-range indices, negative counts and
  // malformed pairs.
  const char* scraped[] = {
      R"({"lat": {"count": 3, "sum": 10, "max": 7,
                  "buckets": [[2, 1], [3, 2], [99, 5], [-1, 4], [2, -7], ["x", 1], [1]]}})",
      R"({"lat": {"count": 1, "sum": 4, "max": 4, "buckets": [[3, 1]]}})"};
  std::vector<std::unique_ptr<web::HttpServer>> stubs;
  shard::RouterConfig config;
  config.probe_interval_ms = 0;
  shard::Router router(config);
  for (const char* body : scraped) {
    stubs.push_back(std::make_unique<web::HttpServer>());
    stubs.back()->route("GET", "/api/v1/metrics", [body](const web::HttpRequest&) {
      web::HttpResponse response;
      response.body = body;
      return response;
    });
    const int port = stubs.back()->start(0);
    router.add_worker(util::format("stub-%zu", stubs.size()), "127.0.0.1", port);
  }

  const json::Value lat =
      json::parse(router.handle_metrics({}).body).at("fleet").at("lat");
  EXPECT_EQ(lat.get_int("count", -1), 4);
  EXPECT_EQ(lat.get_int("sum", -1), 14);
  EXPECT_EQ(lat.get_int("p99", -1), 7);
  EXPECT_EQ(lat.at("buckets").dump(), "[[2,1],[3,3]]");
  for (auto& stub : stubs) stub->stop();
}

TEST(Router, DeployWithNoWorkersAnswers503) {
  shard::RouterConfig config;
  config.probe_interval_ms = 0;
  shard::Router router(config);
  const auto response = router.handle_deploy(post(deploy_body("nobody")));
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(json::parse(response.body).at("error").at("code").as_string(), "no_workers");
}

TEST(Router, ComputeDesignKeyMatchesRegistry) {
  const std::string body = deploy_body("key_net", 13);
  web::HttpResponse error;
  const auto key = shard::compute_design_key(body, &error);
  ASSERT_TRUE(key.has_value()) << error.body;

  ServingRuntime runtime(InProcWorker::make_config());
  const auto deployed = runtime.handle_deploy(post(body));
  ASSERT_EQ(deployed.status, 200);
  EXPECT_EQ(*key, json::parse(deployed.body).at("design_id").as_string());

  // Precision is part of the key, exactly as in the registry.
  json::Value doc = json::parse(body);
  doc.as_object()["precision"] = "int8";
  const auto quant_key = shard::compute_design_key(doc.dump(), &error);
  ASSERT_TRUE(quant_key.has_value());
  EXPECT_EQ(*quant_key, *key + "-int8");

  EXPECT_FALSE(shard::compute_design_key("{not json", &error).has_value());
  EXPECT_EQ(error.status, 400);
}

TEST(Router, FixedDescriptorDeploysThroughTheRouterKeepTheWorkersKey) {
  const auto fixed_body = [](int total_bits, int frac_bits) {
    json::Value doc = json::parse(deploy_body("routed_fixed", 13));
    doc.as_object()["precision"] = json::parse(util::format(
        R"({"type": "fixed", "total_bits": %d, "frac_bits": %d})", total_bits, frac_bits));
    return doc.dump();
  };
  Fleet fleet(2);

  // Q8.8 places and serves as int16: the router's key is the worker's id.
  const std::string q88 = fixed_body(16, 8);
  web::HttpResponse error;
  const auto key = shard::compute_design_key(q88, &error);
  ASSERT_TRUE(key.has_value()) << error.body;
  EXPECT_TRUE(key->ends_with("-int16")) << *key;
  const auto deployed = fleet.router->handle_deploy(post(q88));
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  const json::Value doc = json::parse(deployed.body);
  EXPECT_EQ(doc.at("design_id").as_string(), *key);
  EXPECT_EQ(doc.at("serve_precision").as_string(), "int16");
  EXPECT_EQ(fleet.router->key_mismatches(), 0u);
  const auto routed = fleet.router->handle_predict(post(predict_body(*key)));
  ASSERT_EQ(routed.status, 200) << routed.body;
  EXPECT_EQ(json::parse(routed.body).at("precision").as_string(), "int16");

  // Q16.16 has no serving engine: the router answers the worker's 400.
  const std::string q1616 = fixed_body(32, 16);
  ServingRuntime worker(InProcWorker::make_config());
  const web::HttpResponse direct = worker.handle_deploy(post(q1616));
  ASSERT_EQ(direct.status, 400) << direct.body;
  const web::HttpResponse refused = fleet.router->handle_deploy(post(q1616));
  EXPECT_EQ(refused.status, direct.status);
  EXPECT_EQ(refused.body, direct.body);
}

TEST(Router, DesignKeyAndWorkerDeployAgreeOnEveryBody) {
  // The router's key and the worker's deploy come from one body parser: each
  // body gets the same design id, or byte for byte the same 400, from both.
  const auto with = [](const std::string& body, const std::string& key, json::Value value) {
    json::Value doc = json::parse(body);
    doc.as_object()[key] = std::move(value);
    return doc.dump();
  };
  const std::string base = deploy_body("agree", 13);
  const core::NetworkDescriptor descriptor = core::NetworkDescriptor::from_json_text(base);
  const std::vector<std::string> accepted = {
      base,
      with(base, "weights_base64", util::base64_encode(seeded_weights(descriptor, 21))),
      with(base, "precision", "int8"),
      // Fixed formats the integer engines compute: Q8.8 and Q4.4.
      with(base, "precision",
           json::parse(R"({"type": "fixed", "total_bits": 16, "frac_bits": 8})")),
      with(base, "precision",
           json::parse(R"({"type": "fixed", "total_bits": 8, "frac_bits": 4})")),
  };
  const std::vector<std::string> rejected = {
      "{not json",
      with(base, "precision", "int4"),
      with(base, "schema_version", 2),
      with(base, "weights_base64", 42),
      with(base, "weights_base64", "not base64!"),
      with(base, "seed", 1.5),
      // Seeds outside 64 bits once cast with undefined behaviour to one id.
      with(base, "seed", 1e300),
      with(base, "seed", 1e19),
      with(base, "seed", -1e19),
      with(base, "seed", json::parse("9223372036854775807")),
      with(base, "input", json::parse(R"({"channels": 1e300, "height": 8, "width": 8})")),
      with(base, "precision",
           json::parse(R"({"type": "fixed", "total_bits": 16.5, "frac_bits": 8})")),
      // A fixed format no serving engine computes.
      with(base, "precision",
           json::parse(R"({"type": "fixed", "total_bits": 32, "frac_bits": 16})")),
  };

  ServingRuntime runtime(InProcWorker::make_config());
  for (const std::string& body : accepted) {
    web::HttpResponse error;
    const auto key = shard::compute_design_key(body, &error);
    ASSERT_TRUE(key.has_value()) << body << "\n" << error.body;
    const web::HttpResponse deployed = runtime.handle_deploy(post(body));
    ASSERT_EQ(deployed.status, 200) << body << "\n" << deployed.body;
    EXPECT_EQ(*key, json::parse(deployed.body).at("design_id").as_string()) << body;
  }
  for (const std::string& body : rejected) {
    web::HttpResponse error;
    EXPECT_FALSE(shard::compute_design_key(body, &error).has_value()) << body;
    const web::HttpResponse refused = runtime.handle_deploy(post(body));
    EXPECT_EQ(refused.status, 400) << body << "\n" << refused.body;
    EXPECT_EQ(error.status, refused.status) << body;
    EXPECT_EQ(error.body, refused.body) << body;
  }
}

namespace {

/// deploy_body's network as a Q4.4 descriptor whose first weight of each
/// layer, -3.0, lies past the int8 engine's +/-1.9375 clamp.
std::string clamped_q44_body(const std::string& name, int seed) {
  const std::string base = deploy_body(name, seed);
  const core::NetworkDescriptor descriptor = core::NetworkDescriptor::from_json_text(base);
  nn::Network net = descriptor.build_network();
  nn::deserialize_weights(net, seeded_weights(descriptor, static_cast<std::uint64_t>(seed)));
  for (const nn::Param& param : net.params()) {
    if (param.name.ends_with(".weights")) (*param.value)[0] = -3.0f;
  }
  json::Value doc = json::parse(base);
  doc.as_object()["precision"] =
      json::parse(R"({"type": "fixed", "total_bits": 8, "frac_bits": 4})");
  doc.as_object()["weights_base64"] = util::base64_encode(nn::serialize_weights(net));
  return doc.dump();
}

}  // namespace

TEST(Router, ClampedQ44DescriptorIsRefusedAsASingleServerRefusesIt) {
  // A Q4.4 descriptor whose weights pass the int8 engine's clamp is a 400
  // from the shared body parser: the router refuses it before placement, with
  // the bytes a single server answers.
  const std::string body = clamped_q44_body("routed_clamped", 13);

  ServingRuntime single(InProcWorker::make_config());
  const web::HttpResponse direct = single.handle_deploy(post(body));
  ASSERT_EQ(direct.status, 400) << direct.body;
  EXPECT_NE(direct.body.find("1.9375"), std::string::npos) << direct.body;
  Fleet fleet(2);
  const web::HttpResponse routed = fleet.router->handle_deploy(post(body));
  EXPECT_EQ(routed.status, direct.status);
  EXPECT_EQ(routed.body, direct.body);
  EXPECT_EQ(fleet.router->key_mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Supervisor state machine (in-process launcher, TSan-friendly)
// ---------------------------------------------------------------------------

/// Controllable stand-in for a worker process: `up` is the liveness the
/// supervisor polls, `start_ok` decides whether a restart attempt succeeds.
struct FakeLauncher : shard::WorkerLauncher {
  bool start() override {
    ++starts;
    if (!start_ok) return false;
    up = true;
    return true;
  }
  bool alive() override { return up; }
  void stop() override {
    up = false;
    ++stops;
  }
  int port() const override { return 45678; }

  bool up = true;
  bool start_ok = true;
  int starts = 0;
  int stops = 0;
};

shard::SupervisorConfig fast_supervisor_config() {
  shard::SupervisorConfig config;
  config.backoff_initial_ms = 1;
  config.backoff_factor = 2.0;
  config.backoff_max_ms = 5000;
  config.restart_budget = 0;  // unlimited unless a test overrides it
  return config;
}

/// Drive tick() until the slot leaves kBackoff (sleeping through the tiny
/// deterministic delays) or `max_ticks` is exhausted.
void tick_until_settled(shard::Supervisor& supervisor, int max_ticks = 50) {
  for (int i = 0; i < max_ticks; ++i) {
    supervisor.tick();
    if (supervisor.status()[0].state != shard::SlotState::kBackoff) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(Supervisor, CrashEntersBackoffThenRestartFiresCallback) {
  shard::Supervisor supervisor(fast_supervisor_config());
  auto owned = std::make_unique<FakeLauncher>();
  FakeLauncher* launcher = owned.get();
  supervisor.add_slot("w0", std::move(owned));
  std::vector<std::string> restarted;
  supervisor.on_restart([&restarted](const std::string& id) { restarted.push_back(id); });

  // Healthy worker: ticks are no-ops.
  supervisor.tick();
  EXPECT_EQ(supervisor.crashes(), 0u);
  EXPECT_EQ(launcher->starts, 0);

  launcher->up = false;  // SIGKILL equivalent
  supervisor.tick();
  EXPECT_EQ(supervisor.crashes(), 1u);
  auto status = supervisor.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].state, shard::SlotState::kBackoff);
  EXPECT_EQ(status[0].backoff_ms, 1);  // deterministic: initial × factor^0

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  supervisor.tick();  // backoff elapsed → restart succeeds
  EXPECT_EQ(supervisor.restarts(), 1u);
  EXPECT_TRUE(launcher->up);
  EXPECT_EQ(supervisor.status()[0].state, shard::SlotState::kRunning);
  ASSERT_EQ(restarted.size(), 1u);
  EXPECT_EQ(restarted[0], "w0");
}

TEST(Supervisor, FailedRestartEscalatesBackoffDeterministically) {
  shard::Supervisor supervisor(fast_supervisor_config());
  auto owned = std::make_unique<FakeLauncher>();
  FakeLauncher* launcher = owned.get();
  supervisor.add_slot("flappy", std::move(owned));

  launcher->up = false;
  launcher->start_ok = false;
  supervisor.tick();  // crash #1 → backoff 1 ms
  EXPECT_EQ(supervisor.status()[0].backoff_ms, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(4));
  supervisor.tick();  // restart fails → crash #2 → backoff 1×2^1
  EXPECT_EQ(supervisor.crashes(), 2u);
  EXPECT_EQ(supervisor.status()[0].backoff_ms, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  supervisor.tick();  // restart fails → crash #3 → backoff 1×2^2
  EXPECT_EQ(supervisor.crashes(), 3u);
  EXPECT_EQ(supervisor.status()[0].backoff_ms, 4);
  EXPECT_EQ(supervisor.restarts(), 0u);

  // The worker becomes startable again: the next due restart heals the slot.
  launcher->start_ok = true;
  tick_until_settled(supervisor);
  EXPECT_EQ(supervisor.status()[0].state, shard::SlotState::kRunning);
  EXPECT_EQ(supervisor.restarts(), 1u);
}

TEST(Supervisor, RestartBudgetMarksSlotPermanentlyDead) {
  shard::SupervisorConfig config = fast_supervisor_config();
  config.restart_budget = 2;  // third crash inside the window retires the slot
  shard::Supervisor supervisor(config);
  auto owned = std::make_unique<FakeLauncher>();
  FakeLauncher* launcher = owned.get();
  supervisor.add_slot("doomed", std::move(owned));

  launcher->up = false;
  launcher->start_ok = false;  // e.g. its model file is gone: can never come up
  tick_until_settled(supervisor);

  EXPECT_EQ(supervisor.status()[0].state, shard::SlotState::kDead);
  EXPECT_EQ(supervisor.crashes(), 3u);  // budget 2 + the crash that broke it
  EXPECT_EQ(supervisor.permanently_down(), 1u);

  // A dead slot is never restarted again, even after its worker "recovers".
  launcher->start_ok = true;
  const int starts_before = launcher->starts;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  supervisor.tick();
  EXPECT_EQ(launcher->starts, starts_before);
  EXPECT_EQ(supervisor.status()[0].state, shard::SlotState::kDead);

  const json::Value doc = supervisor.to_json();
  EXPECT_EQ(doc.get_int("permanently_down", -1), 1);
  const json::Value& slot = doc.at("slots").as_array()[0];
  EXPECT_EQ(slot.at("state").as_string(), "dead");
  EXPECT_EQ(slot.at("id").as_string(), "doomed");

  supervisor.stop_all();  // must tolerate dead slots at teardown
}

TEST(Router, ReadyzReportsSupervisorAndDegradesOnDeadSlot) {
  Fleet fleet(1);
  ASSERT_EQ(fleet.router->handle_deploy(post(deploy_body("supervised_net"))).status, 200);

  shard::SupervisorConfig config = fast_supervisor_config();
  config.restart_budget = 1;
  shard::Supervisor supervisor(config);
  auto owned = std::make_unique<FakeLauncher>();
  FakeLauncher* launcher = owned.get();
  supervisor.add_slot("worker-9", std::move(owned));
  fleet.router->attach_supervisor(&supervisor);

  // Healthy supervisor: readyz carries the block, fleet stays ready.
  const auto healthy = fleet.router->handle_readyz({});
  EXPECT_EQ(healthy.status, 200);
  {
    const json::Value doc = json::parse(healthy.body);
    EXPECT_EQ(doc.at("status").as_string(), "ready");
    EXPECT_EQ(doc.at("supervisor").get_int("permanently_down", -1), 0);
  }

  // Burn the budget: the slot goes permanently down and readyz degrades even
  // though the (in-process) serving worker itself still answers.
  launcher->up = false;
  launcher->start_ok = false;
  tick_until_settled(supervisor);
  ASSERT_EQ(supervisor.permanently_down(), 1u);

  const auto degraded = fleet.router->handle_readyz({});
  EXPECT_EQ(degraded.status, 200);
  const json::Value doc = json::parse(degraded.body);
  EXPECT_EQ(doc.at("status").as_string(), "degraded");
  EXPECT_EQ(doc.at("supervisor").get_int("permanently_down", -1), 1);
  EXPECT_EQ(doc.at("supervisor").at("slots").as_array()[0].at("state").as_string(),
            "dead");
}

// ---------------------------------------------------------------------------
// Durable deploy journal wired into the router
// ---------------------------------------------------------------------------

TEST(Router, JournalRecoveryRestoresCatalogAfterRouterCrash) {
  const std::string dir = util::make_temp_dir("cnn2fpga_shard_journal");
  const std::string path = dir + "/deploys.journal";

  std::vector<std::unique_ptr<InProcWorker>> workers;
  for (int i = 0; i < 2; ++i) workers.push_back(std::make_unique<InProcWorker>());
  const auto make_router = [&]() {
    shard::RouterConfig config;
    config.replication = 2;
    config.probe_interval_ms = 0;
    config.worker.client.connect_timeout_ms = 500;
    config.worker.client.read_timeout_ms = 10000;
    config.worker.down_after_failures = 2;
    config.journal_path = path;
    auto router = std::make_unique<shard::Router>(config);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      router->add_worker(util::format("worker-%zu", i), "127.0.0.1", workers[i]->port);
    }
    return router;
  };

  auto router = make_router();
  std::vector<std::string> ids;
  for (int d = 0; d < 3; ++d) {
    const auto deployed = router->handle_deploy(
        post(deploy_body(util::format("journal_net_%d", d), 7 + d)));
    ASSERT_EQ(deployed.status, 200) << deployed.body;
    ids.push_back(json::parse(deployed.body).at("design_id").as_string());
  }
  ASSERT_NE(router->journal(), nullptr);
  EXPECT_EQ(router->journal()->records(), 3u);

  // An identical redeploy is known history: acked (cache hit) but NOT
  // journaled again, so a hot design cannot grow the log unboundedly.
  const auto again = router->handle_deploy(post(deploy_body("journal_net_0", 7)));
  ASSERT_EQ(again.status, 200);
  EXPECT_TRUE(json::parse(again.body).at("cache_hit").as_bool());
  EXPECT_EQ(router->journal()->records(), 3u);

  const auto before = router->handle_predict(post(predict_body(ids[0])));
  ASSERT_EQ(before.status, 200);
  const json::Value expected = json::parse(before.body);

  // Total fleet loss: the router dies (releasing the journal) and every
  // worker restarts empty. The journal is the only surviving state.
  router.reset();
  for (auto& worker : workers) {
    worker->kill();
    worker->start();
  }

  router = make_router();
  EXPECT_EQ(router->recover(), 3u);
  EXPECT_EQ(router->journal()->truncated_records(), 0u);

  // Every pre-crash design answers again (recover seeds the catalog; the
  // predict path's redeploy-on-404 repair refills the empty workers).
  for (const std::string& id : ids) {
    const auto response = router->handle_predict(post(predict_body(id)));
    EXPECT_EQ(response.status, 200) << id << ": " << response.body;
  }

  // Bit-exact across the crash: same design, same image, same logits.
  const auto after = router->handle_predict(post(predict_body(ids[0])));
  ASSERT_EQ(after.status, 200);
  const json::Value actual = json::parse(after.body);
  const json::Array& expected_logits = expected.at("logits").as_array();
  const json::Array& actual_logits = actual.at("logits").as_array();
  ASSERT_EQ(actual_logits.size(), expected_logits.size());
  for (std::size_t i = 0; i < expected_logits.size(); ++i) {
    EXPECT_EQ(actual_logits[i].as_double(), expected_logits[i].as_double()) << i;
  }

  // The journal is observable in /api/v1/metrics, including the flat
  // truncation gate the chaos drill reads.
  const auto metrics = router->handle_metrics({});
  ASSERT_EQ(metrics.status, 200);
  const json::Value doc = json::parse(metrics.body);
  EXPECT_EQ(doc.at("router").at("journal").get_int("records", -1), 3);
  EXPECT_EQ(doc.at("router").get_int("journal_truncated_records", -1), 0);
  EXPECT_EQ(doc.at("router").get_int("journal_recovered", -1), 3);
}

TEST(Router, RecoverSkipsAJournaledQ44DeployPastTheClamp) {
  // A journal written before Q4.4 descriptors past the int8 clamp were
  // refused can hold one. Recovery re-parses every record with today's
  // rules: that record is skipped (a logged warning), so its design is no
  // longer re-replicated and its deploy answers 400 as a fresh one does.
  // The other records recover as before.
  const std::string dir = util::make_temp_dir("cnn2fpga_shard_journal_clamp");
  const std::string path = dir + "/deploys.journal";
  const std::string valid = deploy_body("journal_kept", 21);
  const std::string clamped = clamped_q44_body("journal_clamped", 22);
  {
    shard::DeployJournal journal(path);
    journal.open_and_replay();
    journal.append(valid);
    journal.append(clamped);
  }

  InProcWorker worker;
  shard::RouterConfig config;
  config.probe_interval_ms = 0;
  config.journal_path = path;
  shard::Router router(config);
  router.add_worker("worker-0", "127.0.0.1", worker.port);
  EXPECT_EQ(router.recover(), 1u);
  EXPECT_EQ(router.journal()->truncated_records(), 0u);

  const auto metrics = router.handle_metrics({});
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(json::parse(metrics.body).at("router").get_int("journal_recovered", -1), 1);

  const auto kept = router.handle_deploy(post(valid));
  ASSERT_EQ(kept.status, 200) << kept.body;
  EXPECT_TRUE(json::parse(kept.body).at("cache_hit").as_bool());
  const auto refused = router.handle_deploy(post(clamped));
  EXPECT_EQ(refused.status, 400) << refused.body;
  EXPECT_NE(refused.body.find("1.9375"), std::string::npos) << refused.body;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Transport-level chaos: client.connect / client.send / client.recv
// ---------------------------------------------------------------------------

TEST(HttpClient, TransportFaultSitesTearConnectSendAndRecv) {
  web::HttpServer server;
  server.route("GET", "/ping", [](const web::HttpRequest&) {
    web::HttpResponse response;
    response.body = "{\"pong\":true}";
    return response;
  });
  const int port = server.start();

  FaultInjector faults;
  web::ClientConfig config;
  config.keep_alive = true;
  config.connect_timeout_ms = 500;
  config.faults = &faults;
  web::HttpClient client("127.0.0.1", port, config);

  // Refused connect: fails before a socket exists, and there is no pooled
  // connection to fall back to.
  faults.arm("client.connect", {FaultKind::kError, 1.0, 1, 0, 0});
  EXPECT_FALSE(client.request("GET", "/ping").has_value());
  EXPECT_EQ(faults.fired("client.connect"), 1u);
  ASSERT_TRUE(client.request("GET", "/ping").has_value());  // budget spent

  // Connect stall: sleeps the armed delay, then fails (a SYN black hole).
  client.close();
  faults.arm("client.connect", {FaultKind::kLatency, 1.0, 1, 20000, 0});
  const auto stall_start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request("GET", "/ping").has_value());
  const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - stall_start);
  EXPECT_GE(stalled.count(), 20);
  ASSERT_TRUE(client.request("GET", "/ping").has_value());

  // Torn write: budget 2 so BOTH the pooled attempt and the silent fresh-
  // socket retry tear after 5 bytes — the request must fail outright.
  faults.arm("client.send", {FaultKind::kError, 1.0, 2, 0, 5});
  EXPECT_FALSE(client.request("GET", "/ping").has_value());
  EXPECT_EQ(faults.fired("client.send"), 2u);
  ASSERT_TRUE(client.request("GET", "/ping").has_value());

  // Mid-response reset with budget 1: the pooled attempt dies after the
  // request went out whole, the keep-alive retry answers. One fire, 200.
  faults.arm("client.recv", {FaultKind::kError, 1.0, 1, 0, 0});
  const auto retried = client.request("GET", "/ping");
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->status, 200);
  EXPECT_EQ(faults.fired("client.recv"), 1u);
  server.stop();
}

TEST(Router, TransportFaultsDemoteWorkersAndHealAfterClear) {
  Fleet fleet(2);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("chaos_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();
  ASSERT_EQ(fleet.router->handle_predict(post(predict_body(design_id))).status, 200);

  // Unlimited recv resets: every transport attempt (including keep-alive
  // retries) dies, so each predict marks one failure per worker. With
  // down_after_failures=2, two predicts empty the ring.
  fleet.router->faults().arm("client.recv", {FaultKind::kError, 1.0, 0, 0, 0});
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(fleet.router->handle_predict(post(predict_body(design_id))).status, 500) << i;
  }
  EXPECT_TRUE(fleet.router->ring_workers().empty());
  EXPECT_GT(fleet.router->faults().fired("client.recv"), 0u);

  // Clearing the chaos and probing restores the fleet: the workers were
  // healthy all along, only the transport was poisoned.
  fleet.router->faults().clear();
  fleet.router->probe_now();
  EXPECT_EQ(fleet.router->ring_workers().size(), 2u);
  EXPECT_EQ(fleet.router->handle_predict(post(predict_body(design_id))).status, 200);
}

TEST(FaultInjector, ConfigureParsesBytesAndToJsonExportsTheSpec) {
  FaultInjector faults;
  std::string error;
  ASSERT_TRUE(faults.configure("client.send=error:1.0:2:5,client.recv=latency:750:1",
                               &error))
      << error;

  const json::Value doc = faults.to_json();
  const json::Value& send = doc.at("client.send").as_array()[0];
  EXPECT_EQ(send.at("kind").as_string(), "error");
  EXPECT_EQ(send.get_int("count", -1), 2);
  EXPECT_EQ(send.get_int("bytes", -1), 5);
  EXPECT_EQ(send.get_int("hits", -1), 0);
  EXPECT_EQ(send.get_int("fires", -1), 0);
  const json::Value& recv = doc.at("client.recv").as_array()[0];
  EXPECT_EQ(recv.at("kind").as_string(), "latency");
  EXPECT_EQ(recv.get_int("latency_us", -1), 750);
  EXPECT_EQ(recv.get_int("count", -1), 1);

  // `bytes` only belongs to error faults, and nothing may follow it.
  EXPECT_FALSE(faults.configure("client.send=error:1.0:2:5:9", &error));
  EXPECT_FALSE(faults.configure("client.recv=latency:750:1:5", &error));
}

// ---------------------------------------------------------------------------
// Deadline-aware failover
// ---------------------------------------------------------------------------

TEST(Router, DeadlineExhaustedMidFailoverAnswers504Locally) {
  Fleet fleet(2);
  const auto deployed = fleet.router->handle_deploy(post(deploy_body("deadline_net")));
  ASSERT_EQ(deployed.status, 200);
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();

  // A generous budget passes straight through.
  web::HttpRequest relaxed = post(predict_body(design_id));
  relaxed.headers["x-deadline-ms"] = "10000";
  EXPECT_EQ(fleet.router->handle_predict(relaxed).status, 200);
  EXPECT_EQ(fleet.router->deadline_rejects(), 0u);

  // Burn the whole budget inside attempt #1: both transport tries against the
  // first candidate stall 30 ms each against a 10 ms deadline. The router
  // must reject the second candidate LOCALLY — 504, no wasted attempt.
  fleet.router->faults().arm("client.recv", {FaultKind::kLatency, 1.0, 2, 30000, 0});
  web::HttpRequest rushed = post(predict_body(design_id));
  rushed.headers["x-deadline-ms"] = "10";
  const auto response = fleet.router->handle_predict(rushed);
  EXPECT_EQ(response.status, 504) << response.body;
  EXPECT_EQ(json::parse(response.body).at("error").at("code").as_string(),
            "deadline_exceeded");
  EXPECT_EQ(response.headers.at("X-Shard-Attempts"), "1");
  EXPECT_EQ(fleet.router->deadline_rejects(), 1u);

  // Chaos off: the same rushed request is fast enough again.
  fleet.router->faults().clear();
  fleet.router->probe_now();
  EXPECT_EQ(fleet.router->handle_predict(rushed).status, 200);
}

TEST(Router, DeadlineHeaderReadsTheSameRoutedAndLocal) {
  // One header table through a single runtime and through a router in front
  // of a worker: every value gets the same status, code and message. A
  // budget past the clock's range is no deadline on both sides.
  Fleet fleet(1, 1);
  const std::string body = deploy_body("deadline_table");
  const auto deployed = fleet.router->handle_deploy(post(body));
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  const std::string design_id = json::parse(deployed.body).at("design_id").as_string();
  ServingRuntime local(InProcWorker::make_config());
  ASSERT_EQ(local.handle_deploy(post(body)).status, 200);

  const std::pair<const char*, int> table[] = {
      {"10", 200},   {"12x", 400},           {"-5", 400},
      {"0", 400},    {"", 400},              {"nope", 400},
      {"9223372036854", 200},                {"10000000000000", 200},
      {"18446744073709551615", 200},         {"99999999999999999999", 200}};
  for (const auto& [value, status] : table) {
    web::HttpRequest request = post(predict_body(design_id));
    request.headers["x-deadline-ms"] = value;
    const auto direct = local.handle_predict(request);
    const auto routed = fleet.router->handle_predict(request);
    EXPECT_EQ(direct.status, status) << "'" << value << "': " << direct.body;
    EXPECT_EQ(routed.status, direct.status) << "'" << value << "': " << routed.body;
    if (direct.status == 200 || routed.status == 200) continue;
    const json::Value direct_error = json::parse(direct.body).at("error");
    const json::Value routed_error = json::parse(routed.body).at("error");
    EXPECT_EQ(routed_error.at("code").as_string(), direct_error.at("code").as_string()) << value;
    EXPECT_EQ(routed_error.at("message").as_string(), direct_error.at("message").as_string())
        << value;
  }
  // A bad value is refused before the design is looked up, on both sides.
  web::HttpRequest unknown = post(predict_body("0123456789abcdef"));
  unknown.headers["x-deadline-ms"] = "12x";
  const auto direct = local.handle_predict(unknown);
  const auto routed = fleet.router->handle_predict(unknown);
  EXPECT_EQ(direct.status, 400) << direct.body;
  EXPECT_EQ(routed.status, 400) << routed.body;
  EXPECT_EQ(routed.body, direct.body);
  EXPECT_EQ(fleet.router->deadline_rejects(), 0u);
}

// ---------------------------------------------------------------------------
// Port reservation across restarts
// ---------------------------------------------------------------------------

TEST(ReservedPort, HoldsThePortAcrossServerRestarts) {
  auto reserved = shard::ReservedPort::reserve();
  ASSERT_TRUE(reserved.valid());
  ASSERT_GT(reserved.port(), 0);

  // A reuse_port listener binds the reserved port while the reservation is
  // still held — this is exactly how a supervised worker starts.
  web::ServerConfig config;
  config.reuse_port = true;
  web::HttpServer server(config);
  ASSERT_EQ(server.start(reserved.port()), reserved.port());
  server.stop();

  // The crash/restart window: the listener is gone but the reservation keeps
  // the port, so the restarted worker binds the SAME port again.
  web::HttpServer second(config);
  ASSERT_EQ(second.start(reserved.port()), reserved.port());
  second.stop();
}

}  // namespace
