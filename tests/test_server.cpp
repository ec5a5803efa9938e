// Wire-protocol and socket front-end tests (src/svc/server.*,
// util/framing.*, util/socket.*).  The headline contract: a count
// served over TCP is byte-identical to the direct library call — the
// frame layer preserves message boundaries, the JSON layer round-trips
// doubles exactly, and the server routes through the same
// count_template the caller would have used.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/counter.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "treelet/catalog.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/socket.hpp"

namespace fascia {
namespace {

using obs::Json;

// ---- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsFramesOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  util::write_frame(fds[1], "");
  util::write_frame(fds[1], "{\"op\":\"status\"}");
  // Multi-chunk but comfortably inside the pipe buffer, so the writes
  // cannot block with the reader still on this thread.
  const std::string big(16 << 10, 'x');
  util::write_frame(fds[1], big);
  ::close(fds[1]);

  std::string payload;
  ASSERT_TRUE(util::read_frame(fds[0], &payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(util::read_frame(fds[0], &payload));
  EXPECT_EQ(payload, "{\"op\":\"status\"}");
  ASSERT_TRUE(util::read_frame(fds[0], &payload));
  EXPECT_EQ(payload, big);
  // Clean EOF between frames is end-of-stream, not an error.
  EXPECT_FALSE(util::read_frame(fds[0], &payload));
  ::close(fds[0]);
}

TEST(Framing, TruncatedFrameIsAProtocolError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Prefix promises 8 bytes; deliver 3 and hang up.
  const unsigned char prefix[4] = {0, 0, 0, 8};
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  std::string payload;
  EXPECT_THROW(util::read_frame(fds[0], &payload), Error);
  ::close(fds[0]);
}

TEST(Framing, OversizedLengthPrefixIsRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  ::close(fds[1]);
  std::string payload;
  EXPECT_THROW(util::read_frame(fds[0], &payload), Error);
  ::close(fds[0]);
}

// ---- server round-trips ----------------------------------------------------

Json count_request(const std::string& graph, const std::string& tmpl,
                   int iterations, std::uint64_t seed) {
  Json request = Json::object();
  request["op"] = "count";
  request["graph"] = graph;
  Json tmpl_spec = Json::object();
  tmpl_spec["name"] = tmpl;
  request["template"] = std::move(tmpl_spec);
  Json options = Json::object();
  options["iterations"] = iterations;
  options["seed"] = seed;
  options["threads"] = 1;
  request["options"] = std::move(options);
  return request;
}

TEST(SvcServer, CountOverTcpBitIdenticalToDirectCall) {
  const Graph graph = erdos_renyi_gnm(700, 2800, 13);
  CountOptions direct;
  direct.sampling.iterations = 6;
  direct.sampling.seed = 29;
  direct.execution.threads = 1;
  const CountResult expected =
      count_template(graph, catalog_entry("U5-2").tree, direct);

  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(700, 2800, 13));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  const Json response = client.request(count_request("g", "U5-2", 6, 29));
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_EQ(response.get_string("state"), "completed");
  // JSON doubles use shortest-exact formatting, so the wire value is
  // the library value, bit for bit.
  EXPECT_EQ(response.get_double("estimate"), expected.estimate);
  EXPECT_EQ(response.get_double("relative_stderr"), expected.relative_stderr);
  const Json* per_iteration = response.find("per_iteration");
  ASSERT_NE(per_iteration, nullptr);
  ASSERT_EQ(per_iteration->size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(per_iteration->elements()[i].as_double(),
              expected.per_iteration[i])
        << i;
  }
  client.shutdown();
  EXPECT_TRUE(server.wait_shutdown_for(10.0));
  server.stop();
}

TEST(SvcServer, StreamedCountEmitsProgressThenTerminal) {
  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(400, 1600, 7));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  std::vector<Json> events;
  client.on_event([&](const Json& event) { events.push_back(event); });
  Json request = count_request("g", "U5-1", 4, 3);
  request["stream"] = true;
  const Json response = client.request(request);

  EXPECT_TRUE(response.get_bool("ok"));
  // Even an instant job streams at least one progress frame, and every
  // frame identifies the job and carries a metrics delta.
  ASSERT_GE(events.size(), 1u);
  for (const Json& event : events) {
    EXPECT_EQ(event.get_string("event"), "progress");
    EXPECT_EQ(event.get_int("job"), response.get_int("job"));
    EXPECT_TRUE(event.contains("metrics"));
    EXPECT_TRUE(event.contains("state"));
  }
  server.stop();
}

TEST(SvcServer, GddOverTheWireMatchesDirectCall) {
  const Graph graph = erdos_renyi_gnm(250, 1000, 5);
  const int orbit = u52_central_vertex();
  CountOptions direct;
  direct.sampling.iterations = 3;
  direct.sampling.seed = 11;
  direct.execution.threads = 1;
  const CountResult expected =
      graphlet_degrees(graph, catalog_entry("U5-2").tree, orbit, direct);

  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(250, 1000, 5));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  Json request = count_request("g", "U5-2", 3, 11);
  request["op"] = "gdd";
  request["orbit"] = orbit;
  const Json response = client.request(request);
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_EQ(response.get_double("estimate"), expected.estimate);
  const Json* vertex_counts = response.find("vertex_counts");
  ASSERT_NE(vertex_counts, nullptr);
  ASSERT_EQ(vertex_counts->size(), expected.vertex_counts.size());
  for (std::size_t v = 0; v < expected.vertex_counts.size(); ++v) {
    ASSERT_EQ(vertex_counts->elements()[v].as_double(),
              expected.vertex_counts[v])
        << v;
  }
  server.stop();
}

TEST(SvcServer, BatchOverTheWireMatchesDirectCall) {
  const Graph graph = erdos_renyi_gnm(350, 1400, 9);
  std::vector<sched::BatchJob> jobs(2);
  jobs[0].tmpl = catalog_entry("U5-1").tree;
  jobs[0].iterations = 3;
  jobs[1].tmpl = catalog_entry("U5-2").tree;
  jobs[1].iterations = 3;
  sched::BatchOptions options;
  options.seed = 21;
  options.num_threads = 1;
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(350, 1400, 9));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  Json request = Json::object();
  request["op"] = "run_batch";
  request["graph"] = "g";
  Json wire_jobs = Json::array();
  for (const char* name : {"U5-1", "U5-2"}) {
    Json job = Json::object();
    Json tmpl = Json::object();
    tmpl["name"] = name;
    job["template"] = std::move(tmpl);
    job["iterations"] = 3;
    wire_jobs.push_back(std::move(job));
  }
  request["jobs"] = std::move(wire_jobs);
  Json batch_options = Json::object();
  batch_options["seed"] = 21;
  batch_options["threads"] = 1;
  request["options"] = std::move(batch_options);

  const Json response = client.request(request);
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_EQ(response.get_double("estimate"), expected.estimate);
  const Json* job_results = response.find("jobs");
  ASSERT_NE(job_results, nullptr);
  ASSERT_EQ(job_results->size(), expected.jobs.size());
  for (std::size_t j = 0; j < expected.jobs.size(); ++j) {
    EXPECT_EQ(job_results->elements()[j].get_double("estimate"),
              expected.jobs[j].estimate)
        << j;
  }
  server.stop();
}

TEST(SvcServer, LoadGraphCachesByNameAndStatusSeesIt) {
  svc::Server::Config config;
  svc::Server server(config);
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  const Json first = client.load_graph("tiny", "enron", "", 0.02, 1);
  ASSERT_TRUE(first.get_bool("ok"));
  EXPECT_FALSE(first.get_bool("cached"));
  EXPECT_GT(first.get_int("n"), 0);

  const Json second = client.load_graph("tiny", "enron", "", 0.02, 1);
  ASSERT_TRUE(second.get_bool("ok"));
  EXPECT_TRUE(second.get_bool("cached"));
  EXPECT_EQ(second.get_int("n"), first.get_int("n"));

  const Json status = client.status();
  ASSERT_TRUE(status.get_bool("ok"));
  const Json* registry = status.find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->get_int("graphs"), 1);
  for (const char* key :
       {"resident_bytes", "budget_bytes", "graphs", "permutations",
        "partitions", "hits", "misses", "evictions", "resurrections",
        "held_graphs", "held_bytes"}) {
    EXPECT_NE(registry->find(key), nullptr) << key;
  }
  const Json* names = status.find("graph_names");
  ASSERT_NE(names, nullptr);
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ(names->elements()[0].as_string(), "tiny");
  server.stop();
}

TEST(SvcServer, CancelOverASecondConnectionStopsAStreamedJob) {
  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(2500, 20000, 3));
  server.start();

  std::atomic<std::int64_t> job_id{0};
  std::atomic<bool> running{false};
  Json terminal;
  std::thread streamer([&] {
    svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());
    client.on_event([&](const Json& event) {
      job_id.store(event.get_int("job"), std::memory_order_relaxed);
      if (event.get_string("state") == "running") {
        running.store(true, std::memory_order_relaxed);
      }
    });
    Json request = count_request("g", "U7-2", 4000, 1);
    request["stream"] = true;
    terminal = client.request(request);
  });

  while (!running.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  svc::Client canceller = svc::Client::connect_tcp("127.0.0.1", server.port());
  const Json cancelled = canceller.cancel(
      static_cast<std::uint64_t>(job_id.load(std::memory_order_relaxed)));
  EXPECT_TRUE(cancelled.get_bool("ok"));
  EXPECT_TRUE(cancelled.get_bool("cancelled"));

  streamer.join();
  // The streamed request still gets its terminal frame: an honest
  // partial result in state "cancelled".
  EXPECT_EQ(terminal.get_string("state"), "cancelled");
  EXPECT_TRUE(terminal.get_bool("ok"));
  server.stop();
}

TEST(SvcServer, MutateGraphAndRecountOverTheWire) {
  Graph mirror = erdos_renyi_gnm(600, 2400, 31);

  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(600, 2400, 31));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  // Feature detection: health advertises the protocol version and the
  // capability this test is about to use.
  Json health_req = Json::object();
  health_req["op"] = "health";
  const Json health = client.request(health_req);
  EXPECT_EQ(health.get_int("protocol", 0), svc::kProtocolVersion);
  EXPECT_TRUE(client.has_capability("mutate_graph"));

  // Retained incremental count.
  Json seed_req = count_request("g", "U5-1", 4, 17);
  seed_req["options"]["incremental"] = true;
  const Json seeded = client.request(seed_req);
  ASSERT_TRUE(seeded.get_bool("ok"));
  const std::int64_t job = seeded.get_int("job");

  // Stale optimistic-concurrency token: typed category plus the
  // current version, so the client can refresh and resend.
  Json delta = Json::object();
  Json remove = Json::array();
  const Edge gone = edge_list(mirror).front();
  Json pair = Json::array();
  pair.push_back(static_cast<std::int64_t>(gone.first));
  pair.push_back(static_cast<std::int64_t>(gone.second));
  remove.push_back(std::move(pair));
  delta["remove"] = std::move(remove);

  Json stale = Json::object();
  stale["op"] = "mutate_graph";
  stale["graph"] = "g";
  stale["expect_version"] = 9;
  stale["delta"] = delta;
  const Json refused = client.request(stale);
  EXPECT_FALSE(refused.get_bool("ok", true));
  EXPECT_EQ(refused.get_string("category"), "stale_version");
  EXPECT_EQ(refused.get_int("current_version", -1), 0);

  // Correct token: the mutation lands and reports the new version.
  const Json mutated = client.mutate_graph("g", delta, /*expect_version=*/0);
  ASSERT_TRUE(mutated.get_bool("ok"));
  EXPECT_EQ(mutated.get_int("version"), 1);
  EXPECT_EQ(mutated.get_int("applied_edges"), 1);

  // Recount over the wire: bit-identical to the direct full pass on
  // the mutated graph, with the dirty-set economics in the reply.
  GraphDelta applied;
  applied.remove(gone.first, gone.second);
  mirror.apply(applied);
  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 17;
  direct.execution.threads = 1;
  const CountResult expected =
      count_template(mirror, catalog_entry("U5-1").tree, direct);

  Json recount = Json::object();
  recount["op"] = "recount";
  recount["recount_of"] = job;
  const Json response = client.request(recount);
  ASSERT_TRUE(response.get_bool("ok"));
  EXPECT_EQ(response.get_double("estimate"), expected.estimate);
  const Json* stats = response.find("delta");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->get_int("graph_version"), 1);
  EXPECT_EQ(stats->get_int("applied_edges"), 1);
  EXPECT_GT(stats->get_int("dirty_vertices"), 0);
  server.stop();
}

TEST(SvcServer, StatusHoldsNoGraphCopiesAfterMutateHeavyRun) {
  Graph mirror = erdos_renyi_gnm(500, 2000, 37);
  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(500, 2000, 37));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  Json seed_req = count_request("g", "U5-1", 2, 5);
  seed_req["options"]["incremental"] = true;
  const Json seeded = client.request(seed_req);
  ASSERT_TRUE(seeded.get_bool("ok"));
  Json recount = Json::object();
  recount["op"] = "recount";
  recount["recount_of"] = seeded.get_int("job");

  // Each round supersedes a graph version and recounts; once every job
  // is idle no superseded copy may outlive its registry entry.
  for (int round = 0; round < 3; ++round) {
    const Edge gone = edge_list(mirror)[static_cast<std::size_t>(round)];
    GraphDelta delta;
    delta.remove(gone.first, gone.second);
    mirror.apply(delta);
    ASSERT_TRUE(client.mutate_graph("g", svc::delta_to_json(delta), 0)
                    .get_bool("ok"));
    ASSERT_TRUE(client.request(recount).get_bool("ok"));
  }
  const Json status = client.status();
  const Json* registry = status.find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->get_int("held_graphs", -1), 0);
  EXPECT_EQ(registry->get_int("held_bytes", -1), 0);
  server.stop();
}

TEST(SvcServer, MalformedRequestsGetTypedErrors) {
  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(100, 300, 1));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  Json bogus = Json::object();
  bogus["op"] = "frobnicate";
  EXPECT_FALSE(client.request(bogus).get_bool("ok", true));
  EXPECT_EQ(client.request(bogus).get_string("category"), "usage");

  // Unknown graph.
  const Json missing = client.request(count_request("absent", "U5-1", 1, 1));
  EXPECT_FALSE(missing.get_bool("ok", true));
  EXPECT_EQ(missing.get_string("category"), "usage");

  // Unknown option key is rejected, not silently ignored.
  Json typo = count_request("g", "U5-1", 1, 1);
  typo["options"]["iteratoins"] = 5;
  const Json rejected = client.request(typo);
  EXPECT_FALSE(rejected.get_bool("ok", true));

  // The connection survives all three errors.
  EXPECT_TRUE(client.status().get_bool("ok"));
  server.stop();
}

TEST(SvcServer, KernelFamilyKeyAcceptsOnlyFrontier) {
  // Older encoders always sent "kernel_family":"frontier"; that value
  // still decodes, any other is a typed bad request, and the server no
  // longer advertises the capability.
  svc::Server::Config config;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(300, 1200, 3));
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_FALSE(client.has_capability("kernel_family"));

  Json spmm = count_request("g", "U5-1", 2, 9);
  spmm["options"]["kernel_family"] = "spmm";
  const Json rejected = client.request(spmm);
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("category"),
            error_category_name(ErrorCategory::kBadInput));

  const Json plain = client.request(count_request("g", "U5-1", 2, 9));
  Json frontier = count_request("g", "U5-1", 2, 9);
  frontier["options"]["kernel_family"] = "frontier";
  const Json accepted = client.request(frontier);
  ASSERT_TRUE(plain.get_bool("ok"));
  ASSERT_TRUE(accepted.get_bool("ok"));
  EXPECT_EQ(accepted.get_double("estimate"), plain.get_double("estimate"));
  server.stop();
}

TEST(SvcServer, MalformedFrameCorpusGetsTypedErrorsNotCrashes) {
  svc::Server::Config config;
  svc::Server server(config);
  server.start();

  // Frame-layer garbage unsynchronizes the stream, so the server
  // replies with one typed error and closes.  Each case gets a fresh
  // raw socket; the server must survive them all.
  const auto expect_error_then_close = [&](auto&& send_garbage) {
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    send_garbage(raw);
    std::string payload;
    ASSERT_TRUE(util::read_frame(raw.fd(), &payload));
    std::optional<Json> reply = Json::parse(payload, nullptr);
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->get_bool("ok", true));
    EXPECT_EQ(reply->get_string("category"), "bad input");
    EXPECT_FALSE(util::read_frame(raw.fd(), &payload));  // then EOF
  };
  // Truncated length prefix: two bytes, then hang up.
  expect_error_then_close([](util::Socket& raw) {
    const unsigned char half[2] = {0, 0};
    ASSERT_EQ(::write(raw.fd(), half, 2), 2);
    ::shutdown(raw.fd(), SHUT_WR);
  });
  // Length prefix claiming ~4 GiB.
  expect_error_then_close([](util::Socket& raw) {
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(raw.fd(), huge, 4), 4);
  });

  // Payload-layer garbage arrives in a well-formed frame, so the
  // server replies with a typed error and KEEPS the connection — a
  // follow-up valid request must succeed on the same socket.
  const auto expect_error_then_survive = [&](const std::string& payload_in,
                                             const std::string& category) {
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    util::write_frame(raw.fd(), payload_in);
    std::string payload;
    ASSERT_TRUE(util::read_frame(raw.fd(), &payload));
    std::optional<Json> reply = Json::parse(payload, nullptr);
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->get_bool("ok", true));
    EXPECT_EQ(reply->get_string("category"), category);
    util::write_frame(raw.fd(), "{\"op\":\"status\"}");
    ASSERT_TRUE(util::read_frame(raw.fd(), &payload));
    reply = Json::parse(payload, nullptr);
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->get_bool("ok", false));
  };
  expect_error_then_survive("{{{", "bad input");  // invalid JSON
  // Raw invalid-UTF-8 bytes parse as an opaque op name and die at
  // dispatch — still a typed error, still a live connection.
  expect_error_then_survive("{\"op\": \"stat\xff\xfe\"}", "usage");
  expect_error_then_survive("{\"op\":\"status\",\"op\":\"status\"}",
                            "bad input");  // duplicate keys

  server.stop();
}

TEST(SvcServer, MidStreamDisconnectCannotKillTheDaemon) {
  svc::Server::Config config;
  config.progress_interval_seconds = 0.01;
  config.service.shutdown_grace_seconds = 0.1;
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(2500, 20000, 3));
  server.start();

  // Start a streamed long job on a raw socket, read one progress
  // frame, then vanish.  The server's next write hits a dead peer —
  // without MSG_NOSIGNAL that raises SIGPIPE and kills THIS process
  // (the server runs in-process here), failing the whole suite.
  {
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    Json request = count_request("g", "U7-2", 4000, 1);
    request["stream"] = true;
    util::write_frame(raw.fd(), request.dump());
    std::string payload;
    ASSERT_TRUE(util::read_frame(raw.fd(), &payload));
  }  // ~Socket: mid-stream disconnect
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The daemon is alive and serving fresh connections.
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_TRUE(client.status().get_bool("ok"));
  server.stop();
}

TEST(SvcServer, UnixSocketServesAndShutdownOpStopsTheServer) {
  svc::Server::Config config;
  config.port = -1;  // no TCP at all
  config.unix_path = ::testing::TempDir() + "fascia_test.sock";
  svc::Server server(config);
  server.service().registry().put("g", erdos_renyi_gnm(200, 800, 2));
  server.start();
  EXPECT_EQ(server.port(), -1);

  svc::Client client = svc::Client::connect_unix(config.unix_path);
  const Json response = client.request(count_request("g", "U5-1", 2, 1));
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_EQ(response.get_string("state"), "completed");

  const Json bye = client.shutdown();
  EXPECT_TRUE(bye.get_bool("ok"));
  EXPECT_TRUE(bye.get_bool("shutting_down"));
  EXPECT_TRUE(server.wait_shutdown_for(10.0));
  server.stop();  // idempotent with the shutdown op
}

}  // namespace
}  // namespace fascia
