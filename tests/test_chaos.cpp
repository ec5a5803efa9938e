// Chaos harness for the hardened counting service (ISSUE 7).
//
// The contract under test: every job the service ACCEPTS either
// completes bit-identically to an uninterrupted run or surfaces a
// typed error — never silently vanishes, never hangs a client —
// across load shedding, drain, graceful shutdown, kill -9 mid-job,
// torn reply frames, dropped connections, and journal write failures.
//
// Three layers:
//   * Journal unit tests (format round-trip, torn tail, corruption);
//   * in-process Service chaos (shed / drain / park-restart-resume);
//   * subprocess chaos: fork the real fascia_server daemon, SIGKILL it
//     mid-batch-job, restart on the same journal, and assert the
//     journal-replayed, checkpoint-resumed result is bit-identical to
//     the direct library call (the acceptance gate of ISSUE 7).
// Fault-injection tests (FASCIA_FAULT_INJECTION builds) additionally
// drive the wire-layer fault sites through svc::Client retries.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/counter.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "treelet/catalog.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/framing.hpp"
#include "util/socket.hpp"

#ifndef FASCIA_SERVER_BIN
#define FASCIA_SERVER_BIN ""
#endif

namespace fascia {
namespace {

using obs::Json;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---- journal format --------------------------------------------------------

TEST(Journal, RoundTripsCheckummedRecords) {
  const std::string path = temp_path("fascia_journal_rt.fjrn");
  {
    svc::Journal journal = svc::Journal::open_truncate(path);
    journal.append(svc::JournalKind::kGraph, 0, "{\"name\":\"g\"}");
    journal.append(svc::JournalKind::kAccepted, 7, "{\"op\":\"count\"}");
    journal.append(svc::JournalKind::kFinished, 7, "completed");
  }
  const svc::JournalReplay replay = svc::Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.torn_bytes, 0u);
  EXPECT_EQ(replay.records[0].kind, svc::JournalKind::kGraph);
  EXPECT_EQ(replay.records[0].payload, "{\"name\":\"g\"}");
  EXPECT_EQ(replay.records[1].kind, svc::JournalKind::kAccepted);
  EXPECT_EQ(replay.records[1].id, 7u);
  EXPECT_EQ(replay.records[2].payload, "completed");
}

TEST(Journal, AppendModePreservesExistingRecords) {
  const std::string path = temp_path("fascia_journal_app.fjrn");
  {
    svc::Journal journal = svc::Journal::open_truncate(path);
    journal.append(svc::JournalKind::kAccepted, 1, "a");
  }
  {
    svc::Journal journal = svc::Journal::open_append(path);
    journal.append(svc::JournalKind::kAccepted, 2, "b");
  }
  const svc::JournalReplay replay = svc::Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].id, 1u);
  EXPECT_EQ(replay.records[1].id, 2u);
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  const std::string path = temp_path("fascia_journal_torn.fjrn");
  {
    svc::Journal journal = svc::Journal::open_truncate(path);
    journal.append(svc::JournalKind::kAccepted, 1, "first record");
    journal.append(svc::JournalKind::kAccepted, 2, "second record");
  }
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  // Chop into the middle of the second record: a crash mid-append.
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 5), 0);
  const svc::JournalReplay replay = svc::Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "first record");
  EXPECT_GT(replay.torn_bytes, 0u);
}

TEST(Journal, CorruptChecksumEndsTheScan) {
  const std::string path = temp_path("fascia_journal_crc.fjrn");
  {
    svc::Journal journal = svc::Journal::open_truncate(path);
    journal.append(svc::JournalKind::kAccepted, 1, "payload under crc");
    journal.append(svc::JournalKind::kAccepted, 2, "never reached");
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  // Flip the first payload byte (offset 20: after magic+kind+id+len).
  const char evil = 'X';
  ASSERT_EQ(::pwrite(fd, &evil, 1, 20), 1);
  ::close(fd);
  const svc::JournalReplay replay = svc::Journal::replay(path);
  EXPECT_EQ(replay.records.size(), 0u);
  EXPECT_GT(replay.torn_bytes, 0u);
}

TEST(Journal, MissingFileYieldsEmptyReplay) {
  const svc::JournalReplay replay =
      svc::Journal::replay(temp_path("fascia_journal_never_written.fjrn"));
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.bytes, 0u);
}

// ---- in-process service chaos ----------------------------------------------

svc::JobSpec batch_spec(int iterations, const std::string& request_id) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kBatch;
  spec.graph = "g";
  sched::BatchJob job;
  job.tmpl = catalog_entry("U7-1").tree;
  job.iterations = iterations;
  spec.batch_jobs.push_back(job);
  spec.batch_options.seed = 77;
  spec.batch_options.num_threads = 1;
  spec.priority = svc::Priority::kBatch;
  spec.request_id = request_id;
  return spec;
}

svc::JobSpec interactive_spec() {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCount;
  spec.graph = "g";
  spec.tmpl = catalog_entry("U5-1").tree;
  spec.options.sampling.iterations = 2;
  spec.options.sampling.seed = 5;
  spec.options.execution.threads = 1;
  spec.priority = svc::Priority::kInteractive;
  return spec;
}

bool wait_for_state(svc::Service& service, svc::JobId id, svc::JobState state,
                    double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (service.info(id).state == state) return true;
    sleep_ms(2);
  }
  return false;
}

TEST(ChaosService, BatchShedsWithRetryAfterWhileInteractiveFlows) {
  svc::Service::Config config;
  config.workers = 1;
  config.max_queued_batch = 1;
  config.work_dir = temp_path("chaos_shed_work");
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(1500, 9000, 3));

  const svc::JobId running = service.submit(batch_spec(1500, "run"));
  ASSERT_TRUE(
      wait_for_state(service, running, svc::JobState::kRunning, 10.0));
  const svc::JobId queued = service.submit(batch_spec(10, "queued"));
  try {
    service.submit(batch_spec(10, "shed-me"));
    FAIL() << "expected OverloadedError from a full batch queue";
  } catch (const svc::OverloadedError& e) {
    EXPECT_GT(e.retry_after_seconds(), 0.0);
  }

  // The point of shedding batch work: interactive jobs still flow (the
  // saturated worker preempts the running batch job for this).
  const svc::JobId urgent = service.submit(interactive_spec());
  EXPECT_EQ(service.wait(urgent).state, svc::JobState::kCompleted);

  const svc::Service::Health health = service.health();
  EXPECT_GE(health.shed_total, 1u);
  service.cancel(running);
  service.cancel(queued);
}

TEST(ChaosService, RequestIdDedupsResubmits) {
  svc::Service::Config config;
  config.workers = 1;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));
  const svc::JobId first = service.submit(batch_spec(3, "same-token"));
  const svc::JobId second = service.submit(batch_spec(3, "same-token"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.wait(first).state, svc::JobState::kCompleted);
}

TEST(ChaosService, DrainParksBatchWorkAndRejectsNewSubmits) {
  svc::Service::Config config;
  config.workers = 1;
  config.work_dir = temp_path("chaos_drain_work");
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(1500, 9000, 3));

  const svc::JobId id = service.submit(batch_spec(2000, "drain-1"));
  ASSERT_TRUE(wait_for_state(service, id, svc::JobState::kRunning, 10.0));
  service.drain();
  EXPECT_TRUE(service.draining());

  // wait() must not hang across a drain: it returns the parked,
  // non-terminal snapshot.
  const svc::JobInfo parked = service.wait(id);
  EXPECT_FALSE(svc::job_state_terminal(parked.state));

  EXPECT_THROW(service.submit(batch_spec(2, "post-drain")),
               svc::OverloadedError);
  // ... but a RETRY of an already-accepted request observes its
  // original job instead of being rejected.
  EXPECT_EQ(service.submit(batch_spec(2000, "drain-1")), id);
}

TEST(ChaosService, RestartResumesParkedBatchBitIdentically) {
  const std::string work = temp_path("chaos_restart_work");
  const std::string journal = temp_path("chaos_restart.fjrn");
  std::filesystem::remove_all(work);
  std::filesystem::remove(journal);

  // Reference: the uninterrupted run, straight through the library.
  const Graph graph = load_or_make("enron", "", 0.05, 1);
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = catalog_entry("U7-1").tree;
  jobs[0].iterations = 300;
  sched::BatchOptions options;
  options.seed = 77;
  options.num_threads = 1;
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  svc::Service::Config config;
  config.workers = 1;
  config.work_dir = work;
  config.journal_path = journal;
  config.shutdown_grace_seconds = 5.0;

  {
    svc::Service service(config);
    service.load_graph("g", "enron", "", 0.05, 1, false);
    const svc::JobId id = service.submit(batch_spec(300, "restart-1"));
    ASSERT_TRUE(wait_for_state(service, id, svc::JobState::kRunning, 10.0));
    sleep_ms(100);  // let a few checkpointed iterations land
    // ~Service: graceful shutdown parks the running batch job at its
    // next checkpoint; the journal keeps it resumable.
  }

  svc::Service service(config);
  EXPECT_GE(service.health().journal_replays, 1u);
  // The same request_id attaches to the replayed job.
  const svc::JobId id = service.submit(batch_spec(300, "restart-1"));
  const svc::JobInfo done = service.wait(id);
  ASSERT_EQ(done.state, svc::JobState::kCompleted);
  const sched::BatchResult result = service.batch_result(id);
  // Bit-identical, not approximately equal: counter-mode RNG makes the
  // resumed run reproduce the uninterrupted one exactly.
  EXPECT_EQ(result.estimate, expected.estimate);
  ASSERT_EQ(result.jobs.size(), expected.jobs.size());
  EXPECT_EQ(result.jobs[0].estimate, expected.jobs[0].estimate);
}

// ---- client deadlines ------------------------------------------------------

TEST(ChaosClient, OpTimeoutSurfacesTypedErrorNotAHang) {
  util::Listener listener = util::Listener::tcp("127.0.0.1", 0);
  std::thread acceptor([&] {
    util::Socket peer = listener.accept();
    if (!peer.valid()) return;
    // Read the request, then go mute: never reply.
    std::string sink;
    try {
      while (util::read_frame(peer.fd(), &sink)) {
      }
    } catch (const std::exception&) {
    }
  });

  svc::Client::RetryOptions retry;
  retry.max_attempts = 1;
  retry.op_timeout_seconds = 0.3;
  svc::Client client =
      svc::Client::connect_tcp("127.0.0.1", listener.port(), retry);
  try {
    client.status();
    FAIL() << "expected a timeout error from the mute server";
  } catch (const Error& e) {
    EXPECT_EQ(e.context(), util::kTimeoutContext);
  }
  client.close();  // acceptor sees EOF and winds down
  acceptor.join();
  listener.close();
}

// ---- subprocess chaos: kill -9 mid-job, restart, bit-identical -------------

pid_t spawn_server(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& log_path) {
  // A stale log from an earlier run still names an OLD port;
  // read_listening_port must never be able to win the race against the
  // child's O_TRUNC and connect to a dead (or leaked) server.
  std::filesystem::remove(log_path);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
  }
  std::vector<std::string> all;
  all.push_back(bin);
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(all.size() + 1);
  for (std::string& arg : all) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  ::_exit(127);
}

int read_listening_port(const std::string& log_path) {
  const std::string prefix = "listening tcp 127.0.0.1:";
  for (int attempt = 0; attempt < 400; ++attempt) {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) == 0) {
        return std::stoi(line.substr(prefix.size()));
      }
    }
    sleep_ms(25);
  }
  return -1;
}

/// Guarantees no daemon outlives the test: an ASSERT failure mid-test
/// must not leak a server that later runs would rediscover through
/// stale logs or a shared journal path.
struct ServerGuard {
  pid_t pid = -1;
  ~ServerGuard() {
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

void reap_with_deadline(pid_t pid) {
  for (int attempt = 0; attempt < 600; ++attempt) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    sleep_ms(25);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

Json wire_batch_request(int iterations, const std::string& request_id) {
  Json request = Json::object();
  request["op"] = "run_batch";
  request["graph"] = "g";
  request["priority"] = "batch";
  request["request_id"] = request_id;
  Json jobs = Json::array();
  Json job = Json::object();
  Json tmpl = Json::object();
  tmpl["name"] = "U7-1";
  job["template"] = std::move(tmpl);
  job["iterations"] = iterations;
  jobs.push_back(std::move(job));
  request["jobs"] = std::move(jobs);
  Json options = Json::object();
  options["seed"] = 77;
  options["threads"] = 1;
  request["options"] = std::move(options);
  return request;
}

TEST(ChaosServer, Kill9MidJobThenRestartReplaysBitIdentically) {
  const std::string bin = FASCIA_SERVER_BIN;
  if (bin.empty() || ::access(bin.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "fascia_server binary not available";
  }
  const std::string work = temp_path("chaos_k9_work");
  const std::string journal = temp_path("chaos_k9.fjrn");
  std::filesystem::remove_all(work);
  std::filesystem::remove(journal);
  const std::vector<std::string> args = {
      "--port", "0",         "--workers",       "1",  "--work-dir", work,
      "--journal", journal,  "--grace-seconds", "0.5"};

  // Reference: the uninterrupted run through the library.
  const Graph graph = load_or_make("enron", "", 0.05, 1);
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = catalog_entry("U7-1").tree;
  jobs[0].iterations = 400;
  sched::BatchOptions options;
  options.seed = 77;
  options.num_threads = 1;
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  const pid_t pid = spawn_server(bin, args, temp_path("chaos_k9_a.log"));
  ASSERT_GT(pid, 0);
  ServerGuard guard_a{pid};
  const int port = read_listening_port(temp_path("chaos_k9_a.log"));
  ASSERT_GT(port, 0) << "server did not come up";

  {
    svc::Client client = svc::Client::connect_tcp("127.0.0.1", port);
    ASSERT_TRUE(client.load_graph("g", "enron", "", 0.05, 1).get_bool("ok"));
  }
  std::thread submitter([&] {
    try {
      svc::Client client = svc::Client::connect_tcp("127.0.0.1", port);
      (void)client.request(wire_batch_request(400, "k9-1"));
    } catch (const std::exception&) {
      // The SIGKILL guarantees a transport error here; that is the
      // crash being injected, not a test failure.
    }
  });

  // Wait until the job is observably running, then murder the daemon.
  bool running = false;
  svc::Client poller = svc::Client::connect_tcp("127.0.0.1", port);
  for (int attempt = 0; attempt < 2000 && !running; ++attempt) {
    const Json status = poller.status();
    const Json* wire_jobs = status.find("jobs");
    if (wire_jobs != nullptr) {
      for (const Json& info : wire_jobs->elements()) {
        running = running || info.get_string("state") == "running";
      }
    }
    if (!running) sleep_ms(5);
  }
  ASSERT_TRUE(running) << "batch job never started";
  sleep_ms(100);  // give the checkpointer a few iterations
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ::waitpid(pid, nullptr, 0);
  poller.close();
  submitter.join();

  // Restart on the same journal + work dir: the accepted job replays
  // and resumes from its checkpoint.
  const pid_t pid2 = spawn_server(bin, args, temp_path("chaos_k9_b.log"));
  ASSERT_GT(pid2, 0);
  ServerGuard guard_b{pid2};
  const int port2 = read_listening_port(temp_path("chaos_k9_b.log"));
  ASSERT_GT(port2, 0) << "restarted server did not come up";

  svc::Client client = svc::Client::connect_tcp("127.0.0.1", port2);
  const Json health = client.health();
  ASSERT_TRUE(health.get_bool("ok"));
  EXPECT_GE(health.get_int("journal_replays"), 1);

  // Retrying the SAME request_id attaches to the recovered job and
  // returns a result bit-identical to the uninterrupted reference.
  const Json reply = client.request(wire_batch_request(400, "k9-1"));
  ASSERT_TRUE(reply.get_bool("ok")) << reply.dump();
  EXPECT_EQ(reply.get_string("state"), "completed");
  EXPECT_EQ(reply.get_double("estimate"), expected.estimate);
  const Json* job_results = reply.find("jobs");
  ASSERT_NE(job_results, nullptr);
  ASSERT_EQ(job_results->size(), 1u);
  EXPECT_EQ(job_results->elements()[0].get_double("estimate"),
            expected.jobs[0].estimate);

  (void)client.shutdown();
  reap_with_deadline(pid2);
}

// ---- wire-layer fault injection --------------------------------------------

#ifdef FASCIA_FAULT_INJECTION

Json wire_count_request(int iterations, std::uint64_t seed,
                        const std::string& request_id) {
  Json request = Json::object();
  request["op"] = "count";
  request["graph"] = "g";
  request["request_id"] = request_id;
  Json tmpl = Json::object();
  tmpl["name"] = "U5-2";
  request["template"] = std::move(tmpl);
  Json options = Json::object();
  options["iterations"] = iterations;
  options["seed"] = seed;
  options["threads"] = 1;
  request["options"] = std::move(options);
  return request;
}

class ChaosFault : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(ChaosFault, TornAndDroppedRepliesAreRetriedToTheSameResult) {
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

  svc::Client::RetryOptions retry;
  retry.max_attempts = 4;
  retry.backoff_initial_seconds = 0.01;
  retry.backoff_max_seconds = 0.05;
  svc::Client client =
      svc::Client::connect_tcp("127.0.0.1", server.port(), retry);

  // Torn terminal frame: the client sees a truncated payload, retries
  // with its request_id, and the dedup map hands back the original
  // (finished) job.
  fault::arm("svc.send.torn", 1);
  Json reply = client.request(wire_count_request(6, 29, "torn-1"));
  ASSERT_TRUE(reply.get_bool("ok")) << reply.dump();
  EXPECT_EQ(reply.get_double("estimate"), expected.estimate);
  EXPECT_GE(fault::hits("svc.send.torn"), 1);

  // Mid-stream disconnect instead of a reply.
  fault::arm("svc.send.disconnect", 1);
  reply = client.request(wire_count_request(6, 29, "disc-1"));
  ASSERT_TRUE(reply.get_bool("ok")) << reply.dump();
  EXPECT_EQ(reply.get_double("estimate"), expected.estimate);

  // Crash window between job completion and the terminal frame: the
  // retried request_id must recover the FINISHED result, not re-run.
  fault::arm("svc.reply.drop", 1);
  reply = client.request(wire_count_request(6, 29, "drop-1"));
  ASSERT_TRUE(reply.get_bool("ok")) << reply.dump();
  EXPECT_EQ(reply.get_double("estimate"), expected.estimate);

  server.stop();
}

TEST_F(ChaosFault, JournalAppendFailureRejectsTheJobNotTheService) {
  const std::string journal = temp_path("chaos_jfail.fjrn");
  std::filesystem::remove(journal);
  svc::Service::Config config;
  config.workers = 1;
  config.journal_path = journal;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));

  fault::arm("journal.append", 1);
  try {
    service.submit(batch_spec(2, "doomed"));
    FAIL() << "expected the accept-time journal failure to reject the job";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kResource);
  }
  // The rejection is complete: no half-admitted record, dedup token
  // free again, and the service keeps serving.
  EXPECT_TRUE(service.jobs().empty());
  const svc::JobId id = service.submit(batch_spec(2, "doomed"));
  EXPECT_EQ(service.wait(id).state, svc::JobState::kCompleted);
}

#endif  // FASCIA_FAULT_INJECTION

}  // namespace
}  // namespace fascia
