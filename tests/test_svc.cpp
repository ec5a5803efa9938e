// Counting service (src/svc/): graph registry semantics (LRU eviction
// under a byte budget, running jobs surviving eviction), per-job
// cancellation isolation, concurrent multi-session use of the shared
// obs registry, priority scheduling with preemption, and the
// checkpoint-namespacing contract that makes one work directory safe
// for concurrent jobs.  The recurring acceptance bar: everything the
// service does must be invisible in the numbers — a job through the
// service is bit-identical to the direct library call.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/counter.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "run/checkpoint.hpp"
#include "run/memory.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "treelet/catalog.hpp"
#include "treelet/partition.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

std::string temp_dir(const char* tag) {
  std::string path = ::testing::TempDir() + "fascia_svc_" + tag;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

svc::JobSpec count_spec(const std::string& graph, const TreeTemplate& tmpl,
                        int iterations, std::uint64_t seed = 7) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCount;
  spec.graph = graph;
  spec.tmpl = tmpl;
  spec.options.sampling.iterations = iterations;
  spec.options.sampling.seed = seed;
  spec.options.execution.threads = 1;
  return spec;
}

// ---- registry --------------------------------------------------------------

TEST(SvcRegistry, PutGetEraseRoundTrip) {
  svc::GraphRegistry registry;
  EXPECT_EQ(registry.get("g"), nullptr);
  registry.put("g", erdos_renyi_gnm(100, 300, 1));
  auto graph = registry.get("g");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->num_vertices(), 100);
  EXPECT_TRUE(registry.contains("g"));
  EXPECT_TRUE(registry.erase("g"));
  EXPECT_FALSE(registry.contains("g"));
  EXPECT_FALSE(registry.erase("g"));
  // The handle we took out survives the erase.
  EXPECT_EQ(graph->num_vertices(), 100);
}

TEST(SvcRegistry, LruEvictionUnderBytePressure) {
  const Graph probe = erdos_renyi_gnm(400, 1200, 1);
  // Budget fits two graphs of this size but not three.
  svc::GraphRegistry registry(probe.bytes() * 2 + probe.bytes() / 2);
  registry.put("a", erdos_renyi_gnm(400, 1200, 1));
  registry.put("b", erdos_renyi_gnm(400, 1200, 2));
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_TRUE(registry.contains("b"));

  // Touch "a" so "b" is the least recently used, then overflow.
  ASSERT_NE(registry.get("a"), nullptr);
  registry.put("c", erdos_renyi_gnm(400, 1200, 3));
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("b"));
  EXPECT_TRUE(registry.contains("c"));
  EXPECT_GE(registry.stats().evictions, 1u);
  EXPECT_LE(registry.stats().resident_bytes, registry.stats().budget_bytes);
}

TEST(SvcRegistry, EvictedGraphStaysAliveForHolders) {
  const Graph probe = erdos_renyi_gnm(500, 1500, 1);
  svc::GraphRegistry registry(probe.bytes() + probe.bytes() / 2);
  auto held = registry.put("old", erdos_renyi_gnm(500, 1500, 1));
  registry.put("new1", erdos_renyi_gnm(500, 1500, 2));
  registry.put("new2", erdos_renyi_gnm(500, 1500, 3));
  EXPECT_FALSE(registry.contains("old"));
  // The shared_ptr keeps the evicted graph fully usable.
  EXPECT_EQ(held->num_vertices(), 500);
  EXPECT_GT(held->num_edges(), 0);
}

TEST(SvcRegistry, PartitionCacheHitsOnRepeat) {
  svc::GraphRegistry registry;
  const TreeTemplate tmpl = catalog_entry("U7-2").tree;
  auto first = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                     true, -1);
  auto second = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                      true, -1);
  EXPECT_EQ(first.get(), second.get());  // same cached object
  // A different root is a different plan.
  auto rooted = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                      true, 0);
  EXPECT_NE(first.get(), rooted.get());
  EXPECT_GE(registry.stats().hits, 1u);
}

TEST(SvcRegistry, ReorderPermutationCachedPerMode) {
  svc::GraphRegistry registry;
  registry.put("g", chung_lu(600, 2400, 2.3, 60, 5));
  auto degree1 = registry.reorder_of("g", ReorderMode::kDegree);
  ASSERT_NE(degree1, nullptr);
  EXPECT_EQ(degree1->size(), 600);
  auto degree2 = registry.reorder_of("g", ReorderMode::kDegree);
  EXPECT_EQ(degree1.get(), degree2.get());
  EXPECT_EQ(registry.reorder_of("g", ReorderMode::kNone), nullptr);
  EXPECT_EQ(registry.reorder_of("absent", ReorderMode::kDegree), nullptr);
}

// ---- service: results match the direct library call ------------------------

TEST(SvcService, CountJobBitIdenticalToDirectCall) {
  const Graph graph = erdos_renyi_gnm(900, 3600, 11);
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;

  CountOptions direct;
  direct.sampling.iterations = 6;
  direct.sampling.seed = 7;
  direct.execution.threads = 1;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(900, 3600, 11));
  svc::Session session(service);
  const CountResult got = session.count(count_spec("g", tmpl, 6));

  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
  EXPECT_EQ(got.relative_stderr, expected.relative_stderr);
}

TEST(SvcService, GddJobMatchesDirectGraphletDegrees) {
  const Graph graph = erdos_renyi_gnm(300, 1200, 3);
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();

  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 5;
  direct.execution.threads = 1;
  direct.root = orbit;
  const CountResult expected = graphlet_degrees(graph, tmpl, orbit, direct);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));
  svc::Session session(service);
  svc::JobSpec spec = count_spec("g", tmpl, 4, 5);
  spec.kind = svc::JobKind::kGdd;
  spec.options.root = orbit;
  const CountResult got = session.count(std::move(spec));

  EXPECT_EQ(got.estimate, expected.estimate);
  ASSERT_EQ(got.vertex_counts.size(), expected.vertex_counts.size());
  for (std::size_t v = 0; v < expected.vertex_counts.size(); ++v) {
    ASSERT_EQ(got.vertex_counts[v], expected.vertex_counts[v]) << v;
  }
}

TEST(SvcService, BatchJobMatchesDirectRunBatch) {
  const Graph graph = erdos_renyi_gnm(500, 2000, 17);
  std::vector<sched::BatchJob> jobs;
  for (const char* name : {"U5-1", "U5-2"}) {
    sched::BatchJob job;
    job.tmpl = catalog_entry(name).tree;
    job.iterations = 4;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions options;
  options.seed = 23;
  options.num_threads = 1;
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(500, 2000, 17));
  svc::Session session(service);
  svc::JobSpec spec;
  spec.graph = "g";
  spec.batch_jobs = jobs;
  spec.batch_options = options;
  spec.preemptible = false;
  const sched::BatchResult got = session.run_batch(std::move(spec));

  ASSERT_EQ(got.jobs.size(), expected.jobs.size());
  for (std::size_t j = 0; j < expected.jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].estimate, expected.jobs[j].estimate) << j;
    EXPECT_EQ(got.jobs[j].iterations, expected.jobs[j].iterations) << j;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

// ---- service: lifecycle, cancellation, admission ---------------------------

TEST(SvcService, SubmitRejectsUnknownGraphAndBadSpecs) {
  svc::Service service({});
  EXPECT_THROW(service.submit(count_spec("nope", TreeTemplate::path(3), 1)),
               Error);

  service.registry().put("g", erdos_renyi_gnm(50, 100, 1));
  svc::JobSpec gdd = count_spec("g", TreeTemplate::path(4), 1);
  gdd.kind = svc::JobKind::kGdd;  // missing orbit root
  EXPECT_THROW(service.submit(std::move(gdd)), Error);

  svc::JobSpec batch;
  batch.kind = svc::JobKind::kBatch;
  batch.graph = "g";  // empty batch_jobs
  EXPECT_THROW(service.submit(std::move(batch)), Error);
}

TEST(SvcService, CancellingOneJobLeavesAnotherUntouched) {
  svc::Service::Config config;
  config.workers = 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(2500, 20000, 3));

  // Long victim: enough iterations that cancel lands mid-run.
  svc::JobSpec victim = count_spec("g", catalog_entry("U7-2").tree, 4000);
  const svc::JobId victim_id = service.submit(std::move(victim));
  svc::JobSpec bystander = count_spec("g", catalog_entry("U5-1").tree, 5);
  const svc::JobId bystander_id = service.submit(std::move(bystander));

  EXPECT_TRUE(service.cancel(victim_id));
  const svc::JobInfo victim_done = service.wait(victim_id);
  const svc::JobInfo bystander_done = service.wait(bystander_id);

  EXPECT_EQ(victim_done.state, svc::JobState::kCancelled);
  ASSERT_EQ(bystander_done.state, svc::JobState::kCompleted);
  const CountResult result = service.count_result(bystander_id);
  EXPECT_EQ(result.run.completed_iterations, 5);
  EXPECT_EQ(result.status(), RunStatus::kCompleted);
}

TEST(SvcService, AdmissionRejectsJobsThatCanNeverFit) {
  svc::Service::Config config;
  config.memory_budget_bytes = 1024;  // absurdly tight
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
  svc::JobSpec spec = count_spec("g", catalog_entry("U10-2").tree, 1);
  EXPECT_THROW(service.submit(std::move(spec)), Error);
}

TEST(SvcService, HybridAdmissionQuotesEveryOuterCopy) {
  // outer_copies = 0 runs every thread as an outer copy with private
  // tables; admission must price all of them.
  const TreeTemplate tmpl = catalog_entry("U7-1").tree;
  const Graph graph = erdos_renyi_gnm(1000, 4000, 3);
  svc::Service service({});
  service.registry().put("g", graph);
  svc::JobSpec spec = count_spec("g", tmpl, 4);
  spec.options.execution.outer_copies = 0;
  spec.options.execution.threads = 4;
  const CountOptions options = spec.options;
  const svc::JobId id = service.submit(std::move(spec));

  const std::size_t per_copy = run::estimate_peak_bytes(
      partition_template(tmpl, options.execution.partition,
                         options.execution.share_tables, options.root),
      tmpl.size(), graph.num_vertices(), options.execution.table,
      /*labeled=*/false);
  EXPECT_GE(service.info(id).estimated_peak_bytes, 4 * per_copy);
  ASSERT_EQ(service.wait(id).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.count_result(id).layout.outer_copies, 4);
}

TEST(SvcService, AdmissionRequotesSuccinctInsteadOfRejecting) {
  const TreeTemplate tmpl = catalog_entry("U7-1").tree;
  const Graph graph = erdos_renyi_gnm(5000, 20000, 1);

  // Learn both quotes from an unbounded service: admission records the
  // modeled peak for the requested encoding in JobInfo.
  std::size_t compact_quote = 0;
  std::size_t succinct_quote = 0;
  {
    svc::Service service({});
    service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
    svc::JobSpec compact = count_spec("g", tmpl, 2);
    compact.options.execution.table = TableKind::kCompact;
    svc::JobSpec succinct = count_spec("g", tmpl, 2);
    succinct.options.execution.table = TableKind::kSuccinct;
    const svc::JobId a = service.submit(std::move(compact));
    const svc::JobId b = service.submit(std::move(succinct));
    compact_quote = service.info(a).estimated_peak_bytes;
    succinct_quote = service.info(b).estimated_peak_bytes;
    service.wait(a);
    service.wait(b);
  }
  ASSERT_LT(succinct_quote, compact_quote);

  // Under a budget only the succinct encoding satisfies, a compact job
  // must be admitted by re-quoting — the run layer's ladder would move
  // to succinct anyway — with the spec rewritten so the run uses the
  // encoding it was admitted under, and the numbers must match the
  // direct succinct call bit for bit.
  CountOptions direct;
  direct.sampling.iterations = 2;
  direct.sampling.seed = 7;
  direct.execution.threads = 1;
  direct.execution.table = TableKind::kSuccinct;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service::Config config;
  config.memory_budget_bytes = (succinct_quote + compact_quote) / 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
  svc::JobSpec spec = count_spec("g", tmpl, 2);
  spec.options.execution.table = TableKind::kCompact;
  const svc::JobId id = service.submit(std::move(spec));
  EXPECT_EQ(service.info(id).estimated_peak_bytes, succinct_quote);
  EXPECT_EQ(service.wait(id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(id);
  EXPECT_EQ(got.run.table_used, TableKind::kSuccinct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

TEST(SvcService, ShutdownCancelsQueuedJobs) {
  svc::Service::Config config;
  config.workers = 1;
  auto service = std::make_unique<svc::Service>(config);
  service->registry().put("g", erdos_renyi_gnm(2500, 20000, 3));
  const svc::JobId running =
      service->submit(count_spec("g", catalog_entry("U7-2").tree, 4000));
  const svc::JobId queued =
      service->submit(count_spec("g", catalog_entry("U5-1").tree, 3));
  service->shutdown();
  EXPECT_TRUE(job_state_terminal(service->info(running).state));
  EXPECT_TRUE(job_state_terminal(service->info(queued).state));
  service.reset();  // double-shutdown via destructor must be safe
}

// ---- preemption ------------------------------------------------------------

TEST(SvcService, PreemptedBatchJobResumesToBitIdenticalResult) {
  const int kIterations = 60;
  const TreeTemplate tmpl = catalog_entry("U10-2").tree;  // k = 10 >= 8
  const Graph graph = erdos_renyi_gnm(600, 2400, 19);

  CountOptions direct;
  direct.sampling.iterations = kIterations;
  direct.sampling.seed = 31;
  direct.execution.threads = 1;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service::Config config;
  config.workers = 1;  // force contention
  config.work_dir = temp_dir("preempt");
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(600, 2400, 19));

  svc::JobSpec low = count_spec("g", tmpl, kIterations, 31);
  low.priority = svc::Priority::kBatch;
  low.preemptible = true;
  low.options.run.checkpoint_every = 1;  // checkpoint at every boundary
  const svc::JobId low_id = service.submit(std::move(low));

  // Wait until the batch job has written its first checkpoint before
  // demanding the worker: a preemption landing before any checkpoint
  // restarts from scratch (still bit-identical, but run.resumed would
  // be false and the resume path untested).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool checkpointed = false;
  while (!checkpointed && std::chrono::steady_clock::now() < deadline) {
    for (const auto& entry :
         std::filesystem::directory_iterator(config.work_dir)) {
      checkpointed =
          checkpointed || entry.path().extension() == ".ckpt";
    }
    if (!checkpointed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(checkpointed) << "batch job never wrote a checkpoint";
  svc::JobSpec high = count_spec("g", catalog_entry("U5-1").tree, 3);
  high.priority = svc::Priority::kInteractive;
  const svc::JobId high_id = service.submit(std::move(high));

  const svc::JobInfo high_done = service.wait(high_id);
  EXPECT_EQ(high_done.state, svc::JobState::kCompleted);

  const svc::JobInfo low_done = service.wait(low_id);
  ASSERT_EQ(low_done.state, svc::JobState::kCompleted);
  EXPECT_GE(low_done.preemptions, 1);  // it really was preempted

  const CountResult got = service.count_result(low_id);
  EXPECT_TRUE(got.run.resumed);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    ASSERT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

// ---- checkpoint namespacing ------------------------------------------------

TEST(SvcCheckpoint, DirectoryPathsResolveToFingerprintedFiles) {
  const std::string dir = temp_dir("resolve");
  const std::string a =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindCount, 0x1234);
  const std::string b =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindCount, 0x9999);
  const std::string c =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindBatch, 0x1234);
  EXPECT_NE(a, b);  // different fingerprints never collide
  EXPECT_NE(a, c);  // nor do count and batch checkpoints
  EXPECT_EQ(a.rfind(dir, 0), 0u) << "resolved inside the directory";
  EXPECT_NE(a.find("fascia_count_"), std::string::npos);
  EXPECT_NE(c.find("fascia_batch_"), std::string::npos);

  // A plain file path (existing or not) passes through untouched.
  EXPECT_EQ(run::resolve_checkpoint_path("/tmp/x.ckpt",
                                         run::Checkpoint::kKindCount, 1),
            "/tmp/x.ckpt");
  EXPECT_EQ(
      run::resolve_checkpoint_path("", run::Checkpoint::kKindCount, 1), "");
}

TEST(SvcCheckpoint, ConcurrentJobsShareAWorkDirWithoutCollisions) {
  const std::string dir = temp_dir("shared");
  const Graph graph = erdos_renyi_gnm(400, 1600, 3);

  auto run_with_checkpoint = [&](const std::string& name,
                                 std::uint64_t seed) {
    CountOptions options;
    options.sampling.iterations = 8;
    options.sampling.seed = seed;
    options.execution.threads = 1;
    options.run.checkpoint_path = dir;  // a DIRECTORY, not a file
    options.run.checkpoint_every = 2;
    return count_template(graph, catalog_entry(name).tree, options);
  };
  const CountResult a = run_with_checkpoint("U5-1", 3);
  const CountResult b = run_with_checkpoint("U5-2", 4);
  EXPECT_GT(a.run.checkpoints_written, 0);
  EXPECT_GT(b.run.checkpoints_written, 0);

  // Two distinct checkpoint files: the jobs never overwrote each other.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().find("fascia_count_"),
              std::string::npos);
    ++files;
  }
  EXPECT_EQ(files, 2u);

  // And each job resumes from ITS file despite the shared directory.
  CountOptions resume;
  resume.sampling.iterations = 8;
  resume.sampling.seed = 3;
  resume.execution.threads = 1;
  resume.run.checkpoint_path = dir;
  resume.run.resume = true;
  const CountResult resumed =
      count_template(graph, catalog_entry("U5-1").tree, resume);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_EQ(resumed.estimate, a.estimate);
}

// ---- dynamic graphs: mutate_graph / recount --------------------------------

/// One removable edge plus one insertable absent pair, valid against
/// the CURRENT state of `g` (regenerate after every apply).
GraphDelta simple_delta(const Graph& g, unsigned salt) {
  Xoshiro256 rng(1234 + salt);
  const EdgeList edges = edge_list(g);
  GraphDelta delta;
  const Edge gone =
      edges[rng.bounded(static_cast<std::uint32_t>(edges.size()))];
  delta.remove(gone.first, gone.second);
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  while (true) {
    const VertexId u = static_cast<VertexId>(rng.bounded(n));
    const VertexId v = static_cast<VertexId>(rng.bounded(n));
    if (u == v || g.has_edge(u, v)) continue;
    if (std::min(u, v) == gone.first && std::max(u, v) == gone.second) {
      continue;
    }
    delta.insert(u, v);
    break;
  }
  return delta;
}

svc::JobSpec incremental_spec(const std::string& graph,
                              const TreeTemplate& tmpl, int iterations,
                              std::uint64_t seed = 7) {
  svc::JobSpec spec = count_spec(graph, tmpl, iterations, seed);
  spec.options.execution.incremental = true;
  return spec;
}

svc::JobSpec recount_spec(svc::JobId of) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kRecount;
  spec.recount_of = of;
  return spec;
}

TEST(SvcDelta, RecountAfterMutationMatchesDirectFullCount) {
  const TreeTemplate tmpl = catalog_entry("U5-1").tree;
  Graph mirror = erdos_renyi_gnm(800, 3200, 21);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(800, 3200, 21));

  const svc::JobId base_id =
      service.submit(incremental_spec("g", tmpl, 5, 13));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.health().retained_runs, 1u);
  EXPECT_EQ(service.graph_version("g"), 0u);

  const GraphDelta delta = simple_delta(mirror, 0);
  const svc::Service::Mutation mutation =
      service.mutate_graph("g", 0, delta);
  EXPECT_EQ(mutation.version, 1u);
  EXPECT_EQ(mutation.applied_edges, delta.size());
  EXPECT_EQ(service.graph_version("g"), 1u);

  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(recount_id);
  EXPECT_EQ(got.delta.applied_edges, delta.size());
  EXPECT_GT(got.delta.dirty_vertices, 0u);
  EXPECT_GT(got.delta.stages_recomputed, 0u);

  // Same seed, full pass over the mutated graph: must be bit-identical.
  mirror.apply(delta);
  CountOptions direct;
  direct.sampling.iterations = 5;
  direct.sampling.seed = 13;
  direct.execution.threads = 1;
  const CountResult expected = count_template(mirror, tmpl, direct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

TEST(SvcDelta, StaleExpectVersionRefusesWithoutMutating) {
  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(200, 600, 5));
  const Graph mirror = erdos_renyi_gnm(200, 600, 5);
  const GraphDelta delta = simple_delta(mirror, 1);

  try {
    service.mutate_graph("g", 7, delta);  // current version is 0
    FAIL() << "expected StaleVersionError";
  } catch (const svc::StaleVersionError& e) {
    EXPECT_EQ(e.current_version(), 0u);
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
  }
  EXPECT_EQ(service.graph_version("g"), 0u);  // nothing mutated

  // The documented recovery: refresh the version and resend.
  EXPECT_EQ(service.mutate_graph("g", 0, delta).version, 1u);
  const GraphDelta next = simple_delta(*service.registry().get("g"), 2);
  EXPECT_EQ(service.mutate_graph("g", 1, next).version, 2u);

  EXPECT_THROW(service.mutate_graph("absent", 0, delta), Error);
}

TEST(SvcDelta, RecountComposesAcrossMultipleMutations) {
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;
  Graph mirror = erdos_renyi_gnm(700, 2800, 9);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(700, 2800, 9));
  const svc::JobId base_id =
      service.submit(incremental_spec("g", tmpl, 4, 19));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);

  // Two mutations land before the handle recounts: the service must
  // compose the delta-log suffix, not just the last edit.
  for (unsigned round = 0; round < 2; ++round) {
    const GraphDelta delta = simple_delta(mirror, 10 + round);
    service.mutate_graph("g", round, delta);
    mirror.apply(delta);
  }

  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(recount_id);

  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 19;
  direct.execution.threads = 1;
  const CountResult expected = count_template(mirror, tmpl, direct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);

  // The handle advanced to the current version: a further mutation and
  // recount still work from the same retained run.
  const GraphDelta more = simple_delta(mirror, 30);
  service.mutate_graph("g", 2, more);
  mirror.apply(more);
  const svc::JobId again = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(again).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.count_result(again).estimate,
            count_template(mirror, tmpl, direct).estimate);
}

TEST(SvcDelta, HandleBehindTruncatedDeltaLogFailsStale) {
  svc::Service::Config config;
  config.delta_log_limit = 1;  // only the latest mutation is replayable
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 7));
  Graph mirror = erdos_renyi_gnm(300, 1200, 7);

  const svc::JobId base_id =
      service.submit(incremental_spec("g", catalog_entry("U5-1").tree, 3));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);

  for (unsigned round = 0; round < 2; ++round) {
    const GraphDelta delta = simple_delta(mirror, 40 + round);
    service.mutate_graph("g", round, delta);
    mirror.apply(delta);
  }

  // The handle is at version 0; the log only reaches back to version 1.
  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  const svc::JobInfo done = service.wait(recount_id);
  EXPECT_EQ(done.state, svc::JobState::kFailed);
  EXPECT_NE(done.error.find("delta log"), std::string::npos) << done.error;

  // A stale handle is dropped, and a later recount says so at submit.
  EXPECT_EQ(service.health().retained_runs, 0u);
  try {
    service.submit(recount_spec(base_id));
    FAIL() << "expected a typed no-retained-run error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
    EXPECT_NE(std::string(e.what()).find("no retained run"),
              std::string::npos);
  }
}

TEST(SvcDelta, RetainedPoolEvictsLeastRecentlyUsed) {
  svc::Service::Config config;
  config.max_retained_runs = 1;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));

  const svc::JobId first =
      service.submit(incremental_spec("g", catalog_entry("U5-1").tree, 2));
  ASSERT_EQ(service.wait(first).state, svc::JobState::kCompleted);
  const svc::JobId second =
      service.submit(incremental_spec("g", catalog_entry("U5-2").tree, 2));
  ASSERT_EQ(service.wait(second).state, svc::JobState::kCompleted);

  // The pool holds one handle: the older run was evicted to make room.
  EXPECT_EQ(service.health().retained_runs, 1u);
  EXPECT_THROW(service.submit(recount_spec(first)), Error);

  const GraphDelta delta =
      simple_delta(*service.registry().get("g"), 50);
  service.mutate_graph("g", 0, delta);
  const svc::JobId recount_id = service.submit(recount_spec(second));
  EXPECT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
}

TEST(SvcRegistry, ReRegisterResurrectsHeldEvictedGraph) {
  const Graph probe = erdos_renyi_gnm(500, 1500, 1);
  svc::GraphRegistry registry(probe.bytes() + probe.bytes() / 2);
  auto held = registry.put("g", erdos_renyi_gnm(500, 1500, 1));
  registry.put("other", erdos_renyi_gnm(500, 1500, 2));
  EXPECT_FALSE(registry.contains("g"));  // evicted; `held` keeps it alive

  // Re-registering the same graph must resurrect the held copy, not
  // admit a second allocation the byte accounting would undercount.
  auto back = registry.put("g", erdos_renyi_gnm(500, 1500, 1));
  EXPECT_EQ(back.get(), held.get());
  EXPECT_EQ(registry.stats().resurrections, 1u);
  EXPECT_TRUE(registry.contains("g"));
  EXPECT_LE(registry.stats().resident_bytes, registry.stats().budget_bytes);
}

TEST(SvcRegistry, ReRegisterWithDifferentEdgesIsNotResurrected) {
  // Same name, version, n, m and label flag, different edges: a reload
  // must serve the new content, never the held copy of the old one.
  svc::GraphRegistry registry(1);  // every put evicts the previous graph
  auto path = registry.put("g", build_graph(4, {{0, 1}, {1, 2}, {2, 3}}));
  registry.put("h", build_graph(4, {{0, 1}}));
  EXPECT_FALSE(registry.contains("g"));  // evicted; `path` keeps it alive
  EXPECT_EQ(registry.stats().held_graphs, 1u);
  EXPECT_EQ(registry.stats().held_bytes, path->bytes());

  registry.put("g", build_graph(4, {{0, 1}, {0, 2}, {0, 3}}));  // a star
  const auto got = registry.get("g");
  ASSERT_NE(got, nullptr);
  EXPECT_NE(got.get(), path.get());
  EXPECT_TRUE(got->has_edge(0, 3));
  EXPECT_FALSE(got->has_edge(2, 3));
  EXPECT_EQ(registry.stats().resurrections, 0u);
}

TEST(SvcRegistry, ReloadThenMutateToTheSameVersionIsNotResurrected) {
  const Graph base = build_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  svc::GraphRegistry registry;
  registry.put("g", base);
  GraphDelta first;
  first.insert(0, 2);
  Graph a = *registry.get("g");
  a.apply(first);
  auto held_a = registry.put("g", a);  // version 1 via `first`

  // Reload: the replaced version-1 copy is still held, and counted.
  registry.put("g", base);
  EXPECT_EQ(registry.stats().held_graphs, 1u);
  EXPECT_EQ(registry.stats().held_bytes, held_a->bytes());

  // Version 1 again, reached by a different delta of the same size.
  GraphDelta second;
  second.insert(1, 3);
  Graph b = *registry.get("g");
  b.apply(second);
  registry.put("g", std::move(b));
  auto got = registry.get("g");
  EXPECT_NE(got.get(), held_a.get());
  EXPECT_TRUE(got->has_edge(1, 3));
  EXPECT_FALSE(got->has_edge(0, 2));
  EXPECT_EQ(registry.stats().resurrections, 0u);

  // Identical content does resurrect the held copy.
  EXPECT_EQ(registry.put("g", std::move(a)).get(), held_a.get());
  EXPECT_EQ(registry.stats().resurrections, 1u);

  // Held stats count only live copies: `got` keeps the replaced one.
  EXPECT_EQ(registry.stats().held_graphs, 1u);
  EXPECT_EQ(registry.stats().held_bytes, got->bytes());
  got.reset();
  EXPECT_EQ(registry.stats().held_graphs, 0u);
  EXPECT_EQ(registry.stats().held_bytes, 0u);
}

// ---- graph pin lifetime ----------------------------------------------------

TEST(SvcService, FinishedJobsReleaseTheirGraphVersion) {
  const TreeTemplate tmpl = catalog_entry("U5-1").tree;
  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(400, 1600, 11));
  const svc::JobId base_id = service.submit(incremental_spec("g", tmpl, 2));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);

  // Each mutate_graph + recount supersedes a version; once the recount
  // is done nothing may keep the superseded copy alive.
  for (unsigned round = 0; round < 4; ++round) {
    const std::weak_ptr<const Graph> version = service.registry().get("g");
    service.mutate_graph(
        "g", 0, simple_delta(*service.registry().get("g"), 60 + round));
    const svc::JobId id = service.submit(recount_spec(base_id));
    ASSERT_EQ(service.wait(id).state, svc::JobState::kCompleted);
    EXPECT_TRUE(version.expired()) << "round " << round;
  }

  // Every other terminal path: the job pins the version it was admitted
  // against, a mutation supersedes it, and the terminal state lets go.
  unsigned salt = 70;
  const auto expect_released = [&](svc::JobSpec spec, svc::JobState state) {
    const std::string kind = svc::job_kind_name(spec.kind);
    const std::weak_ptr<const Graph> version = service.registry().get("g");
    const svc::JobId id = service.submit(std::move(spec));
    service.mutate_graph("g", 0,
                         simple_delta(*service.registry().get("g"), ++salt));
    EXPECT_EQ(service.wait(id).state, state) << kind;
    EXPECT_TRUE(version.expired()) << kind;
  };
  expect_released(count_spec("g", tmpl, 2), svc::JobState::kCompleted);

  svc::JobSpec gdd = count_spec("g", tmpl, 2);
  gdd.kind = svc::JobKind::kGdd;
  gdd.options.root = 0;
  expect_released(gdd, svc::JobState::kCompleted);

  svc::JobSpec batch;
  batch.kind = svc::JobKind::kBatch;
  batch.graph = "g";
  batch.preemptible = false;
  batch.batch_jobs.push_back({tmpl, 2});
  batch.batch_options.num_threads = 1;
  expect_released(batch, svc::JobState::kCompleted);

  // A labeled template against an unlabeled graph passes submit and
  // fails in the run.
  TreeTemplate labeled = tmpl;
  labeled.set_labels(std::vector<std::uint8_t>(
      static_cast<std::size_t>(labeled.size()), 0));
  expect_released(count_spec("g", labeled, 2), svc::JobState::kFailed);

  // Cancelled while queued: hold the only worker with a long job.
  svc::Service::Config one_worker;
  one_worker.workers = 1;
  svc::Service busy(one_worker);
  busy.registry().put("g", erdos_renyi_gnm(2500, 20000, 3));
  const svc::JobId blocker =
      busy.submit(count_spec("g", catalog_entry("U7-2").tree, 4000));
  const std::weak_ptr<const Graph> version = busy.registry().get("g");
  const svc::JobId queued = busy.submit(count_spec("g", tmpl, 2));
  busy.mutate_graph("g", 0, simple_delta(*busy.registry().get("g"), 90));
  EXPECT_EQ(busy.info(queued).state, svc::JobState::kQueued);
  EXPECT_FALSE(version.expired());  // the blocker and the queued job pin it
  EXPECT_TRUE(busy.cancel(queued));
  EXPECT_TRUE(busy.cancel(blocker));
  EXPECT_EQ(busy.wait(queued).state, svc::JobState::kCancelled);
  EXPECT_EQ(busy.wait(blocker).state, svc::JobState::kCancelled);
  EXPECT_TRUE(version.expired());

  // With every job idle the registry holds no let-go copies.
  EXPECT_EQ(service.registry().stats().held_graphs, 0u);
  EXPECT_EQ(service.registry().stats().held_bytes, 0u);
  EXPECT_EQ(busy.registry().stats().held_bytes, 0u);
}

TEST(SvcService, PreemptedJobKeepsItsGraphVersion) {
  const int kIterations = 60;
  const TreeTemplate tmpl = catalog_entry("U10-2").tree;
  const Graph graph = erdos_renyi_gnm(600, 2400, 19);

  CountOptions direct;
  direct.sampling.iterations = kIterations;
  direct.sampling.seed = 31;
  direct.execution.threads = 1;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service::Config config;
  config.workers = 1;  // force contention
  config.work_dir = temp_dir("preempt_version");
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(600, 2400, 19));
  const std::weak_ptr<const Graph> admitted = service.registry().get("g");

  svc::JobSpec low = count_spec("g", tmpl, kIterations, 31);
  low.priority = svc::Priority::kBatch;
  low.preemptible = true;
  low.options.run.checkpoint_every = 1;
  const svc::JobId low_id = service.submit(std::move(low));

  // Preempt only after the first checkpoint, so the job really resumes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool checkpointed = false;
  while (!checkpointed && std::chrono::steady_clock::now() < deadline) {
    for (const auto& entry :
         std::filesystem::directory_iterator(config.work_dir)) {
      checkpointed = checkpointed || entry.path().extension() == ".ckpt";
    }
    if (!checkpointed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(checkpointed) << "batch job never wrote a checkpoint";
  // A long interactive job keeps the batch job parked while the graph
  // changes underneath it.
  svc::JobSpec high = count_spec("g", catalog_entry("U7-2").tree, 200);
  high.priority = svc::Priority::kInteractive;
  const svc::JobId high_id = service.submit(std::move(high));
  while (service.info(low_id).preemptions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.info(low_id).preemptions, 1);

  const GraphDelta delta = simple_delta(graph, 95);
  service.mutate_graph("g", 0, delta);
  EXPECT_FALSE(admitted.expired());  // the parked job still pins it
  EXPECT_EQ(service.wait(high_id).state, svc::JobState::kCompleted);

  const svc::JobInfo low_done = service.wait(low_id);
  ASSERT_EQ(low_done.state, svc::JobState::kCompleted);
  EXPECT_TRUE(admitted.expired());
  const CountResult got = service.count_result(low_id);
  EXPECT_TRUE(got.run.resumed);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    ASSERT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);

  // The mutation does change the count, so the match above is the
  // admitted version's, not the current one's.
  Graph mutated = graph;
  mutated.apply(delta);
  EXPECT_NE(count_template(mutated, tmpl, direct).estimate, expected.estimate);
}

// ---- concurrent sessions over the shared obs registry ----------------------

// Gauges ride along in every delta (they are last-set values, not
// rates), so "this session did work" means counter or histogram
// activity in the drained slice.
bool has_activity(const std::vector<obs::MetricSnapshot>& delta) {
  for (const obs::MetricSnapshot& snap : delta) {
    if (snap.kind != obs::InstrumentKind::kGauge) return true;
  }
  return false;
}

TEST(SvcSession, TwoSessionsScrapeWhileJobsWrite) {
  obs::set_enabled(true);
  svc::Service::Config config;
  config.workers = 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(800, 3200, 9));

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    // Hammer the registry while both sessions' jobs are writing to it:
    // scrape() must stay consistent (counters never go backwards).
    double last_total = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      double total = 0.0;
      for (const obs::MetricSnapshot& snap : obs::Registry::global().scrape()) {
        if (snap.kind == obs::InstrumentKind::kCounter) total += snap.value;
      }
      EXPECT_GE(total, last_total);
      last_total = total;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  svc::Session session_a(service);
  svc::Session session_b(service);
  svc::JobSpec job_a = count_spec("g", catalog_entry("U7-1").tree, 30);
  job_a.options.observability.enabled = true;
  svc::JobSpec job_b = count_spec("g", catalog_entry("U7-2").tree, 30);
  job_b.options.observability.enabled = true;
  const svc::JobId id_a = session_a.submit(std::move(job_a));
  const svc::JobId id_b = session_b.submit(std::move(job_b));
  EXPECT_EQ(service.wait(id_a).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.wait(id_b).state, svc::JobState::kCompleted);

  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Each session drains real activity, and a quiet re-drain has none.
  EXPECT_TRUE(has_activity(session_a.drain_metrics()));
  EXPECT_FALSE(has_activity(session_a.drain_metrics()));
  obs::set_enabled(false);
}

TEST(SvcSession, DrainMetricsScopesToTheSessionWindow) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 5));

  svc::Session before(service);
  svc::JobSpec job = count_spec("g", catalog_entry("U5-1").tree, 10);
  job.options.observability.enabled = true;
  before.submit(std::move(job));
  service.wait(before.submitted().back());
  EXPECT_TRUE(has_activity(before.drain_metrics()));

  // A session baselined AFTER that work sees none of it.
  svc::Session after(service);
  EXPECT_FALSE(has_activity(after.drain_metrics()));
  obs::set_enabled(false);
}

// ---- legacy "kernel_family" key --------------------------------------------
// Encoders before the frontier kernels became the only DP path always
// wrote "kernel_family":"frontier" into count options, and job
// journals replay through job_spec_from_request.  The decoder keeps
// accepting that one value and rejects any other.

/// A count accept record exactly as those encoders journaled it.
constexpr const char* kLegacyCountRequest =
    R"({"op":"count","graph":"g","priority":"batch","preemptible":true,)"
    R"("request_id":"legacy-1","template":{"k":5,"edges":[[0,1],[1,2],)"
    R"([2,3],[3,4]]},"options":{"iterations":4,"colors":0,"seed":11,)"
    R"("table":"compact","partition":"one","mode":"serial","threads":0,)"
    R"("reorder":"none","kernel_family":"frontier"}})";

TEST(SvcProtocol, KernelFamilyAcceptsOnlyFrontier) {
  std::optional<obs::Json> request = obs::Json::parse(kLegacyCountRequest);
  ASSERT_TRUE(request.has_value());
  const svc::JobSpec spec = svc::job_spec_from_request(*request);
  EXPECT_EQ(spec.options.sampling.iterations, 4);
  EXPECT_EQ(spec.request_id, "legacy-1");

  (*request)["options"]["kernel_family"] = "spmm";
  try {
    (void)svc::job_spec_from_request(*request);
    ADD_FAILURE() << "kernel_family spmm was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
  }
}

TEST(SvcProtocol, EncoderDropsKernelFamily) {
  const obs::Json request = svc::job_spec_to_request_json(
      count_spec("g", catalog_entry("U5-1").tree, 2));
  const obs::Json* options = request.find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(options->find("kernel_family"), nullptr);
}

TEST(SvcService, LegacyJournalWithKernelFamilyReplays) {
  const std::string journal = temp_dir("legacy_journal") + "/jobs.fjrn";
  {
    svc::Journal writer = svc::Journal::open_truncate(journal);
    writer.append(svc::JournalKind::kGraph, 0,
                  R"({"name":"g","dataset":"enron","scale":0.05,"seed":1})");
    writer.append(svc::JournalKind::kAccepted, 1, kLegacyCountRequest);
  }
  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 11;
  direct.execution.threads = 1;
  const CountResult expected = count_template(
      load_or_make("enron", "", 0.05, 1), catalog_entry("U5-1").tree, direct);

  svc::Service::Config config;
  config.journal_path = journal;
  svc::Service service(config);
  EXPECT_GE(service.health().journal_replays, 1u);
  // The same request_id attaches to the replayed job.
  svc::JobSpec again = count_spec("g", catalog_entry("U5-1").tree, 4, 11);
  again.request_id = "legacy-1";
  const svc::JobId id = service.submit(std::move(again));
  ASSERT_EQ(service.wait(id).state, svc::JobState::kCompleted);
  const CountResult replayed = service.count_result(id);
  EXPECT_EQ(replayed.estimate, expected.estimate);
  EXPECT_EQ(replayed.per_iteration, expected.per_iteration);
}

// ---- legacy "mode" key -----------------------------------------------------
// Protocol 2 encoders and journals wrote a "mode" key (serial, inner,
// outer, hybrid) where protocol 3 writes "outer_copies".  The decoders
// map the three layout corners and reject "hybrid".

obs::Json parse_json(const std::string& text) {
  std::optional<obs::Json> json = obs::Json::parse(text);
  EXPECT_TRUE(json.has_value()) << text;
  return json ? *json : obs::Json();
}

void expect_bad_request_naming_outer_copies(const std::function<void()>& call) {
  try {
    call();
    ADD_FAILURE() << "request was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
    EXPECT_NE(std::string(e.what()).find("outer_copies"), std::string::npos)
        << e.what();
  }
}

TEST(SvcProtocol, LegacyModeKeyDecodes) {
  struct Case {
    const char* legacy;
    const char* v3;
  };
  for (const Case& c :
       {Case{R"({"mode":"inner","threads":3})",
             R"({"outer_copies":1,"threads":3})"},
        Case{R"({"mode":"outer","threads":3})",
             R"({"outer_copies":0,"threads":3})"},
        Case{R"({"mode":"serial","threads":3})",
             R"({"outer_copies":1,"threads":1})"}}) {
    const CountOptions count =
        svc::count_options_from_json(parse_json(c.legacy));
    const CountOptions count_v3 = svc::count_options_from_json(parse_json(c.v3));
    EXPECT_EQ(count.execution.outer_copies, count_v3.execution.outer_copies)
        << c.legacy;
    EXPECT_EQ(count.execution.threads, count_v3.execution.threads) << c.legacy;
    const sched::BatchOptions batch =
        svc::batch_options_from_json(parse_json(c.legacy));
    const sched::BatchOptions batch_v3 =
        svc::batch_options_from_json(parse_json(c.v3));
    EXPECT_EQ(batch.outer_copies, batch_v3.outer_copies) << c.legacy;
    EXPECT_EQ(batch.num_threads, batch_v3.num_threads) << c.legacy;
  }

  for (const char* rejected : {R"({"mode":"hybrid","threads":4})",
                               R"({"mode":"inner","outer_copies":2})"}) {
    expect_bad_request_naming_outer_copies(
        [&] { (void)svc::count_options_from_json(parse_json(rejected)); });
    expect_bad_request_naming_outer_copies(
        [&] { (void)svc::batch_options_from_json(parse_json(rejected)); });
  }

  // Protocol 3 encoders write outer_copies and no mode.
  CountOptions options;
  options.execution.outer_copies = 2;
  const obs::Json encoded = svc::count_options_to_json(options);
  EXPECT_EQ(encoded.find("mode"), nullptr);
  EXPECT_EQ(svc::count_options_from_json(encoded).execution.outer_copies, 2);
  sched::BatchOptions batch_options;
  const obs::Json batch_encoded = svc::batch_options_to_json(batch_options);
  EXPECT_EQ(batch_encoded.find("mode"), nullptr);
  EXPECT_EQ(svc::batch_options_from_json(batch_encoded).outer_copies, 0);
}

TEST(SvcService, LegacyJournalWithModeReplays) {
  // A run_batch accept record exactly as protocol 2 journaled it.
  constexpr const char* kLegacyBatchRequest =
      R"({"op":"run_batch","graph":"g","priority":"batch",)"
      R"("preemptible":true,"request_id":"legacy-batch","jobs":[)"
      R"({"template":{"k":5,"edges":[[0,1],[1,2],[2,3],[3,4]]},)"
      R"("iterations":4,"max_iterations":1000}],"options":{"colors":0,)"
      R"("seed":11,"table":"compact","partition":"one","mode":"outer",)"
      R"("threads":2,"cross_template_reuse":true,"min_iterations":4,)"
      R"("round_iterations":0}})";
  const std::string journal = temp_dir("legacy_mode_journal") + "/jobs.fjrn";
  {
    svc::Journal writer = svc::Journal::open_truncate(journal);
    writer.append(svc::JournalKind::kGraph, 0,
                  R"({"name":"g","dataset":"enron","scale":0.05,"seed":1})");
    writer.append(svc::JournalKind::kAccepted, 1, kLegacyBatchRequest);
  }
  std::vector<sched::BatchJob> jobs = {{catalog_entry("U5-1").tree, 4}};
  sched::BatchOptions direct;
  direct.seed = 11;
  direct.outer_copies = 0;
  direct.num_threads = 2;
  const sched::BatchResult expected =
      sched::run_batch(load_or_make("enron", "", 0.05, 1), jobs, direct);

  svc::Service::Config config;
  config.journal_path = journal;
  svc::Service service(config);
  EXPECT_GE(service.health().journal_replays, 1u);
  svc::JobSpec again;
  again.kind = svc::JobKind::kBatch;
  again.graph = "g";
  again.batch_jobs = jobs;
  again.batch_options = direct;
  again.request_id = "legacy-batch";
  const svc::JobId id = service.submit(std::move(again));
  ASSERT_EQ(service.wait(id).state, svc::JobState::kCompleted);
  const sched::BatchResult replayed = service.batch_result(id);
  ASSERT_EQ(replayed.jobs.size(), 1u);
  EXPECT_EQ(replayed.jobs[0].per_iteration, expected.jobs[0].per_iteration);
  EXPECT_EQ(replayed.layout.outer_copies, 2);
  EXPECT_EQ(replayed.layout.inner_threads, 1);
}

}  // namespace
}  // namespace fascia
