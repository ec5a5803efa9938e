#pragma once
// Counting-as-a-service: the in-process service layer (DESIGN.md §11).
//
// Service is the long-lived engine the CLI, the socket server, tests,
// and benches all share — one code path from "request" to RunOutcome,
// so a count served over a socket is the same call as a count from
// the CLI.  It owns:
//
//   * a GraphRegistry (registry.hpp): load a graph once, serve every
//     later job from the cached CSR;
//   * a priority job queue with admission control: each job's peak
//     memory is modeled up front (run/memory.hpp via the registry's
//     partition cache) and jobs are dispatched only while the sum of
//     running estimates fits the configured budget — a job that could
//     never fit is rejected at submit();
//   * a worker pool executing jobs through the public entry points
//     (count_template / graphlet_degrees / sched::run_batch) with a
//     per-job CancelSource, and cooperative preemption: when
//     interactive work waits and every worker is busy, the youngest
//     preemptible batch job is asked to stop, checkpoints into the
//     service work_dir (fingerprint-named file, so concurrent jobs
//     share the directory safely), requeues as kPreempted, and later
//     resumes to bit-identical results (counter-mode RNG).
//
// Session is the per-client view: it remembers which jobs it
// submitted and a metrics baseline, so a client can read "what did MY
// work do" from the process-global obs registry via snapshot deltas.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/incremental.hpp"
#include "graph/delta.hpp"
#include "obs/metrics.hpp"
#include "svc/job.hpp"
#include "svc/journal.hpp"
#include "svc/registry.hpp"
#include "util/error.hpp"

namespace fascia::svc {

/// Thrown when load shedding rejects a batch submit (queue depth or
/// queued-memory budget exceeded) and when a draining service refuses
/// new work.  Category kResource; carries the Retry-After hint the
/// server puts on the wire and well-behaved clients honor.
class OverloadedError : public Error {
 public:
  OverloadedError(const std::string& message, double retry_after_seconds)
      : Error(ErrorCategory::kResource, message),
        retry_after_seconds_(retry_after_seconds) {}

  [[nodiscard]] double retry_after_seconds() const noexcept {
    return retry_after_seconds_;
  }

 private:
  double retry_after_seconds_;
};

/// Thrown when a mutate_graph carries an expect_version that no longer
/// matches, or a recount's retained handle is too far behind the
/// graph's delta log to catch up.  Category kBadInput; carries the
/// graph's CURRENT version so the client can refresh and retry (the
/// documented recovery: re-read the version from status / load_graph,
/// then resend — see docs/SERVER.md "Graph versions").
class StaleVersionError : public Error {
 public:
  StaleVersionError(const std::string& message, std::uint64_t current_version)
      : Error(ErrorCategory::kBadInput, message),
        current_version_(current_version) {}

  [[nodiscard]] std::uint64_t current_version() const noexcept {
    return current_version_;
  }

 private:
  std::uint64_t current_version_;
};

class Service {
 public:
  struct Config {
    /// Worker threads executing jobs (each job may itself use OpenMP
    /// threads per its options).
    int workers = 2;

    /// GraphRegistry byte budget; 0 = unbounded.
    std::size_t registry_budget_bytes = 0;

    /// Admission budget: sum of modeled peak bytes over RUNNING jobs;
    /// 0 = unbounded.  A job whose own estimate exceeds the budget is
    /// rejected at submit() with Error(kResource).
    std::size_t memory_budget_bytes = 0;

    /// Directory for preemption checkpoints; empty disables
    /// preemption.  Each job writes a fingerprint-named file inside
    /// (run::resolve_checkpoint_path), so jobs never collide.
    std::string work_dir;

    /// Master switch for preempting batch jobs under interactive load.
    bool enable_preemption = true;

    /// Load shedding: reject a batch submit once this many batch jobs
    /// are already queued (0 = unbounded).  Interactive jobs are never
    /// shed — overload protection exists to keep them flowing.
    std::size_t max_queued_batch = 0;

    /// Load shedding on modeled memory: reject a batch submit when the
    /// sum of queued batch jobs' estimated peaks would exceed this
    /// budget (0 = unbounded).
    std::size_t queued_bytes_budget = 0;

    /// Retry-After hint carried by OverloadedError / shed responses.
    double retry_after_seconds = 2.0;

    /// Crash-recovery journal path; empty disables journaling.  When
    /// set, the constructor replays the journal (re-registering graphs
    /// and re-admitting unfinished jobs) before accepting new work.
    std::string journal_path;

    /// shutdown(): how long to wait for running interactive jobs to
    /// finish before cancelling them.  Running preemptible batch jobs
    /// are parked at a checkpoint immediately (they resume after a
    /// restart via the journal); non-preemptible ones are cancelled.
    double shutdown_grace_seconds = 2.0;

    /// Incremental counts (options.execution.incremental) retain their
    /// RunHandle — every non-leaf DP table, per iteration — so later
    /// recount jobs can advance them.  This caps how many handles stay
    /// resident; beyond it the least-recently-recounted idle handle is
    /// dropped (its next recount fails with a typed "no retained run"
    /// error and the client re-runs a full incremental count).
    int max_retained_runs = 4;

    /// Mutations logged per graph for stale-handle catch-up.  A handle
    /// more than this many versions behind cannot compose its way to
    /// the present and gets StaleVersionError.
    std::size_t delta_log_limit = 32;
  };

  /// health() snapshot — cheap, never blocks on running jobs.
  struct Health {
    bool draining = false;
    bool stopping = false;
    int workers = 0;
    int running = 0;
    std::size_t queued_interactive = 0;
    std::size_t queued_batch = 0;
    std::uint64_t shed_total = 0;        ///< batch submits rejected
    std::uint64_t journal_replays = 0;   ///< jobs re-admitted at startup
    std::string journal_path;            ///< empty = journaling off
    double uptime_seconds = 0.0;
    std::size_t retained_runs = 0;       ///< live incremental handles
  };

  explicit Service(Config config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] GraphRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Validates and enqueues.  Throws Error(kUsage) on an unknown graph
  /// or malformed spec, Error(kResource) when the job cannot fit the
  /// admission budget even alone, OverloadedError when batch shedding
  /// or draining rejects it.  A spec with a request_id the service has
  /// already accepted dedups: the existing job's id is returned.
  JobId submit(JobSpec spec);

  /// Registers a graph (graph/datasets.hpp load_or_make semantics) and
  /// journals the registration so a restarted service can rebuild it.
  /// `cached` is true when the registry already held the graph and
  /// nothing was loaded.
  struct LoadedGraph {
    std::shared_ptr<const Graph> graph;
    bool cached = false;
  };
  LoadedGraph load_graph(const std::string& name, const std::string& dataset,
                         const std::string& file, double scale,
                         std::uint64_t seed, bool reload);

  /// Applies `delta` to the registered graph `name`, re-registering
  /// the mutated copy (which invalidates the registry's cached reorder
  /// permutations for that graph) and logging the delta so stale
  /// incremental handles can catch up.  `expect_version` is the
  /// optimistic-concurrency token: 0 accepts any current version;
  /// anything else must equal the graph's current version or the call
  /// throws StaleVersionError without mutating.  Malformed deltas
  /// propagate GraphDelta's usage/bad-input taxonomy, also without
  /// mutating.  Mutations are serialized per service.
  struct Mutation {
    std::uint64_t version = 0;      ///< the graph's version after apply
    std::size_t applied_edges = 0;  ///< delta size actually applied
  };
  Mutation mutate_graph(const std::string& name, std::uint64_t expect_version,
                        const GraphDelta& delta);

  /// Current version token of a registered graph (0 for a freshly
  /// loaded one).  Throws Error(kUsage) on an unknown name.
  [[nodiscard]] std::uint64_t graph_version(const std::string& name);

  /// Requests cooperative cancellation; returns false for unknown or
  /// already-terminal jobs.  A queued job cancels immediately.
  bool cancel(JobId id);

  /// Snapshot of one job (throws Error(kUsage) on unknown id) or all.
  [[nodiscard]] JobInfo info(JobId id) const;
  [[nodiscard]] std::vector<JobInfo> jobs() const;

  /// Blocks until the job reaches a terminal state and returns the
  /// final snapshot.  While the service is draining or stopping, also
  /// returns for parked (non-running, non-terminal) jobs so no waiter
  /// can hang across a shutdown — callers must check the state.
  JobInfo wait(JobId id);

  /// Cheap operational snapshot (the `health` wire op).
  [[nodiscard]] Health health() const;

  /// Orderly-restart mode: stop dispatching, reject new submits with
  /// OverloadedError, park running preemptible batch jobs at their
  /// next checkpoint (journaled, so a restart resumes them), let
  /// running interactive jobs finish.  Irreversible until restart.
  void drain();

  [[nodiscard]] bool draining() const;

  /// Results, valid once the job is kCompleted (throws Error(kUsage)
  /// otherwise or on a kind mismatch).
  [[nodiscard]] CountResult count_result(JobId id) const;
  [[nodiscard]] sched::BatchResult batch_result(JobId id) const;

  /// The job's cancel source — stable for the service's lifetime, so
  /// the CLI can bind a signal handler to it (request() is
  /// async-signal-safe).  Throws Error(kUsage) on unknown id.
  [[nodiscard]] CancelSource& cancel_source(JobId id);

  /// Graceful stop: stops dispatch, parks running preemptible batch
  /// jobs at a checkpoint (journal keeps them resumable), waits up to
  /// shutdown_grace_seconds for running interactive jobs, cancels the
  /// stragglers, joins the workers.  Queued batch jobs stay queued
  /// (journaled → replayed after restart) when journaling is on;
  /// without a journal everything is cancelled, the pre-PR 7
  /// behavior.  Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Record;

  void worker_loop();
  Record* pick_locked();
  bool pick_ready_unsafe() const;
  bool admissible_locked(const Record& record) const;
  void maybe_preempt_locked();
  void execute(Record& record);
  /// The one terminal transition: sets `state` and moves the record's
  /// graph pin out, so the caller drops it after releasing mutex_.
  static std::shared_ptr<const Graph> finish_locked(Record& record,
                                                    JobState state);
  static JobInfo snapshot_locked(const Record& record);
  [[nodiscard]] const Record& record_checked(JobId id) const;
  std::unique_ptr<Record> build_record(JobSpec spec);
  std::size_t queued_batch_bytes_locked() const;
  JobId admit_locked(std::unique_ptr<Record> record, bool journal);
  void journal_event(JournalKind kind, JobId id, const std::string& payload);
  void recover();

  /// Per-graph mutation state: the current version token plus a
  /// bounded log of (from_version, delta) pairs — applying `delta` to
  /// version `from_version` yields `from_version + 1`.  A recount
  /// composes the log suffix from its handle's version to the present.
  struct GraphMeta {
    std::uint64_t version = 0;
    std::deque<std::pair<std::uint64_t, GraphDelta>> log;
  };

  /// One retained incremental run (JobKind::kCount with
  /// options.execution.incremental).  `in_use` pins it against LRU
  /// eviction while a recount job is advancing it — handles are
  /// stateful, so two recounts of the same run serialize by failing
  /// the second instead of corrupting the first.
  struct RetainedRun {
    std::unique_ptr<RunHandle> handle;
    std::string graph;
    std::uint64_t last_use = 0;
    bool in_use = false;
  };

  void retain_locked(JobId id, std::unique_ptr<RunHandle> handle,
                     const std::string& graph);
  CountResult execute_recount(Record& record);

  Config config_;
  GraphRegistry registry_;
  std::optional<Journal> journal_;
  std::mutex mutation_mutex_;  ///< serializes mutate_graph end to end
  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;  ///< workers wait here
  std::condition_variable state_cv_;     ///< wait() waits here
  std::unordered_map<JobId, std::unique_ptr<Record>> records_;
  std::unordered_map<std::string, JobId> by_request_id_;
  std::deque<JobId> queue_interactive_;
  std::deque<JobId> queue_batch_;
  std::size_t running_estimated_bytes_ = 0;
  int running_jobs_ = 0;
  std::unordered_map<std::string, GraphMeta> graph_meta_;
  std::unordered_map<JobId, RetainedRun> retained_;
  std::uint64_t retained_tick_ = 0;
  JobId next_id_ = 1;
  bool stopping_ = false;
  bool draining_ = false;
  std::uint64_t shed_total_ = 0;
  std::uint64_t journal_replays_ = 0;

  std::vector<std::thread> workers_;
};

/// One client's view of a shared Service: tracks the jobs this session
/// submitted and scopes metrics to them via registry snapshot deltas.
class Session {
 public:
  explicit Session(Service& service)
      : service_(&service), baseline_(obs::Registry::global().scrape()) {}

  [[nodiscard]] Service& service() noexcept { return *service_; }

  JobId submit(JobSpec spec);

  /// Convenience: submit + wait + fetch, for callers that want the
  /// blocking library shape (the CLI).  Throws Error(kInternal)
  /// carrying the job error when the job failed.
  CountResult count(JobSpec spec);
  sched::BatchResult run_batch(JobSpec spec);

  bool cancel(JobId id) { return service_->cancel(id); }

  /// Jobs this session submitted, newest last.
  [[nodiscard]] const std::vector<JobId>& submitted() const noexcept {
    return submitted_;
  }

  /// Re-baselines and returns what the process-global metrics registry
  /// accumulated since the last call (or construction) — the
  /// per-session slice of a shared registry.
  std::vector<obs::MetricSnapshot> drain_metrics();

 private:
  Service* service_;
  std::vector<obs::MetricSnapshot> baseline_;
  std::vector<JobId> submitted_;
};

}  // namespace fascia::svc
