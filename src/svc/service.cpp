#include "svc/service.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/counter.hpp"
#include "core/run_metrics.hpp"
#include "graph/datasets.hpp"
#include "run/memory.hpp"
#include "sched/thread_layout.hpp"
#include "svc/protocol.hpp"
#include "util/error.hpp"

namespace fascia::svc {

const char* job_kind_name(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kCount:
      return "count";
    case JobKind::kGdd:
      return "gdd";
    case JobKind::kBatch:
      return "batch";
    case JobKind::kRecount:
      return "recount";
  }
  return "unknown";
}

const char* priority_name(Priority priority) noexcept {
  return priority == Priority::kInteractive ? "interactive" : "batch";
}

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

struct Service::Record {
  JobId id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  CancelSource cancel;
  bool cancel_requested = false;   ///< client cancel (beats preemption)
  bool preempt_requested = false;  ///< scheduler asked this run to yield
  bool resume_next = false;        ///< next run resumes from checkpoint
  int preemptions = 0;
  std::size_t estimated_peak_bytes = 0;
  std::string error;
  std::optional<CountResult> count;
  std::optional<sched::BatchResult> batch;
  /// The graph version the job was admitted against, pinned at submit
  /// so neither eviction nor mutate_graph can pull it out from under a
  /// queued, running or preempted job (a preempted job resumes on the
  /// same version).  finish_locked() releases it on every terminal
  /// transition.  Recount jobs hold none: they read the current version
  /// when they run.
  std::shared_ptr<const Graph> graph;
};

namespace {

/// Modeled peak bytes for one template under the given execution
/// config — the admission-control figure, not an allocation.
/// `threads` 0 = the OpenMP default, as the driver resolves it.
/// Incremental counts keep every iteration's non-leaf tables alive past
/// the run, so `retained_iterations` > 0 prices that retention too.
std::size_t estimate_job_bytes(GraphRegistry& registry,
                               const TreeTemplate& tmpl, VertexId n,
                               int num_colors, TableKind table,
                               PartitionStrategy strategy, bool share_tables,
                               int root, int engine_copies, int threads,
                               int retained_iterations = 0) {
  const auto partition =
      registry.partition_of(tmpl, strategy, share_tables, root);
  const int colors = num_colors > 0 ? num_colors : tmpl.size();
  std::size_t per_copy = run::estimate_peak_bytes(*partition, colors, n,
                                                  table, tmpl.has_labels());
  std::size_t bytes =
      per_copy * static_cast<std::size_t>(std::max(1, engine_copies));
  bytes += run::estimate_workspace_bytes(*partition, colors) *
           static_cast<std::size_t>(fascia::detail::resolve_threads(threads));
  if (retained_iterations > 0) {
    bytes += run::estimate_retained_bytes(*partition, colors, n, table,
                                          tmpl.has_labels(),
                                          retained_iterations);
  }
  return bytes;
}

const obs::Metric& shed_metric() {
  static const obs::Metric m("svc.shed", obs::InstrumentKind::kCounter);
  return m;
}

const obs::Metric& replays_metric() {
  static const obs::Metric m("svc.journal.replays",
                             obs::InstrumentKind::kCounter);
  return m;
}

}  // namespace

Service::Service(Config config)
    : config_(std::move(config)), registry_(config_.registry_budget_bytes) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.max_retained_runs < 1) config_.max_retained_runs = 1;
  if (!config_.work_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.work_dir, ec);
    if (ec) {
      throw resource_error("cannot create service work_dir '" +
                           config_.work_dir + "': " + ec.message());
    }
  }
  if (!config_.journal_path.empty()) {
    // Replay + compact before any worker can run: recovery re-admits
    // unfinished jobs single-threaded, so replayed ids are dense and
    // no half-recovered state is ever observable.
    recover();
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

std::unique_ptr<Service::Record> Service::build_record(JobSpec spec) {
  // Validate up front so errors surface on the caller's thread with
  // the usage taxonomy, not as a failed job.
  switch (spec.kind) {
    case JobKind::kCount:
      spec.options.validate();
      break;
    case JobKind::kGdd:
      if (spec.options.root < 0 || spec.options.root >= spec.tmpl.size()) {
        throw usage_error("gdd job needs options.root in [0, k)");
      }
      spec.options.per_vertex = true;
      spec.options.validate();
      break;
    case JobKind::kBatch:
      if (spec.batch_jobs.empty()) {
        throw usage_error("batch job needs at least one template");
      }
      break;
    case JobKind::kRecount: {
      if (spec.recount_of == 0) {
        throw usage_error("recount job needs recount_of (the retained "
                          "incremental count's job id)");
      }
      // Resolve the retained run now so an unknown/evicted handle (or
      // one lost in a restart — handles do not survive the journal)
      // fails on the submitter's thread with the precise reason.  The
      // admission figure is the handle's resident bytes: a recount's
      // transient working set is bounded by the retained state it is
      // splicing into.
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = retained_.find(spec.recount_of);
      if (it == retained_.end()) {
        throw bad_input("no retained run for job " +
                        std::to_string(spec.recount_of) +
                        " (never incremental, evicted from the retained-run "
                        "pool, or lost in a restart) — submit a new count "
                        "with options.incremental");
      }
      if (spec.graph.empty()) spec.graph = it->second.graph;
      if (spec.graph != it->second.graph) {
        throw usage_error("recount graph '" + spec.graph +
                          "' does not match the retained run's graph '" +
                          it->second.graph + "'");
      }
      break;
    }
  }

  auto record = std::make_unique<Record>();
  record->spec = std::move(spec);
  const auto unknown_graph = [&] {
    return usage_error("unknown graph '" + record->spec.graph +
                       "' — load_graph it first");
  };
  if (record->spec.kind == JobKind::kRecount) {
    // No pin: execute_recount reads the current version under the
    // mutation lock, so pinning the submit-time one would only keep a
    // superseded copy alive.
    if (!registry_.contains(record->spec.graph)) throw unknown_graph();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = retained_.find(record->spec.recount_of);
    record->estimated_peak_bytes =
        it != retained_.end() ? it->second.handle->retained_bytes() : 0;
    if (config_.memory_budget_bytes > 0 &&
        record->estimated_peak_bytes > config_.memory_budget_bytes) {
      throw resource_error(
          "recount working set (" +
          std::to_string(record->estimated_peak_bytes) +
          " retained bytes) exceeds the service admission budget (" +
          std::to_string(config_.memory_budget_bytes) + ")");
    }
    return record;
  }
  record->graph = registry_.get(record->spec.graph);
  if (!record->graph) throw unknown_graph();

  const VertexId n = record->graph->num_vertices();
  const auto quote = [&](TableKind table) -> std::size_t {
    if (record->spec.kind == JobKind::kBatch) {
      const sched::BatchOptions& bo = record->spec.batch_options;
      std::size_t worst = 0;
      for (const sched::BatchJob& job : record->spec.batch_jobs) {
        // Shared stages only shrink the true peak, so the max over
        // per-template estimates is a safe admission bound.
        worst = std::max(
            worst, estimate_job_bytes(registry_, job.tmpl, n, bo.num_colors,
                                      table, bo.partition,
                                      bo.share_tables,
                                      /*root=*/-1,
                                      resolve_layout(bo.outer_copies,
                                                     bo.num_threads)
                                          .outer_copies,
                                      bo.num_threads));
      }
      return worst;
    }
    const CountOptions& co = record->spec.options;
    return estimate_job_bytes(
        registry_, record->spec.tmpl, n, co.sampling.num_colors, table,
        co.execution.partition, co.execution.share_tables, co.root,
        resolve_layout(co.execution.outer_copies, co.execution.threads)
            .outer_copies,
        co.execution.threads,
        co.execution.incremental ? co.sampling.iterations : 0);
  };
  const TableKind requested = record->spec.kind == JobKind::kBatch
                                  ? record->spec.batch_options.table
                                  : record->spec.options.execution.table;
  record->estimated_peak_bytes = quote(requested);
  if (config_.memory_budget_bytes > 0 &&
      record->estimated_peak_bytes > config_.memory_budget_bytes) {
    // Re-quote against the succinct encoding before turning the job
    // away: the run layer's degradation ladder would move to it under
    // a budget anyway, so admission must not reject jobs whose
    // succinct footprint fits.  The spec is rewritten so the run
    // actually uses the encoding it was admitted under.
    const std::size_t requote = requested != TableKind::kSuccinct
                                    ? quote(TableKind::kSuccinct)
                                    : record->estimated_peak_bytes;
    if (requested != TableKind::kSuccinct &&
        requote <= config_.memory_budget_bytes) {
      if (record->spec.kind == JobKind::kBatch) {
        record->spec.batch_options.table = TableKind::kSuccinct;
      } else {
        record->spec.options.execution.table = TableKind::kSuccinct;
      }
      record->estimated_peak_bytes = requote;
    } else {
      throw resource_error(
          "job's modeled peak (" +
          std::to_string(record->estimated_peak_bytes) +
          " bytes; still " + std::to_string(requote) +
          " as succinct) exceeds the service admission budget (" +
          std::to_string(config_.memory_budget_bytes) + ")");
    }
  }
  return record;
}

std::size_t Service::queued_batch_bytes_locked() const {
  std::size_t bytes = 0;
  for (JobId id : queue_batch_) {
    auto it = records_.find(id);
    if (it == records_.end() || job_state_terminal(it->second->state)) {
      continue;
    }
    bytes += it->second->estimated_peak_bytes;
  }
  return bytes;
}

JobId Service::submit(JobSpec spec) {
  auto record = build_record(std::move(spec));

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw usage_error("service is shutting down");
  // Idempotency first: a retried request must observe its original
  // job, even one the drain below would now reject.
  if (!record->spec.request_id.empty()) {
    auto hit = by_request_id_.find(record->spec.request_id);
    if (hit != by_request_id_.end()) return hit->second;
  }
  if (draining_) {
    throw OverloadedError("service is draining for restart",
                          config_.retry_after_seconds);
  }
  // Load shedding applies to batch work only: the point of overload
  // protection is that interactive jobs keep flowing.
  if (record->spec.priority == Priority::kBatch) {
    std::size_t queued = 0;
    for (JobId id : queue_batch_) {
      auto it = records_.find(id);
      if (it != records_.end() && !job_state_terminal(it->second->state)) {
        ++queued;
      }
    }
    const bool depth_shed =
        config_.max_queued_batch > 0 && queued >= config_.max_queued_batch;
    const bool bytes_shed =
        config_.queued_bytes_budget > 0 &&
        queued_batch_bytes_locked() + record->estimated_peak_bytes >
            config_.queued_bytes_budget;
    if (depth_shed || bytes_shed) {
      ++shed_total_;
      shed_metric().add();
      throw OverloadedError(
          depth_shed
              ? "batch queue full (" + std::to_string(queued) + " queued)"
              : "queued batch jobs exceed the queued-memory budget",
          config_.retry_after_seconds);
    }
  }
  return admit_locked(std::move(record), /*journal=*/true);
}

JobId Service::admit_locked(std::unique_ptr<Record> record, bool journal) {
  const JobId id = next_id_++;
  record->id = id;
  const Priority priority = record->spec.priority;
  const std::string request_id = record->spec.request_id;
  Record* raw = record.get();
  records_.emplace(id, std::move(record));
  if (!request_id.empty()) by_request_id_[request_id] = id;
  if (journal && journal_) {
    // Durability before acknowledgment: the accept record reaches disk
    // before the job can be queued or its id returned.  A journal that
    // cannot record the job refuses it — accepting unrecoverable work
    // would break the crash-recovery contract.
    try {
      journal_->append(JournalKind::kAccepted, id,
                       job_spec_to_request_json(raw->spec).dump());
    } catch (...) {
      records_.erase(id);
      if (!request_id.empty()) by_request_id_.erase(request_id);
      throw;
    }
  }
  if (priority == Priority::kInteractive) {
    queue_interactive_.push_back(id);
    maybe_preempt_locked();
  } else {
    queue_batch_.push_back(id);
  }
  dispatch_cv_.notify_one();
  return id;
}

void Service::journal_event(JournalKind kind, JobId id,
                            const std::string& payload) {
  if (!journal_) return;
  try {
    journal_->append(kind, id, payload);
  } catch (const std::exception&) {
    // Best-effort lifecycle records: a failed started/finished append
    // degrades recovery precision (a finished job may replay, which is
    // bit-identical anyway), never the running job.  The journal's own
    // svc.journal.failures metric counts these.
  }
}

bool Service::admissible_locked(const Record& record) const {
  if (config_.memory_budget_bytes == 0) return true;
  return running_estimated_bytes_ + record.estimated_peak_bytes <=
         config_.memory_budget_bytes;
}

Service::Record* Service::pick_locked() {
  if (draining_) return nullptr;  // drain: nothing new dispatches
  for (std::deque<JobId>* queue : {&queue_interactive_, &queue_batch_}) {
    while (!queue->empty()) {
      auto it = records_.find(queue->front());
      if (it == records_.end() || job_state_terminal(it->second->state)) {
        queue->pop_front();  // cancelled while queued
        continue;
      }
      Record& head = *it->second;
      // Strict FIFO per class: an inadmissible head waits for running
      // jobs to release budget (it fits alone — submit() checked), and
      // nothing overtakes it.  An inadmissible interactive head also
      // blocks batch dispatch so released budget reaches it first.
      if (!admissible_locked(head)) return nullptr;
      queue->pop_front();
      return &head;
    }
  }
  return nullptr;
}

void Service::maybe_preempt_locked() {
  if (!config_.enable_preemption || config_.work_dir.empty()) return;
  if (running_jobs_ < config_.workers) return;  // a worker will pick it up
  // Every worker is busy: ask one running preemptible batch job (the
  // newest, which has the least sunk work) to yield at a checkpoint.
  Record* victim = nullptr;
  for (auto& [id, record] : records_) {
    if (record->state != JobState::kRunning) continue;
    if (record->spec.priority != Priority::kBatch) continue;
    if (!record->spec.preemptible) continue;
    if (record->preempt_requested || record->cancel_requested) continue;
    if (victim == nullptr || record->id > victim->id) victim = record.get();
  }
  if (victim != nullptr) {
    victim->preempt_requested = true;
    victim->cancel.request();
  }
}

void Service::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    dispatch_cv_.wait(lock, [this] {
      return stopping_ || pick_ready_unsafe();
    });
    if (stopping_) return;
    Record* record = pick_locked();
    if (record == nullptr) continue;
    record->state = JobState::kRunning;
    record->error.clear();
    running_estimated_bytes_ += record->estimated_peak_bytes;
    ++running_jobs_;
    state_cv_.notify_all();
    lock.unlock();
    journal_event(JournalKind::kStarted, record->id, "");
    execute(*record);
    lock.lock();
    running_estimated_bytes_ -= record->estimated_peak_bytes;
    --running_jobs_;
    dispatch_cv_.notify_all();  // released budget may unblock a head
    state_cv_.notify_all();
  }
}

bool Service::pick_ready_unsafe() const {
  // Mirror of pick_locked's decision without consuming: is there a
  // dispatchable head?
  if (draining_) return false;
  for (const std::deque<JobId>* queue : {&queue_interactive_, &queue_batch_}) {
    for (JobId id : *queue) {
      auto it = records_.find(id);
      if (it == records_.end() || job_state_terminal(it->second->state)) {
        continue;  // stale entry; pick_locked will drop it
      }
      return admissible_locked(*it->second);
    }
  }
  return false;
}

std::shared_ptr<const Graph> Service::finish_locked(Record& record,
                                                    JobState state) {
  record.state = state;
  return std::move(record.graph);
}

void Service::execute(Record& record) {
  // The run itself happens with the service lock released; the record
  // is stable (owned by records_, never erased), and its spec and graph
  // pin are worker-private while state == kRunning.  The run reads the
  // pinned version the job was admitted against; a recount has no pin
  // and reads the current version instead.  Results land in locals and
  // reach the record only under the lock: snapshot_locked reads the
  // record's result slots while the job runs.
  JobState final_state = JobState::kCompleted;
  std::string error;
  bool ran_cancelled = false;
  std::optional<CountResult> count;
  std::optional<sched::BatchResult> batch;

  try {
    if (record.spec.kind == JobKind::kBatch) {
      sched::BatchOptions options = record.spec.batch_options;
      options.run.cancel = &record.cancel.flag();
      // Serve partition trees from the registry's memo: admission
      // already partitioned these templates for the quote, and the
      // trees are graph-independent so the cache stays hot across
      // mutate_graph re-registers.
      options.partition_provider =
          [this](const TreeTemplate& tmpl, PartitionStrategy strategy,
                 bool share_tables, int root) {
            return registry_.partition_of(tmpl, strategy, share_tables, root);
          };
      if (options.run.checkpoint_path.empty() && record.spec.preemptible &&
          record.spec.priority == Priority::kBatch &&
          !config_.work_dir.empty()) {
        options.run.checkpoint_path = config_.work_dir + "/";
        if (options.run.checkpoint_every <= 0) options.run.checkpoint_every = 1;
      }
      if (record.resume_next) options.run.resume = true;
      sched::BatchResult result =
          sched::run_batch(*record.graph, record.spec.batch_jobs, options);
      ran_cancelled = result.status() == RunStatus::kCancelled;
      batch.emplace(std::move(result));
    } else if (record.spec.kind == JobKind::kRecount) {
      count.emplace(execute_recount(record));
    } else if (record.spec.kind == JobKind::kCount &&
               record.spec.options.execution.incremental) {
      // No cancel/checkpoint wiring: begin_incremental validates that
      // RunControls stay inert (retained state must come from one
      // complete uninterrupted pass), and the handle outlives the job
      // in the retained-run pool so recount jobs can advance it.
      RunHandle handle = begin_incremental(*record.graph, record.spec.tmpl,
                                           record.spec.options);
      count.emplace(handle.result());
      std::lock_guard<std::mutex> lock(mutex_);
      retain_locked(record.id,
                    std::make_unique<RunHandle>(std::move(handle)),
                    record.spec.graph);
    } else {
      CountOptions options = record.spec.options;
      options.run.cancel = &record.cancel.flag();
      if (options.run.checkpoint_path.empty() && record.spec.preemptible &&
          record.spec.priority == Priority::kBatch &&
          !config_.work_dir.empty()) {
        options.run.checkpoint_path = config_.work_dir + "/";
        if (options.run.checkpoint_every <= 0) options.run.checkpoint_every = 1;
      }
      if (record.resume_next) options.run.resume = true;
      CountResult result =
          record.spec.kind == JobKind::kGdd
              ? graphlet_degrees(*record.graph, record.spec.tmpl, options)
              : count_template(*record.graph, record.spec.tmpl, options);
      ran_cancelled = result.status() == RunStatus::kCancelled;
      count.emplace(std::move(result));
    }
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }

  // Finalize under the lock, journal after releasing it (appends
  // fsync; holding the service mutex across disk writes would stall
  // every submitter and waiter).
  std::optional<JournalKind> post_kind;
  std::shared_ptr<const Graph> unpinned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (final_state == JobState::kFailed) {
      record.error = std::move(error);
      unpinned = finish_locked(record, JobState::kFailed);
      post_kind = JournalKind::kFinished;
    } else if (ran_cancelled && record.preempt_requested &&
               !record.cancel_requested) {
      // The partial result is dropped; the next run resumes.
      record.preempt_requested = false;
      record.resume_next = true;
      record.cancel.reset();
      record.state = JobState::kPreempted;
      post_kind = JournalKind::kCheckpointed;
      if (!stopping_ && !draining_) {
        // Yielded for interactive work: re-arm and requeue at the
        // front of its class; the next run resumes from the
        // checkpoint (or from scratch if none was written yet —
        // same bits either way).
        ++record.preemptions;
        queue_batch_.push_front(record.id);
        dispatch_cv_.notify_one();
      }
      // Draining/stopping: parked.  No kFinished record — the job is
      // not done, and its absence is what makes the journal replay
      // (and checkpoint-resume) it after restart.
    } else {
      // A cancelled run keeps its honest-partial result.
      record.count = std::move(count);
      record.batch = std::move(batch);
      unpinned = finish_locked(record, ran_cancelled ? JobState::kCancelled
                                                     : JobState::kCompleted);
      post_kind = JournalKind::kFinished;
    }
  }
  // A superseded graph version frees here, outside the service lock,
  // and before waiters wake.
  unpinned.reset();
  state_cv_.notify_all();
  if (post_kind == JournalKind::kFinished) {
    journal_event(JournalKind::kFinished, record.id,
                  job_state_name(record.state));
  } else if (post_kind == JournalKind::kCheckpointed) {
    journal_event(JournalKind::kCheckpointed, record.id, "");
  }
}

bool Service::cancel(JobId id) {
  std::shared_ptr<const Graph> unpinned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(id);
    if (it == records_.end()) return false;
    Record& record = *it->second;
    if (job_state_terminal(record.state)) return false;
    record.cancel_requested = true;
    if (record.state == JobState::kRunning) {
      record.cancel.request();  // worker finalizes at the next boundary
      return true;
    }
    // Queued/preempted: immediate.
    unpinned = finish_locked(record, JobState::kCancelled);
  }
  unpinned.reset();
  state_cv_.notify_all();
  journal_event(JournalKind::kFinished, id,
                job_state_name(JobState::kCancelled));
  return true;
}

JobInfo Service::snapshot_locked(const Record& record) {
  JobInfo info;
  info.id = record.id;
  info.kind = record.spec.kind;
  info.state = record.state;
  info.priority = record.spec.priority;
  info.graph = record.spec.graph;
  info.label = record.spec.label;
  info.request_id = record.spec.request_id;
  info.error = record.error;
  info.estimated_peak_bytes = record.estimated_peak_bytes;
  info.preemptions = record.preemptions;
  if (record.count) {
    info.completed_iterations = record.count->run.completed_iterations;
    info.requested_iterations = record.count->run.requested_iterations;
  } else if (record.batch) {
    info.completed_iterations = record.batch->run.completed_iterations;
    info.requested_iterations = record.batch->run.requested_iterations;
  } else if (record.spec.kind == JobKind::kBatch) {
    for (const sched::BatchJob& job : record.spec.batch_jobs) {
      info.requested_iterations += job.iterations;
    }
  } else {
    info.requested_iterations = record.spec.options.sampling.iterations;
  }
  return info;
}

const Service::Record& Service::record_checked(JobId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    throw usage_error("unknown job id " + std::to_string(id));
  }
  return *it->second;
}

JobInfo Service::info(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(record_checked(id));
}

std::vector<JobInfo> Service::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) {
    out.push_back(snapshot_locked(*record));
  }
  std::sort(out.begin(), out.end(),
            [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
  return out;
}

JobInfo Service::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Record& record = record_checked(id);
  // Never hang a waiter across a drain/shutdown: parked and still-
  // queued jobs will not run again in this process, so their waiters
  // get the non-terminal snapshot back (and must check the state).
  state_cv_.wait(lock, [&] {
    return job_state_terminal(record.state) ||
           ((stopping_ || draining_) && record.state != JobState::kRunning);
  });
  return snapshot_locked(record);
}

Service::Health Service::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Health health;
  health.draining = draining_;
  health.stopping = stopping_;
  health.workers = config_.workers;
  health.running = running_jobs_;
  for (const auto* queue : {&queue_interactive_, &queue_batch_}) {
    std::size_t live = 0;
    for (JobId id : *queue) {
      auto it = records_.find(id);
      if (it != records_.end() && !job_state_terminal(it->second->state)) {
        ++live;
      }
    }
    (queue == &queue_interactive_ ? health.queued_interactive
                                  : health.queued_batch) = live;
  }
  health.shed_total = shed_total_;
  health.journal_replays = journal_replays_;
  health.journal_path = config_.journal_path;
  health.retained_runs = retained_.size();
  health.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  return health;
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void Service::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_ || stopping_) return;
  draining_ = true;
  for (auto& [id, record] : records_) {
    if (record->state != JobState::kRunning) continue;
    if (record->spec.priority == Priority::kBatch &&
        record->spec.preemptible && !config_.work_dir.empty() &&
        !record->cancel_requested && !record->preempt_requested) {
      // Park at the next checkpoint; the journal (no kFinished record)
      // makes the restarted service resume it bit-identically.
      record->preempt_requested = true;
      record->cancel.request();
    }
    // Interactive (and non-checkpointable batch) jobs run to
    // completion — drain is about refusing new work, not dropping
    // in-flight results.
  }
  dispatch_cv_.notify_all();
  state_cv_.notify_all();
}

CountResult Service::count_result(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Record& record = record_checked(id);
  if (!record.count) {
    throw usage_error("job " + std::to_string(id) + " has no count result (" +
                      job_state_name(record.state) + ")");
  }
  return *record.count;
}

sched::BatchResult Service::batch_result(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Record& record = record_checked(id);
  if (!record.batch) {
    throw usage_error("job " + std::to_string(id) + " has no batch result (" +
                      job_state_name(record.state) + ")");
  }
  return *record.batch;
}

CancelSource& Service::cancel_source(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    throw usage_error("unknown job id " + std::to_string(id));
  }
  return it->second->cancel;
}

Service::LoadedGraph Service::load_graph(const std::string& name,
                                         const std::string& dataset,
                                         const std::string& file, double scale,
                                         std::uint64_t seed, bool reload) {
  if (name.empty()) throw usage_error("load_graph needs a name");
  LoadedGraph out;
  if (!reload) {
    out.graph = registry_.get(name);
    if (out.graph) {
      out.cached = true;
      return out;
    }
  }
  const std::string source = dataset.empty() ? name : dataset;
  {
    // A (re)load resets the graph's mutation history: the fresh CSR is
    // version 0 again and no logged delta can bridge to it.
    std::lock_guard<std::mutex> mlock(mutation_mutex_);
    out.graph = registry_.put(name, load_or_make(source, file, scale, seed));
    std::lock_guard<std::mutex> lock(mutex_);
    graph_meta_.erase(name);
  }
  // Journal only once the load succeeded: a registration that cannot
  // be rebuilt must not be replayed as if it could.
  Json doc = Json::object();
  doc["name"] = name;
  doc["dataset"] = source;
  if (!file.empty()) doc["file"] = file;
  doc["scale"] = scale;
  doc["seed"] = seed;
  journal_event(JournalKind::kGraph, 0, doc.dump());
  return out;
}

Service::Mutation Service::mutate_graph(const std::string& name,
                                        std::uint64_t expect_version,
                                        const GraphDelta& delta) {
  // One mutation at a time, end to end: the version check, the
  // copy-apply, and the re-register are a single optimistic-concurrency
  // transaction.  Readers (jobs, status) never wait on this lock.
  std::lock_guard<std::mutex> mlock(mutation_mutex_);
  std::shared_ptr<const Graph> current = registry_.get(name);
  if (!current) {
    throw usage_error("unknown graph '" + name + "' — load_graph it first");
  }
  const std::uint64_t version = current->version();
  if (expect_version != 0 && expect_version != version) {
    throw StaleVersionError(
        "graph '" + name + "' is at version " + std::to_string(version) +
            ", not the expected " + std::to_string(expect_version) +
            " — refresh the version token and retry",
        version);
  }
  // Copy, apply (validates first — a malformed delta escapes here and
  // the registered graph is untouched), then swap the mutated copy in.
  // Jobs admitted earlier keep counting their pinned pre-mutation
  // version until they finish; the re-register drops the registry's
  // cached reorder permutations for this name, which were keyed on the
  // old adjacency.
  Graph mutated = *current;
  current.reset();  // nothing keeps the superseded version alive here
  mutated.apply(delta);
  const std::uint64_t new_version = mutated.version();
  registry_.put(name, std::move(mutated));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GraphMeta& meta = graph_meta_[name];
    meta.version = new_version;
    meta.log.emplace_back(version, delta);
    while (meta.log.size() > config_.delta_log_limit) meta.log.pop_front();
  }
  Mutation out;
  out.version = new_version;
  out.applied_edges = delta.size();
  return out;
}

std::uint64_t Service::graph_version(const std::string& name) {
  std::shared_ptr<const Graph> graph = registry_.get(name);
  if (!graph) {
    throw usage_error("unknown graph '" + name + "' — load_graph it first");
  }
  return graph->version();
}

void Service::retain_locked(JobId id, std::unique_ptr<RunHandle> handle,
                            const std::string& graph) {
  RetainedRun run;
  run.handle = std::move(handle);
  run.graph = graph;
  run.last_use = ++retained_tick_;
  retained_[id] = std::move(run);
  while (retained_.size() >
         static_cast<std::size_t>(config_.max_retained_runs)) {
    auto victim = retained_.end();
    for (auto it = retained_.begin(); it != retained_.end(); ++it) {
      if (it->second.in_use || it->first == id) continue;
      if (victim == retained_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == retained_.end()) break;  // everything else is pinned
    retained_.erase(victim);
  }
}

CountResult Service::execute_recount(Record& record) {
  const JobId of = record.spec.recount_of;
  RunHandle* handle = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = retained_.find(of);
    if (it == retained_.end()) {
      throw bad_input("no retained run for job " + std::to_string(of) +
                      " (evicted from the retained-run pool or lost in a "
                      "restart) — submit a new count with "
                      "options.incremental");
    }
    if (it->second.in_use) {
      throw usage_error("retained run " + std::to_string(of) +
                        " is already being advanced by another recount");
    }
    it->second.in_use = true;
    handle = it->second.handle.get();
  }
  try {
    // Read the current graph and fold the catch-up delta under the
    // mutation lock, so a concurrent mutate_graph cannot slide between
    // the version read and the graph fetch.
    std::shared_ptr<const Graph> graph;
    GraphDelta composed;
    {
      std::lock_guard<std::mutex> mlock(mutation_mutex_);
      graph = registry_.get(record.spec.graph);
      if (!graph) {
        throw usage_error("graph '" + record.spec.graph +
                          "' is no longer registered");
      }
      const std::uint64_t current = graph->version();
      std::uint64_t at = handle->graph_version();
      std::lock_guard<std::mutex> lock(mutex_);
      const GraphMeta& meta = graph_meta_[record.spec.graph];
      if (at > current) {
        // The graph was reloaded underneath the handle; its history is
        // gone and no composition can bridge the reset.
        throw StaleVersionError(
            "retained run " + std::to_string(of) + " is at version " +
                std::to_string(at) + " but graph '" + record.spec.graph +
                "' was reset to version " + std::to_string(current) +
                " — submit a new count with options.incremental",
            current);
      }
      while (at < current) {
        const GraphDelta* step = nullptr;
        for (const auto& [from, delta] : meta.log) {
          if (from == at) {
            step = &delta;
            break;
          }
        }
        if (step == nullptr) {
          throw StaleVersionError(
              "retained run " + std::to_string(of) + " at graph version " +
                  std::to_string(at) +
                  " has fallen out of the delta log (limit " +
                  std::to_string(config_.delta_log_limit) +
                  " mutations) — submit a new count with "
                  "options.incremental",
              current);
        }
        composed = compose(composed, *step);
        ++at;
      }
    }
    handle->recount(*graph, composed);
    CountResult result = handle->result();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = retained_.find(of);
    if (it != retained_.end()) {
      it->second.in_use = false;
      it->second.last_use = ++retained_tick_;
    }
    return result;
  } catch (...) {
    // Stale, missing graph, or a mid-recount failure (which poisons
    // the handle): the retained run cannot serve further recounts, so
    // drop it and let the error surface as the job's failure.
    std::lock_guard<std::mutex> lock(mutex_);
    retained_.erase(of);
    throw;
  }
}

void Service::recover() {
  const JournalReplay replay = Journal::replay(config_.journal_path);
  std::vector<std::string> graphs;
  std::vector<std::pair<JobId, std::string>> accepted;  // admission order
  std::unordered_set<JobId> finished;
  for (const JournalRecord& record : replay.records) {
    switch (record.kind) {
      case JournalKind::kGraph:
        graphs.push_back(record.payload);
        break;
      case JournalKind::kAccepted:
        accepted.emplace_back(record.id, record.payload);
        break;
      case JournalKind::kFinished:
        finished.insert(record.id);
        break;
      case JournalKind::kStarted:
      case JournalKind::kCheckpointed:
        break;  // operator forensics; resume state lives in checkpoints
    }
  }

  // Compact: start a fresh journal and re-append only the state that
  // survives into this incarnation (graph registrations via
  // load_graph, live jobs via admit_locked).  Without this the file
  // would replay every finished job's history on every restart.
  journal_.emplace(Journal::open_truncate(config_.journal_path));

  for (const std::string& payload : graphs) {
    std::string error;
    std::optional<Json> doc = Json::parse(payload, &error);
    if (!doc || !doc->is_object()) continue;
    const std::string name = doc->get_string("name");
    try {
      load_graph(name, doc->get_string("dataset", name),
                 doc->get_string("file"), doc->get_double("scale", 1.0),
                 doc->find("seed") ? doc->find("seed")->as_uint(1) : 1,
                 /*reload=*/false);
    } catch (const std::exception&) {
      // Unbuildable graph (file moved, dataset renamed): its jobs fail
      // individually below with a precise error; recovery continues.
    }
  }

  for (const auto& [old_id, payload] : accepted) {
    if (finished.count(old_id) != 0) continue;
    std::string error;
    std::optional<Json> doc = Json::parse(payload, &error);
    std::optional<JobSpec> spec;
    std::string failure;
    if (!doc || !doc->is_object()) {
      failure = "unparseable accept record: " + error;
    } else {
      try {
        spec.emplace(job_spec_from_request(*doc));
      } catch (const std::exception& e) {
        failure = e.what();
      }
    }
    std::unique_ptr<Record> record;
    if (spec && failure.empty()) {
      try {
        record = build_record(*spec);
      } catch (const std::exception& e) {
        failure = e.what();
      }
    }
    if (record) {
      // Resume from the fingerprint-named checkpoint when this job
      // will run with one (preemptible batch under a work_dir);
      // otherwise it re-runs from scratch.  Counter-mode RNG makes
      // both paths bit-identical to the uninterrupted run.
      record->resume_next = record->spec.priority == Priority::kBatch &&
                            record->spec.preemptible &&
                            !config_.work_dir.empty();
      std::lock_guard<std::mutex> lock(mutex_);
      admit_locked(std::move(record), /*journal=*/true);
      ++journal_replays_;
      replays_metric().add();
    } else {
      // Keep the job visible as kFailed so status (and a retried
      // request_id) reports WHY it did not survive the restart,
      // instead of silently dropping accepted work.
      auto dead = std::make_unique<Record>();
      if (spec) dead->spec = std::move(*spec);
      dead->error = "journal replay: " + failure;
      std::lock_guard<std::mutex> lock(mutex_);
      finish_locked(*dead, JobState::kFailed);  // never pinned a graph
      const JobId id = next_id_++;
      dead->id = id;
      if (!dead->spec.request_id.empty()) {
        by_request_id_[dead->spec.request_id] = id;
      }
      records_.emplace(id, std::move(dead));
    }
  }
}

void Service::shutdown() {
  std::vector<JobId> cancelled_ids;
  std::vector<std::shared_ptr<const Graph>> unpinned;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      for (auto& [id, record] : records_) {
        if (record->state == JobState::kQueued ||
            record->state == JobState::kPreempted) {
          if (journal_ && record->spec.priority == Priority::kBatch &&
              !record->cancel_requested) {
            continue;  // journaled: stays queued, replays after restart
          }
          record->cancel_requested = true;
          unpinned.push_back(finish_locked(*record, JobState::kCancelled));
          cancelled_ids.push_back(id);
        } else if (record->state == JobState::kRunning) {
          if (record->spec.priority == Priority::kBatch &&
              record->spec.preemptible && !config_.work_dir.empty() &&
              !record->cancel_requested && !record->preempt_requested) {
            // Park at the next checkpoint; the journal resumes it.
            record->preempt_requested = true;
            record->cancel.request();
          }
        }
      }
      dispatch_cv_.notify_all();
      state_cv_.notify_all();
      // Bounded grace: let running interactive jobs finish (and
      // parking batch jobs reach their checkpoint) before cancelling.
      if (config_.shutdown_grace_seconds > 0 && running_jobs_ > 0) {
        state_cv_.wait_for(
            lock,
            std::chrono::duration<double>(config_.shutdown_grace_seconds),
            [this] { return running_jobs_ == 0; });
      }
      // Grace expired: cancel the stragglers.  Jobs mid-park keep
      // their preempt request — converting it to a cancel would turn
      // a resumable park into a dropped job.
      for (auto& [id, record] : records_) {
        if (record->state == JobState::kRunning &&
            !record->preempt_requested && !record->cancel_requested) {
          record->cancel_requested = true;
          record->cancel.request();
        }
      }
    }
  }
  unpinned.clear();
  for (JobId id : cancelled_ids) {
    journal_event(JournalKind::kFinished, id,
                  job_state_name(JobState::kCancelled));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

// ---- Session --------------------------------------------------------------

JobId Session::submit(JobSpec spec) {
  const JobId id = service_->submit(std::move(spec));
  submitted_.push_back(id);
  return id;
}

CountResult Session::count(JobSpec spec) {
  const JobId id = submit(std::move(spec));
  const JobInfo done = service_->wait(id);
  if (done.state == JobState::kFailed) {
    throw internal_error("service job failed: " + done.error);
  }
  return service_->count_result(id);
}

sched::BatchResult Session::run_batch(JobSpec spec) {
  spec.kind = JobKind::kBatch;
  const JobId id = submit(std::move(spec));
  const JobInfo done = service_->wait(id);
  if (done.state == JobState::kFailed) {
    throw internal_error("service job failed: " + done.error);
  }
  return service_->batch_result(id);
}

std::vector<obs::MetricSnapshot> Session::drain_metrics() {
  std::vector<obs::MetricSnapshot> now = obs::Registry::global().scrape();
  std::vector<obs::MetricSnapshot> delta = obs::snapshot_delta(baseline_, now);
  baseline_ = std::move(now);
  return delta;
}

}  // namespace fascia::svc
