#pragma once
// Resilient-run controls and reporting (the run layer's public types).
//
// FASCIA's sampling loop (Alg. 1) is embarrassingly restartable:
// iteration i's coloring depends only on (seed, i) — a counter-mode
// RNG — so a run can stop at any iteration boundary and later resume
// to bit-identical estimates.  The run layer exploits that to give
// long jobs three guarantees the raw loop lacks:
//
//   * a cooperative deadline / cancellation flag / memory budget
//     (RunGuard, guard.hpp) checked at iteration and DP-stage
//     boundaries — exhausted runs return the completed prefix with an
//     honest RunStatus instead of aborting;
//   * a pre-run memory estimate feeding a degradation ladder
//     (memory.hpp): table layout naive -> compact -> succinct, then
//     fewer outer-mode private table copies, then out-of-core paging,
//     before the first allocation;
//   * periodic checksummed checkpoints (checkpoint.hpp) written
//     atomically, from which count_template and sched::run_batch
//     resume deterministically.
//
// CountOptions / BatchOptions embed RunControls; CountResult /
// BatchResult embed the RunReport describing what actually happened.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dp/count_table.hpp"

namespace fascia::obs {
struct RunReport;  // obs/report.hpp — the machine-readable run document
}  // namespace fascia::obs

namespace fascia {

/// How a run ended.  Anything but kCompleted means the result is an
/// honest partial: the estimate covers `completed_iterations` of the
/// requested budget (kMemDegraded with a full iteration count means
/// the run finished, but only after degrading its table backend).
enum class RunStatus {
  kCompleted,
  kDeadline,     ///< cooperative deadline expired
  kCancelled,    ///< external cancellation flag was set
  kMemDegraded,  ///< budget forced degradation and/or an early stop
};

const char* run_status_name(RunStatus status) noexcept;

/// Owner of one run's cancellation flag.  Every job gets its OWN
/// source — bind it with `controls.cancel = &source.flag()` (or
/// builder().cancel_flag(&source.flag())) — so cancelling one job can
/// never abort a co-resident job in the same process.  The old pattern
/// of a single process-global std::atomic<bool> shared by every run is
/// exactly what this replaces: the server cancels per job, and the CLI
/// binds its SIGINT handler to the one source of its one session.
/// request() is async-signal-safe (one relaxed atomic store).
class CancelSource {
 public:
  CancelSource() = default;
  CancelSource(const CancelSource&) = delete;
  CancelSource& operator=(const CancelSource&) = delete;

  /// Ask the bound run to stop at its next guard poll.
  void request() noexcept { flag_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool requested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

  /// Re-arm for another run (e.g. resuming a preempted job).
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

  /// The flag RunControls::cancel points at.  The source must outlive
  /// every run bound to it.
  [[nodiscard]] const std::atomic<bool>& flag() const noexcept {
    return flag_;
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Budgets and persistence knobs for one run.  Default-constructed
/// controls are inert: no deadline, no budget, no checkpointing —
/// the legacy run-to-completion behavior.
struct RunControls {
  /// Wall-clock budget in seconds; <= 0 means none.  Checked
  /// cooperatively at iteration and DP-stage boundaries, so overshoot
  /// is bounded by one stage pass.
  double deadline_seconds = 0.0;

  /// Peak DP-table budget in bytes; 0 means none.  Enforced twice:
  /// before the run by the degradation ladder (run/memory.hpp) and
  /// during the run against MemTracker::current().
  std::size_t memory_budget_bytes = 0;

  /// Per-run cancellation flag (a CancelSource's flag()); the run
  /// stops at the next boundary after it becomes true.  Not owned.
  /// One flag per job — never share one flag across unrelated runs.
  const std::atomic<bool>* cancel = nullptr;

  /// Checkpoint file; empty disables checkpointing.  Written every
  /// checkpoint_every completed iterations via temp-file + rename, so
  /// a crash mid-write leaves the previous checkpoint intact.  A path
  /// naming a DIRECTORY (or ending in '/') resolves to a per-job file
  /// inside it keyed by the run fingerprint
  /// (run::resolve_checkpoint_path), so concurrent jobs can share one
  /// work directory safely.
  std::string checkpoint_path;
  int checkpoint_every = 16;

  /// Resume from checkpoint_path when it holds a valid checkpoint of
  /// the same run (fingerprint match).  A missing file starts fresh; a
  /// corrupt or mismatched one also starts fresh but is reported in
  /// RunReport::resume_rejected.
  bool resume = false;

  /// Directory for out-of-core table pages; empty disables paging.
  /// Arms the memory ladder's last rung: when even the floor table
  /// layout exceeds memory_budget_bytes, completed sub-template tables
  /// spill to checksummed files here (run/spill.hpp) and are paged
  /// back per stage, so the budget bounds the resident set instead of
  /// the run aborting.  Only engages when memory_budget_bytes > 0 and
  /// the plan demands it; estimates stay bit-identical either way.
  std::string spill_dir;

  /// True when any control is active (the run loop takes the
  /// instrumented path only if so).
  [[nodiscard]] bool active() const noexcept {
    return deadline_seconds > 0.0 || memory_budget_bytes > 0 ||
           cancel != nullptr || !checkpoint_path.empty();
  }
};

/// What the run layer did, attached to every result.
struct RunReport {
  RunStatus status = RunStatus::kCompleted;

  /// Contiguous completed iteration prefix the estimate covers (for
  /// batches: shared coloring rounds).
  int completed_iterations = 0;
  int requested_iterations = 0;

  /// Table layout actually used (after any degradation).
  TableKind table_used = TableKind::kCompact;

  /// Outer-mode private engine copies actually allowed.
  int engine_copies = 0;

  /// Pre-run peak estimate for the chosen configuration.
  std::size_t estimated_peak_bytes = 0;

  /// Out-of-core paging activity (0 when the plan never spilled):
  /// bytes of completed tables written to RunControls::spill_dir.
  std::size_t spilled_bytes = 0;
  int spill_events = 0;  ///< tables written out (restores not counted)

  /// Human-readable degradation-ladder steps, in order.
  std::vector<std::string> degradations;

  bool resumed = false;
  int resumed_iterations = 0;     ///< iterations restored from the file
  std::string resume_rejected;    ///< why an existing checkpoint was unusable
  int checkpoints_written = 0;
  int checkpoint_failures = 0;    ///< failed writes (run continues)
};

/// Common base of every public result type (CountResult, BatchResult,
/// MotifProfile): the unbiased estimate, its sampling error, how the
/// run ended, and the machine-readable report.  Callers check
/// `outcome.ok()` / `outcome.status()` the same way regardless of
/// which entry point produced the result.
struct RunOutcome {
  /// Mean of the per-iteration unbiased estimates (Alg. 1 line 7).
  /// Batch / motif-profile runs: sum over jobs.
  double estimate = 0.0;

  /// Relative standard error of `estimate` (stddev of the iteration
  /// mean / |mean|); 0 when fewer than two iterations contributed.
  double relative_stderr = 0.0;

  /// What the resilient run layer did: final status, completed
  /// iteration prefix, degradations, checkpoint activity.  For a run
  /// with inert RunControls this is kCompleted with completed ==
  /// requested iterations.
  RunReport run;

  /// The observability document for this invocation (obs/report.hpp):
  /// resolved options, graph stats, per-stage timings, memory plan vs.
  /// observed, estimate trajectory.  Always attached; cheap to share.
  std::shared_ptr<const obs::RunReport> report;

  [[nodiscard]] RunStatus status() const noexcept { return run.status; }

  /// True when the run completed its full budget without degradation
  /// stops — anything else means `estimate` is an honest partial.
  [[nodiscard]] bool ok() const noexcept {
    return run.status == RunStatus::kCompleted;
  }

  /// The attached report rendered as JSON ("" when absent).
  [[nodiscard]] std::string report_json(int indent = 2) const;
};

}  // namespace fascia
