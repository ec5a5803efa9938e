#include "core/count_options.hpp"

#include <string>

#include "util/error.hpp"

namespace fascia {

namespace {

/// Any resilience control set, including the ones active() ignores
/// (spill directory, resume flag).
bool run_controls_armed(const RunControls& run) {
  return run.active() || !run.spill_dir.empty() || run.resume;
}

}  // namespace

void CountOptions::validate() const {
  if (execution.threads < 0) {
    throw usage_error("execution.threads must be >= 0 (0 = runtime default), got " +
                      std::to_string(execution.threads));
  }
  if (execution.outer_copies < 0) {
    throw usage_error(
        "execution.outer_copies must be >= 0 (0 = one per thread), got " +
        std::to_string(execution.outer_copies));
  }
  if (execution.threads > 0 &&
      execution.outer_copies > execution.threads) {
    throw usage_error("execution.outer_copies (" +
                      std::to_string(execution.outer_copies) +
                      ") exceeds execution.threads (" +
                      std::to_string(execution.threads) + ")");
  }
  if (execution.incremental) {
    if (execution.reorder != ReorderMode::kNone) {
      throw usage_error(
          "execution.incremental and execution.reorder are mutually "
          "exclusive (retained tables are keyed on original vertex ids)");
    }
    if (run_controls_armed(run)) {
      throw usage_error(
          "execution.incremental cannot combine with RunControls "
          "(deadline, memory budget, cancel, checkpoint/resume, spill): "
          "retained state must come from complete uninterrupted passes");
    }
  }
  if (run.resume && run.checkpoint_path.empty()) {
    throw usage_error(
        "run.resume requires run.checkpoint_path (use "
        "builder().resume_from(path))");
  }
  if (!run.checkpoint_path.empty() && run.checkpoint_every < 1) {
    throw usage_error("run.checkpoint_every must be >= 1, got " +
                      std::to_string(run.checkpoint_every));
  }
}

void reject_unsupported_reorder(const CountOptions& options, const char* api) {
  if (options.execution.reorder == ReorderMode::kNone) return;
  throw usage_error(std::string(api) +
                    " does not reorder the graph; set execution.reorder = "
                    "ReorderMode::kNone (it would be silently ignored)");
}

void reject_unsupported_run_controls(const CountOptions& options,
                                     const char* api) {
  if (run_controls_armed(options.run)) {
    throw usage_error(std::string(api) +
                      " does not read RunControls (deadline, memory budget, "
                      "cancel, checkpoint/resume, spill); leave options.run "
                      "unset (it would be silently ignored)");
  }
  if (options.execution.incremental) {
    throw usage_error(std::string(api) +
                      " does not retain DP state; leave "
                      "execution.incremental off (it would be silently "
                      "ignored)");
  }
}

}  // namespace fascia
