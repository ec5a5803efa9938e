#include "core/incremental.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/counter.hpp"
#include "core/engine.hpp"
#include "graph/delta.hpp"
#include "obs/metrics.hpp"
#include "sched/driver.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fascia {

/// Everything a recount needs except the graph, which the caller
/// passes back in (so the handle works with in-place mutation and the
/// service's copy-on-mutate registry alike).  The iteration loop is
/// the driver's (sched/driver.hpp); the handle owns the retained slot.
class RunHandle::Impl {
 public:
  Impl(const TreeTemplate& tmpl, const CountOptions& options)
      : tmpl_(tmpl), options_(options) {}

  /// One pass on the driver: the initial retained run when `delta` is
  /// null, a delta pass otherwise.  Any throw leaves the handle
  /// poisoned (the retained state may be partially advanced).
  void run(const Graph& graph, const GraphDelta* delta) {
    poisoned_ = true;
    if (options_.observability.enabled) obs::set_enabled(true);
    const std::uint64_t recounts = recounts_ + (delta != nullptr ? 1 : 0);
    obs::RunReport header =
        detail::count_report_header("incremental_count", tmpl_, options_);
    header.options.emplace_back("execution.incremental", "true");
    header.delta.incremental = true;
    header.delta.graph_version = graph.version();
    header.delta.recounts = recounts;

    sched::detail::CountInputs inputs;
    inputs.retained = &retained_;
    DirtyBalls dirty;
    if (delta != nullptr) {
      dirty = DirtyBalls::build(graph, delta->touched_vertices(),
                                tmpl_.size() - 1);
      inputs.dirty = &dirty;
      header.delta.applied_edges = static_cast<std::uint64_t>(delta->size());
      header.delta.dirty_vertices = dirty.at(tmpl_.size() - 1).size();
      header.delta.dirty_fraction =
          static_cast<double>(header.delta.dirty_vertices) /
          static_cast<double>(std::max<VertexId>(graph.num_vertices(), 1));
    }
    CountResult result = detail::drive_count(graph, tmpl_, options_,
                                             std::move(header), inputs);
    if (result.run.status != RunStatus::kCompleted) {
      // Only complete passes leave every iteration's state retained.
      throw resource_error(std::string("incremental pass stopped early (") +
                           run_status_name(result.run.status) + ")");
    }
    result_ = std::move(result);
    graph_version_ = graph.version();
    n_ = graph.num_vertices();
    recounts_ = recounts;
    poisoned_ = false;
  }

  TreeTemplate tmpl_;
  CountOptions options_;
  std::unique_ptr<sched::detail::RetainedPasses> retained_;
  CountResult result_;
  VertexId n_ = 0;
  std::uint64_t graph_version_ = 0;
  std::uint64_t recounts_ = 0;
  bool poisoned_ = false;
};

RunHandle::RunHandle(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
RunHandle::RunHandle(RunHandle&&) noexcept = default;
RunHandle& RunHandle::operator=(RunHandle&&) noexcept = default;
RunHandle::~RunHandle() = default;

const CountResult& RunHandle::result() const noexcept {
  return impl_->result_;
}
std::uint64_t RunHandle::graph_version() const noexcept {
  return impl_->graph_version_;
}
std::uint64_t RunHandle::recounts() const noexcept {
  return impl_->recounts_;
}
std::size_t RunHandle::retained_bytes() const noexcept {
  return impl_->retained_ != nullptr ? impl_->retained_->bytes() : 0;
}
const CountResult& RunHandle::recount(const Graph& new_graph,
                                      const GraphDelta& delta) {
  if (impl_->poisoned_) {
    throw usage_error(
        "RunHandle::recount: handle was poisoned by a failed recount; "
        "begin_incremental again");
  }
  if (new_graph.num_vertices() != impl_->n_) {
    throw bad_input("RunHandle::recount: graph vertex count changed (" +
                    std::to_string(impl_->n_) + " -> " +
                    std::to_string(new_graph.num_vertices()) + ")");
  }
  if (fault::fire("delta.recount")) throw fault::Injected("delta.recount");
  impl_->run(new_graph, &delta);
  return impl_->result_;
}

RunHandle begin_incremental(const Graph& graph, const TreeTemplate& tmpl,
                            const CountOptions& options) {
  CountOptions opts = options;
  opts.execution.incremental = true;
  detail::validate_count_inputs(graph, tmpl, opts, "begin_incremental");
  auto impl = std::make_unique<RunHandle::Impl>(tmpl, opts);
  impl->run(graph, nullptr);
  return RunHandle(std::move(impl));
}

}  // namespace fascia
