// fascia_cli: the full command-line frontend — count any template in
// any graph with every FASCIA option exposed.
//
//   build/examples/fascia_cli --dataset enron --template U7-2
//       --iterations 100 --table compact --partition oaat --outer-copies 1
//   build/examples/fascia_cli --graph my.edges --template-file my_tree.txt
//   build/examples/fascia_cli --dataset ecoli --template U5-2 --enumerate 5
//   build/examples/fascia_cli --dataset ecoli --template U5-2
//       --apply-delta edits.delta      # incremental recount after a delta
//
// A delta file holds one edit per line: "+ u v" inserts edge (u, v),
// "- u v" removes it, '#' starts a comment.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/counter.hpp"
#include "core/extract.hpp"
#include "graph/delta.hpp"
#include "core/mixed_counter.hpp"
#include "core/triangle.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "treelet/catalog.hpp"
#include "run/controls.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table_printer.hpp"

namespace {

/// Reads a delta file: "+ u v" / "- u v" per line, '#' comments.
fascia::GraphDelta read_delta_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw fascia::bad_input("cannot open delta file: " + path);
  fascia::GraphDelta delta;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    char sign = 0;
    fascia::VertexId u = -1;
    fascia::VertexId v = -1;
    if (!(fields >> sign)) continue;  // blank / comment-only line
    if ((sign != '+' && sign != '-') || !(fields >> u >> v)) {
      throw fascia::bad_input(path + ":" + std::to_string(line_no) +
                              ": expected '+ u v' or '- u v'");
    }
    if (sign == '+') {
      delta.insert(u, v);
    } else {
      delta.remove(u, v);
    }
  }
  return delta;
}

fascia::TableKind parse_table(const std::string& name) {
  if (name == "naive") return fascia::TableKind::kNaive;
  if (name == "compact") return fascia::TableKind::kCompact;
  if (name == "hash") return fascia::TableKind::kHash;
  if (name == "succinct") return fascia::TableKind::kSuccinct;
  throw std::invalid_argument("--table must be naive|compact|hash|succinct");
}

fascia::PartitionStrategy parse_partition(const std::string& name) {
  if (name == "oaat") return fascia::PartitionStrategy::kOneAtATime;
  if (name == "balanced") return fascia::PartitionStrategy::kBalanced;
  throw std::invalid_argument("--partition must be oaat|balanced");
}

// SIGINT cancels THIS session's active job and nothing else: the
// handler requests cancellation on the one CancelSource the job is
// bound to (an async-signal-safe relaxed store), and the run layer
// polls the flag at iteration and DP-stage boundaries, finishes the
// current checkpoint, and returns a partial estimate with
// status=cancelled instead of dying mid-write.  No process-global
// cancel flag exists anymore — a co-resident job (e.g. when the CLI
// embeds a Service with more workers) is untouched.
std::atomic<fascia::CancelSource*> g_active_cancel{nullptr};

extern "C" void handle_sigint(int) {
  fascia::CancelSource* source =
      g_active_cancel.load(std::memory_order_relaxed);
  if (source != nullptr) source->request();
}

void add_run_report_rows(fascia::TablePrinter& table,
                         const fascia::RunReport& run) {
  using fascia::TablePrinter;
  table.add_row({"run status", fascia::run_status_name(run.status)});
  table.add_row(
      {"completed iterations",
       TablePrinter::num(static_cast<long long>(run.completed_iterations)) +
           " / " +
           TablePrinter::num(static_cast<long long>(run.requested_iterations))});
  if (run.resumed) {
    table.add_row({"resumed from checkpoint",
                   TablePrinter::num(static_cast<long long>(
                       run.resumed_iterations)) +
                       " iterations"});
  }
  if (!run.resume_rejected.empty()) {
    table.add_row({"resume rejected", run.resume_rejected});
  }
  if (run.checkpoints_written > 0 || run.checkpoint_failures > 0) {
    table.add_row({"checkpoints written",
                   TablePrinter::num(static_cast<long long>(
                       run.checkpoints_written))});
  }
  if (run.checkpoint_failures > 0) {
    table.add_row({"checkpoint failures",
                   TablePrinter::num(static_cast<long long>(
                       run.checkpoint_failures))});
  }
  if (run.estimated_peak_bytes > 0) {
    table.add_row({"estimated peak memory",
                   TablePrinter::bytes(run.estimated_peak_bytes)});
  }
  if (run.spilled_bytes > 0) {
    table.add_row(
        {"spilled to disk",
         TablePrinter::bytes(run.spilled_bytes) + " (" +
             TablePrinter::num(static_cast<long long>(run.spill_events)) +
             " page-outs)"});
  }
  for (const std::string& note : run.degradations) {
    table.add_row({"degradation", note});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  Cli cli("fascia_cli: approximate subgraph counting (FASCIA, ICPP'13)");
  cli.add_common();
  cli.add_option("dataset", "Table I dataset name (see DESIGN.md)", "enron");
  cli.add_option("graph", "edge-list file (overrides --dataset)", "");
  cli.add_option("labels", "per-vertex label file for --graph", "");
  cli.add_option("template", "catalog template name (U3-1 ... U12-2)",
                 "U5-2");
  cli.add_option("template-file", "template file (overrides --template)", "");
  cli.add_option("iterations", "color-coding iterations", "10");
  cli.add_option("colors", "number of colors (0 = template size)", "0");
  cli.add_option("table", "DP table layout: naive|compact|hash|succinct",
                 "compact");
  cli.add_option("partition", "partitioning: oaat|balanced", "oaat");
  cli.add_option("reorder",
                 "vertex reordering: none|degree|bfs|hybrid "
                 "(estimates are bit-identical; results use original ids)",
                 "none");
  cli.add_option("outer-copies",
                 "engine copies running whole iterations, each sweeping "
                 "with threads/copies threads (1 = inner loop, 0 = one "
                 "per thread: outer loop)",
                 "1");
  cli.add_flag("verbose", "print reorder and thread-layout diagnostics");
  cli.add_option("enumerate", "also sample this many embeddings", "0");
  cli.add_option("apply-delta",
                 "edit file ('+ u v' inserts, '- u v' removes, '#' "
                 "comments): count incrementally, apply the delta through "
                 "the versioned service API, and recount only the dirty "
                 "region",
                 "");
  cli.add_option("deadline", "soft wall-clock limit in seconds (0 = none)",
                 "0");
  cli.add_option("mem-budget-mb", "DP table memory budget in MiB (0 = none)",
                 "0");
  cli.add_option("spill-dir",
                 "directory for out-of-core table pages when even the "
                 "succinct layout exceeds --mem-budget-mb",
                 "");
  cli.add_option("checkpoint", "checkpoint file for save/resume", "");
  cli.add_option("checkpoint-every", "iterations between checkpoints", "16");
  cli.add_flag("resume", "resume from --checkpoint if it exists");
  cli.add_option("report",
                 "write the machine-readable RunReport (JSON) to this file",
                 "");
  cli.add_option("trace",
                 "write a Chrome trace_event JSON (chrome://tracing) to "
                 "this file",
                 "");
  cli.add_flag("obs", "enable observability (implied by --report/--trace)");

  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
    const double scale = cli.full_scale() ? 1.0 : 0.1 * cli.real("scale");
    Graph loaded = load_or_make(cli.str("dataset"), cli.str("graph"),
                                std::min(1.0, scale), seed);
    if (!cli.str("labels").empty()) {
      read_labels(loaded, cli.str("labels"));
    }

    // The CLI is a one-session client of the same service layer the
    // socket server runs: the graph goes into the service's registry
    // and tree counts are submitted as jobs, so both frontends share
    // one code path (and the SIGINT handler binds to the job's own
    // CancelSource below).
    svc::Service::Config service_config;
    service_config.workers = 1;
    svc::Service service(service_config);
    svc::Session session(service);
    // Hold the shared handle: --apply-delta re-registers a mutated
    // graph, and the registry's own reference to this one dies then.
    const std::shared_ptr<const Graph> graph_handle =
        service.registry().put("cli", std::move(loaded));
    const Graph& graph = *graph_handle;
    std::printf("graph: n=%d m=%lld d_avg=%.1f d_max=%lld\n",
                graph.num_vertices(),
                static_cast<long long>(graph.num_edges()), graph.avg_degree(),
                static_cast<long long>(graph.max_degree()));

    CountOptions options;
    options.sampling.iterations = static_cast<int>(cli.integer("iterations"));
    options.sampling.num_colors = static_cast<int>(cli.integer("colors"));
    options.execution.table = parse_table(cli.str("table"));
    options.execution.partition = parse_partition(cli.str("partition"));
    options.execution.reorder = parse_reorder_mode(cli.str("reorder"));
    options.execution.outer_copies = static_cast<int>(cli.integer("outer-copies"));
    options.execution.threads = static_cast<int>(cli.integer("threads"));
    options.sampling.seed = seed;
    options.run.deadline_seconds = cli.real("deadline");
    options.run.memory_budget_bytes =
        static_cast<std::size_t>(cli.integer("mem-budget-mb")) * 1024 * 1024;
    options.run.spill_dir = cli.str("spill-dir");
    options.run.checkpoint_path = cli.str("checkpoint");
    options.run.checkpoint_every =
        static_cast<int>(cli.integer("checkpoint-every"));
    options.run.resume = cli.flag("resume");
    // Direct-call paths (triangle, mixed) bind this source; tree
    // counts run as service jobs and rebind SIGINT to the job's own
    // source while they run.
    CancelSource direct_cancel;
    const std::string delta_path = cli.str("apply-delta");
    if (delta_path.empty()) {
      options.run.cancel = &direct_cancel.flag();
    } else {
      // Incremental counts retain complete per-iteration DP state, so
      // RunControls (including the implicit SIGINT cancel binding) are
      // off; validate() rejects the combinations the flags can spell.
      options.execution.incremental = true;
    }
    g_active_cancel.store(&direct_cancel, std::memory_order_relaxed);
    const std::string report_path = cli.str("report");
    const std::string trace_path = cli.str("trace");
    options.observability.enabled =
        cli.flag("obs") || !report_path.empty() || !trace_path.empty();
    if (options.observability.enabled) obs::set_enabled(true);
    std::signal(SIGINT, handle_sigint);

    // Tree counts go through the service session — the same code path
    // a socket client exercises, with per-job cancellation.
    svc::JobId last_tree_job = 0;
    auto run_tree_count = [&](const TreeTemplate& t) {
      svc::JobSpec spec;
      spec.kind = svc::JobKind::kCount;
      spec.graph = "cli";
      spec.tmpl = t;
      spec.options = options;
      spec.priority = svc::Priority::kInteractive;
      spec.preemptible = false;
      const svc::JobId id = session.submit(std::move(spec));
      last_tree_job = id;
      g_active_cancel.store(&service.cancel_source(id),
                            std::memory_order_relaxed);
      const svc::JobInfo done = service.wait(id);
      g_active_cancel.store(&direct_cancel, std::memory_order_relaxed);
      if (done.state == svc::JobState::kFailed) {
        throw std::runtime_error(done.error);
      }
      return service.count_result(id);
    };

    // Template files may contain trees OR triangle-block templates; the
    // catalog holds the paper's named trees plus U3-2 (the triangle).
    CountResult result;
    TreeTemplate tmpl = TreeTemplate::path(3);
    bool is_tree = true;
    if (!cli.str("template-file").empty()) {
      const MixedTemplate mixed =
          MixedTemplate::load(cli.str("template-file"));
      std::printf("template: %s\n\n", mixed.describe().c_str());
      if (mixed.is_tree()) {
        tmpl = mixed.as_tree();
        result = run_tree_count(tmpl);
      } else {
        is_tree = false;
        // Mixed counting runs several tree sub-counts internally; a
        // shared checkpoint file would be overwritten by each one, so
        // only deadline/budget/cancel controls pass through.
        options.run.checkpoint_path.clear();
        options.run.resume = false;
        result = count_mixed_template(graph, mixed, options);
      }
    } else {
      const auto& entry = catalog_entry(cli.str("template"));
      if (entry.is_triangle) {
        is_tree = false;
        options.run.checkpoint_path.clear();
        options.run.resume = false;
        std::printf("template: triangle (U3-2)\n\n");
        result = count_triangles(graph, options);
      } else {
        tmpl = entry.tree;
        std::printf("template: %s\n\n", tmpl.describe().c_str());
        result = run_tree_count(tmpl);
      }
    }

    TablePrinter table({"metric", "value"});
    table.add_row({"estimate", TablePrinter::sci(result.estimate, 6)});
    table.add_row({"iterations",
                   TablePrinter::num(static_cast<long long>(
                       result.per_iteration.size()))});
    table.add_row({"colorful probability P",
                   TablePrinter::num(result.colorful_probability, 6)});
    table.add_row({"automorphisms alpha",
                   TablePrinter::num(static_cast<long long>(
                       result.automorphisms))});
    table.add_row({"total time (s)", TablePrinter::num(result.seconds_total, 3)});
    if (is_tree) {
      table.add_row({"peak table memory",
                     TablePrinter::bytes(result.peak_table_bytes)});
      table.add_row({"subtemplates",
                     TablePrinter::num(static_cast<long long>(
                         result.num_subtemplates))});
      table.add_row({"DP cost model", TablePrinter::sci(result.dp_cost, 3)});
      table.add_row({"thread layout",
                     TablePrinter::num(static_cast<long long>(
                         result.layout.outer_copies)) +
                         " outer x " +
                         TablePrinter::num(static_cast<long long>(
                             result.layout.inner_threads)) +
                         " inner"});
      if (cli.flag("verbose") && options.execution.reorder != ReorderMode::kNone) {
        table.add_row({"reorder mode",
                       reorder_mode_name(options.execution.reorder)});
        table.add_row({"avg neighbor-id gap",
                       TablePrinter::num(result.reorder_gap_before, 1) +
                           " -> " +
                           TablePrinter::num(result.reorder_gap_after, 1)});
        table.add_row({"reorder time (s)",
                       TablePrinter::num(result.reorder_seconds, 3)});
      }
    }
    if (is_tree) add_run_report_rows(table, result.run);
    table.print();

    if (!report_path.empty() && result.report) {
      result.report->write(report_path);
      std::printf("\nrun report: %s\n", report_path.c_str());
    }
    if (!trace_path.empty()) {
      obs::write_chrome_trace(trace_path);
      std::printf("trace (%llu events%s): %s\n",
                  static_cast<unsigned long long>(obs::trace_recorded()),
                  obs::trace_dropped() > 0 ? ", ring wrapped" : "",
                  trace_path.c_str());
    }

    if (!delta_path.empty()) {
      if (!is_tree) {
        throw usage_error(
            "--apply-delta requires a tree template (triangle and mixed "
            "templates have no incremental path)");
      }
      const GraphDelta delta = read_delta_file(delta_path);
      const svc::Service::Mutation mutation =
          service.mutate_graph("cli", 0, delta);
      std::printf("\ndelta %s: %lld edits -> graph version %llu\n",
                  delta_path.c_str(),
                  static_cast<long long>(mutation.applied_edges),
                  static_cast<unsigned long long>(mutation.version));

      svc::JobSpec spec;
      spec.kind = svc::JobKind::kRecount;
      spec.recount_of = last_tree_job;
      spec.priority = svc::Priority::kInteractive;
      spec.preemptible = false;
      const svc::JobId id = session.submit(std::move(spec));
      const svc::JobInfo done = service.wait(id);
      if (done.state == svc::JobState::kFailed) {
        throw std::runtime_error(done.error);
      }
      const CountResult recount = service.count_result(id);

      TablePrinter delta_table({"recount metric", "value"});
      delta_table.add_row(
          {"estimate", TablePrinter::sci(recount.estimate, 6)});
      delta_table.add_row(
          {"dirty vertices",
           TablePrinter::num(static_cast<long long>(
               recount.delta.dirty_vertices)) +
               " (" + TablePrinter::num(recount.delta.dirty_fraction * 100.0,
                                        2) +
               "% of n)"});
      delta_table.add_row({"stages recomputed",
                           TablePrinter::num(static_cast<long long>(
                               recount.delta.stages_recomputed))});
      delta_table.add_row(
          {"rows recomputed / copied",
           TablePrinter::num(static_cast<long long>(
               recount.delta.rows_recomputed)) +
               " / " +
               TablePrinter::num(static_cast<long long>(
                   recount.delta.rows_copied))});
      delta_table.add_row(
          {"recount time (s)", TablePrinter::num(recount.seconds_total, 3)});
      delta_table.print();

      // With --report, the file should describe the run the user ended
      // on: overwrite the initial count's report with the recount's
      // (kind "incremental_count", carrying the delta accounting).
      if (!report_path.empty() && recount.report) {
        recount.report->write(report_path);
        std::printf("recount report: %s\n", report_path.c_str());
      }
    }

    const auto how_many = static_cast<std::size_t>(cli.integer("enumerate"));
    if (how_many > 0 && is_tree) {
      std::printf("\nsampled embeddings:\n");
      for (const auto& embedding :
           sample_embeddings(graph, tmpl, how_many, options)) {
        std::printf(" ");
        for (int tv = 0; tv < tmpl.size(); ++tv) {
          std::printf(" %d->%d", tv,
                      embedding.vertices[static_cast<std::size_t>(tv)]);
        }
        std::printf("\n");
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fascia_cli: %s\n", error.what());
    return fascia::exit_code_for(error);
  }
  return 0;
}
