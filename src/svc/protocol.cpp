#include "svc/protocol.hpp"

#include <utility>

#include "obs/report.hpp"
#include "treelet/catalog.hpp"
#include "util/error.hpp"

namespace fascia::svc {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw bad_input("bad request: " + what);
}

/// Reject unknown keys: a typo'd option must fail loudly, not run
/// silently with the default.
void check_keys(const Json& object, std::initializer_list<const char*> known,
                const char* where) {
  for (const auto& [key, value] : object.items()) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      bad_request("unknown key '" + key + "' in " + where);
    }
  }
}

TableKind table_from_name(const std::string& name) {
  if (name == "naive") return TableKind::kNaive;
  if (name == "compact") return TableKind::kCompact;
  if (name == "hash") return TableKind::kHash;
  if (name == "succinct") return TableKind::kSuccinct;
  bad_request("unknown table kind '" + name + "'");
}

/// Decodes the thread layout after "threads": the v3 "outer_copies"
/// key, or the legacy "mode" key every v2 encoder and job journal
/// wrote ("inner" = 1 copy, "outer" = one per thread, "serial" = one
/// copy on one thread).  Leaves the defaults when neither is present.
void layout_from_json(const Json& spec, int& outer_copies, int& threads) {
  const Json* mode = spec.find("mode");
  if (mode == nullptr) {
    outer_copies =
        static_cast<int>(spec.get_int("outer_copies", outer_copies));
    return;
  }
  if (spec.find("outer_copies") != nullptr) {
    bad_request("legacy key 'mode' cannot combine with 'outer_copies'; "
                "send outer_copies only");
  }
  const std::string name = mode->as_string();
  if (name == "inner") {
    outer_copies = 1;
  } else if (name == "outer") {
    outer_copies = 0;
  } else if (name == "serial") {
    outer_copies = 1;
    threads = 1;
  } else {
    bad_request("legacy parallel mode '" + name +
                "' is not supported; set outer_copies instead");
  }
}

PartitionStrategy partition_from_name(const std::string& name) {
  if (name == "one" || name == "one-at-a-time") {
    return PartitionStrategy::kOneAtATime;
  }
  if (name == "balanced") return PartitionStrategy::kBalanced;
  bad_request("unknown partition strategy '" + name + "'");
}

const char* partition_to_name(PartitionStrategy strategy) {
  return strategy == PartitionStrategy::kBalanced ? "balanced" : "one";
}

Json doubles_to_json(const std::vector<double>& values) {
  Json out = Json::array();
  for (double v : values) out.push_back(v);
  return out;
}

Json run_report_to_json(const RunReport& run) {
  Json out = Json::object();
  out["status"] = run_status_name(run.status);
  out["completed_iterations"] = run.completed_iterations;
  out["requested_iterations"] = run.requested_iterations;
  out["table_used"] = table_kind_name(run.table_used);
  out["resumed"] = run.resumed;
  out["resumed_iterations"] = run.resumed_iterations;
  out["checkpoints_written"] = run.checkpoints_written;
  if (!run.degradations.empty()) {
    Json steps = Json::array();
    for (const std::string& step : run.degradations) steps.push_back(step);
    out["degradations"] = std::move(steps);
  }
  return out;
}

}  // namespace

Json capabilities_json() {
  Json out = Json::array();
  out.push_back("mutate_graph");
  out.push_back("adaptive_batch");
  return out;
}

// ---- templates ------------------------------------------------------------

Json template_to_json(const TreeTemplate& tmpl) {
  Json out = Json::object();
  out["k"] = tmpl.size();
  Json edges = Json::array();
  for (const auto& [u, v] : tmpl.edges()) {
    Json edge = Json::array();
    edge.push_back(u);
    edge.push_back(v);
    edges.push_back(std::move(edge));
  }
  out["edges"] = std::move(edges);
  if (tmpl.has_labels()) {
    Json labels = Json::array();
    for (int v = 0; v < tmpl.size(); ++v) {
      labels.push_back(static_cast<int>(tmpl.label(v)));
    }
    out["labels"] = std::move(labels);
  }
  return out;
}

TreeTemplate template_from_json(const Json& spec) {
  if (spec.is_string()) {  // shorthand: "U7-1"
    return catalog_entry(spec.as_string()).tree;
  }
  if (!spec.is_object()) bad_request("template must be an object or name");
  check_keys(spec, {"name", "path", "star", "k", "edges", "labels"},
             "template");
  if (const Json* name = spec.find("name")) {
    return catalog_entry(name->as_string()).tree;
  }
  if (const Json* path = spec.find("path")) {
    return TreeTemplate::path(static_cast<int>(path->as_int()));
  }
  if (const Json* star = spec.find("star")) {
    return TreeTemplate::star(static_cast<int>(star->as_int()));
  }
  const Json* k = spec.find("k");
  const Json* edges = spec.find("edges");
  if (k == nullptr || edges == nullptr || !edges->is_array()) {
    bad_request("template needs name|path|star or k+edges");
  }
  TreeTemplate::EdgeList list;
  for (const Json& edge : edges->elements()) {
    if (!edge.is_array() || edge.size() != 2) {
      bad_request("template edge must be [u, v]");
    }
    list.emplace_back(static_cast<int>(edge.elements()[0].as_int()),
                      static_cast<int>(edge.elements()[1].as_int()));
  }
  TreeTemplate tmpl =
      TreeTemplate::from_edges(static_cast<int>(k->as_int()), list);
  if (const Json* labels = spec.find("labels")) {
    std::vector<std::uint8_t> values;
    for (const Json& label : labels->elements()) {
      values.push_back(static_cast<std::uint8_t>(label.as_int()));
    }
    tmpl.set_labels(std::move(values));
  }
  return tmpl;
}

// ---- options --------------------------------------------------------------

Json count_options_to_json(const CountOptions& options) {
  Json out = Json::object();
  out["iterations"] = options.sampling.iterations;
  out["colors"] = options.sampling.num_colors;
  out["seed"] = options.sampling.seed;
  out["table"] = table_kind_name(options.execution.table);
  out["partition"] = partition_to_name(options.execution.partition);
  out["outer_copies"] = options.execution.outer_copies;
  out["threads"] = options.execution.threads;
  out["reorder"] = reorder_mode_name(options.execution.reorder);
  if (options.run.deadline_seconds > 0) {
    out["deadline_seconds"] = options.run.deadline_seconds;
  }
  if (options.run.memory_budget_bytes > 0) {
    out["memory_budget_bytes"] = options.run.memory_budget_bytes;
  }
  if (!options.run.spill_dir.empty()) {
    out["spill_dir"] = options.run.spill_dir;
  }
  if (options.run.checkpoint_every != RunControls{}.checkpoint_every) {
    out["checkpoint_every"] = options.run.checkpoint_every;
  }
  if (options.execution.incremental) out["incremental"] = true;
  if (options.root >= 0) out["root"] = options.root;
  if (options.per_vertex) out["per_vertex"] = true;
  if (options.observability.enabled) out["observability"] = true;
  if (!options.observability.label.empty()) {
    out["label"] = options.observability.label;
  }
  return out;
}

CountOptions count_options_from_json(const Json& spec) {
  CountOptions options;
  if (spec.is_null()) return options;
  if (!spec.is_object()) bad_request("options must be an object");
  check_keys(spec,
             {"iterations", "colors", "seed", "table", "partition",
              "outer_copies", "mode", "threads", "reorder", "kernel_family",
              "incremental",
              "deadline_seconds", "memory_budget_bytes", "spill_dir",
              "checkpoint_every", "root", "per_vertex", "observability",
              "label"},
             "options");
  options.sampling.iterations =
      static_cast<int>(spec.get_int("iterations", 1));
  options.sampling.num_colors = static_cast<int>(spec.get_int("colors", 0));
  if (const Json* seed = spec.find("seed")) {
    options.sampling.seed = seed->as_uint(1);
  }
  if (const Json* table = spec.find("table")) {
    options.execution.table = table_from_name(table->as_string());
  }
  if (const Json* partition = spec.find("partition")) {
    options.execution.partition = partition_from_name(partition->as_string());
  }
  options.execution.threads = static_cast<int>(spec.get_int("threads", 0));
  layout_from_json(spec, options.execution.outer_copies,
                   options.execution.threads);
  if (const Json* reorder = spec.find("reorder")) {
    options.execution.reorder = parse_reorder_mode(reorder->as_string());
  }
  // Legacy key: older encoders always wrote "kernel_family":"frontier",
  // and job journals replay through this decoder.  Frontier is now the
  // only DP kernel family, so that value is accepted and ignored.
  if (const Json* family = spec.find("kernel_family")) {
    const std::string name = family->as_string();
    if (name != "frontier") bad_request("unknown kernel family '" + name + "'");
  }
  options.execution.incremental = spec.get_bool("incremental", false);
  options.run.deadline_seconds = spec.get_double("deadline_seconds", 0.0);
  options.run.memory_budget_bytes =
      static_cast<std::size_t>(spec.get_int("memory_budget_bytes", 0));
  options.run.spill_dir = spec.get_string("spill_dir");
  if (const Json* every = spec.find("checkpoint_every")) {
    options.run.checkpoint_every = static_cast<int>(every->as_int(16));
  }
  options.root = static_cast<int>(spec.get_int("root", -1));
  options.per_vertex = spec.get_bool("per_vertex", false);
  options.observability.enabled = spec.get_bool("observability", false);
  options.observability.label = spec.get_string("label");
  return options;
}

Json batch_options_to_json(const sched::BatchOptions& options) {
  Json out = Json::object();
  out["colors"] = options.num_colors;
  out["seed"] = options.seed;
  out["table"] = table_kind_name(options.table);
  out["partition"] = partition_to_name(options.partition);
  out["outer_copies"] = options.outer_copies;
  out["threads"] = options.num_threads;
  out["cross_template_reuse"] = options.cross_template_reuse;
  out["min_iterations"] = options.min_iterations;
  out["round_iterations"] = options.round_iterations;
  if (options.adaptive_batch) out["adaptive_batch"] = true;
  if (options.run.deadline_seconds > 0) {
    out["deadline_seconds"] = options.run.deadline_seconds;
  }
  if (options.run.memory_budget_bytes > 0) {
    out["memory_budget_bytes"] = options.run.memory_budget_bytes;
  }
  if (!options.run.spill_dir.empty()) {
    out["spill_dir"] = options.run.spill_dir;
  }
  if (options.observability.enabled) out["observability"] = true;
  return out;
}

sched::BatchOptions batch_options_from_json(const Json& spec) {
  sched::BatchOptions options;
  if (spec.is_null()) return options;
  if (!spec.is_object()) bad_request("options must be an object");
  check_keys(spec,
             {"colors", "seed", "table", "partition", "outer_copies", "mode",
              "threads", "cross_template_reuse", "min_iterations", "round_iterations",
              "adaptive_batch", "deadline_seconds", "memory_budget_bytes",
              "spill_dir", "observability"},
             "batch options");
  options.num_colors = static_cast<int>(spec.get_int("colors", 0));
  if (const Json* seed = spec.find("seed")) options.seed = seed->as_uint(1);
  if (const Json* table = spec.find("table")) {
    options.table = table_from_name(table->as_string());
  }
  if (const Json* partition = spec.find("partition")) {
    options.partition = partition_from_name(partition->as_string());
  }
  options.num_threads = static_cast<int>(spec.get_int("threads", 0));
  layout_from_json(spec, options.outer_copies, options.num_threads);
  options.cross_template_reuse = spec.get_bool("cross_template_reuse", true);
  options.min_iterations =
      static_cast<int>(spec.get_int("min_iterations", 4));
  options.round_iterations =
      static_cast<int>(spec.get_int("round_iterations", 0));
  options.adaptive_batch = spec.get_bool("adaptive_batch", false);
  options.run.deadline_seconds = spec.get_double("deadline_seconds", 0.0);
  options.run.memory_budget_bytes =
      static_cast<std::size_t>(spec.get_int("memory_budget_bytes", 0));
  options.run.spill_dir = spec.get_string("spill_dir");
  options.observability.enabled = spec.get_bool("observability", false);
  return options;
}

// ---- deltas ---------------------------------------------------------------

Json delta_to_json(const GraphDelta& delta) {
  const auto edges_json = [](const EdgeList& edges) {
    Json out = Json::array();
    for (const auto& [u, v] : edges) {
      Json edge = Json::array();
      edge.push_back(u);
      edge.push_back(v);
      out.push_back(std::move(edge));
    }
    return out;
  };
  Json out = Json::object();
  if (!delta.insertions().empty()) {
    out["insert"] = edges_json(delta.insertions());
  }
  if (!delta.deletions().empty()) {
    out["remove"] = edges_json(delta.deletions());
  }
  return out;
}

GraphDelta delta_from_json(const Json& spec) {
  if (!spec.is_object()) bad_request("delta must be an object");
  check_keys(spec, {"insert", "remove"}, "delta");
  GraphDelta delta;
  const auto read_edges = [](const Json& edges, const char* what,
                             auto&& record) {
    if (!edges.is_array()) bad_request(std::string(what) + " must be an array");
    for (const Json& edge : edges.elements()) {
      if (!edge.is_array() || edge.size() != 2) {
        bad_request(std::string(what) + " edit must be [u, v]");
      }
      record(static_cast<VertexId>(edge.elements()[0].as_int()),
             static_cast<VertexId>(edge.elements()[1].as_int()));
    }
  };
  if (const Json* insert = spec.find("insert")) {
    read_edges(*insert, "delta insert",
               [&](VertexId u, VertexId v) { delta.insert(u, v); });
  }
  if (const Json* remove = spec.find("remove")) {
    read_edges(*remove, "delta remove",
               [&](VertexId u, VertexId v) { delta.remove(u, v); });
  }
  return delta;
}

// ---- results --------------------------------------------------------------

Json count_result_to_json(const CountResult& result, bool include_report) {
  Json out = Json::object();
  out["ok"] = true;
  out["estimate"] = result.estimate;
  out["relative_stderr"] = result.relative_stderr;
  out["per_iteration"] = doubles_to_json(result.per_iteration);
  if (!result.vertex_counts.empty()) {
    out["vertex_counts"] = doubles_to_json(result.vertex_counts);
  }
  out["colorful_probability"] = result.colorful_probability;
  out["automorphisms"] = result.automorphisms;
  out["seconds_total"] = result.seconds_total;
  if (result.report && result.report->delta.incremental) {
    // Incremental accounting, mirrored from the report so callers that
    // skip include_report still see the version token and dirty-set
    // economics of the recount.
    Json delta = Json::object();
    delta["graph_version"] = result.report->delta.graph_version;
    delta["recounts"] = result.report->delta.recounts;
    delta["applied_edges"] = result.delta.applied_edges;
    delta["dirty_vertices"] = result.delta.dirty_vertices;
    delta["dirty_fraction"] = result.delta.dirty_fraction;
    delta["stages_recomputed"] = result.delta.stages_recomputed;
    delta["rows_recomputed"] = result.delta.rows_recomputed;
    delta["rows_copied"] = result.delta.rows_copied;
    out["delta"] = std::move(delta);
  }
  out["run"] = run_report_to_json(result.run);
  if (include_report && result.report) {
    out["report"] = result.report->to_json();
  }
  return out;
}

Json batch_result_to_json(const sched::BatchResult& result,
                          bool include_report) {
  Json out = Json::object();
  out["ok"] = true;
  out["estimate"] = result.estimate;
  out["relative_stderr"] = result.relative_stderr;
  out["num_colors"] = result.num_colors;
  out["iterations_total"] = result.iterations_total;
  out["coloring_rounds"] = result.coloring_rounds;
  out["cache_hit_rate"] = result.cache_hit_rate();
  Json jobs = Json::array();
  for (const sched::BatchJobResult& job : result.jobs) {
    Json entry = Json::object();
    entry["estimate"] = job.estimate;
    entry["relative_stderr"] = job.relative_stderr;
    entry["iterations"] = job.iterations;
    entry["converged"] = job.converged;
    entry["per_iteration"] = doubles_to_json(job.per_iteration);
    jobs.push_back(std::move(entry));
  }
  out["jobs"] = std::move(jobs);
  out["run"] = run_report_to_json(result.run);
  if (include_report && result.report) {
    out["report"] = result.report->to_json();
  }
  return out;
}

Json job_info_to_json(const JobInfo& info) {
  Json out = Json::object();
  out["job"] = info.id;
  out["kind"] = job_kind_name(info.kind);
  out["state"] = job_state_name(info.state);
  out["priority"] = priority_name(info.priority);
  out["graph"] = info.graph;
  if (!info.label.empty()) out["label"] = info.label;
  if (!info.request_id.empty()) out["request_id"] = info.request_id;
  if (!info.error.empty()) out["error"] = info.error;
  out["estimated_peak_bytes"] = info.estimated_peak_bytes;
  out["preemptions"] = info.preemptions;
  out["completed_iterations"] = info.completed_iterations;
  out["requested_iterations"] = info.requested_iterations;
  return out;
}

// ---- requests -------------------------------------------------------------

Priority priority_from_name(const std::string& name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "batch" || name.empty()) return Priority::kBatch;
  bad_request("unknown priority '" + name + "'");
}

JobSpec job_spec_from_request(const Json& request) {
  JobSpec spec;
  const std::string op = request.get_string("op");
  if (op == "count") {
    spec.kind = JobKind::kCount;
  } else if (op == "gdd") {
    spec.kind = JobKind::kGdd;
  } else if (op == "run_batch") {
    spec.kind = JobKind::kBatch;
  } else if (op == "recount") {
    spec.kind = JobKind::kRecount;
  } else {
    bad_request("op '" + op + "' is not a job");
  }
  spec.graph = request.get_string("graph");
  // recount infers the graph from the retained run; everything else
  // must name one.
  if (spec.graph.empty() && spec.kind != JobKind::kRecount) {
    bad_request("missing 'graph'");
  }
  spec.priority = priority_from_name(request.get_string("priority"));
  spec.preemptible = request.get_bool("preemptible", true);
  spec.label = request.get_string("label");
  spec.request_id = request.get_string("request_id");

  if (spec.kind == JobKind::kRecount) {
    spec.recount_of =
        static_cast<JobId>(request.get_int("recount_of", 0));
    if (spec.recount_of == 0) {
      bad_request("recount needs 'recount_of' (the retained job id)");
    }
  } else if (spec.kind == JobKind::kBatch) {
    const Json* jobs = request.find("jobs");
    if (jobs == nullptr || !jobs->is_array() || jobs->size() == 0) {
      bad_request("run_batch needs a non-empty 'jobs' array");
    }
    for (const Json& entry : jobs->elements()) {
      sched::BatchJob job;
      const Json* tmpl = entry.find("template");
      if (tmpl == nullptr) bad_request("batch job needs 'template'");
      job.tmpl = template_from_json(*tmpl);
      job.iterations = static_cast<int>(entry.get_int("iterations", 1));
      job.target_relative_stderr =
          entry.get_double("target_relative_stderr", 0.0);
      job.max_iterations =
          static_cast<int>(entry.get_int("max_iterations", 1000));
      spec.batch_jobs.push_back(std::move(job));
    }
    const Json* options = request.find("options");
    spec.batch_options =
        batch_options_from_json(options ? *options : Json());
  } else {
    const Json* tmpl = request.find("template");
    if (tmpl == nullptr) bad_request("missing 'template'");
    spec.tmpl = template_from_json(*tmpl);
    const Json* options = request.find("options");
    spec.options = count_options_from_json(options ? *options : Json());
    if (spec.kind == JobKind::kGdd) {
      if (const Json* orbit = request.find("orbit")) {
        spec.options.root = static_cast<int>(orbit->as_int());
      }
      spec.options.per_vertex = true;
    }
  }
  return spec;
}

Json job_spec_to_request_json(const JobSpec& spec) {
  Json out = Json::object();
  switch (spec.kind) {
    case JobKind::kCount:
      out["op"] = "count";
      break;
    case JobKind::kGdd:
      out["op"] = "gdd";
      break;
    case JobKind::kBatch:
      out["op"] = "run_batch";
      break;
    case JobKind::kRecount:
      out["op"] = "recount";
      break;
  }
  out["graph"] = spec.graph;
  out["priority"] = priority_name(spec.priority);
  out["preemptible"] = spec.preemptible;
  if (!spec.label.empty()) out["label"] = spec.label;
  if (!spec.request_id.empty()) out["request_id"] = spec.request_id;
  if (spec.kind == JobKind::kRecount) {
    out["recount_of"] = spec.recount_of;
  } else if (spec.kind == JobKind::kBatch) {
    Json jobs = Json::array();
    for (const sched::BatchJob& job : spec.batch_jobs) {
      Json entry = Json::object();
      entry["template"] = template_to_json(job.tmpl);
      entry["iterations"] = job.iterations;
      if (job.target_relative_stderr > 0.0) {
        entry["target_relative_stderr"] = job.target_relative_stderr;
      }
      entry["max_iterations"] = job.max_iterations;
      jobs.push_back(std::move(entry));
    }
    out["jobs"] = std::move(jobs);
    out["options"] = batch_options_to_json(spec.batch_options);
  } else {
    out["template"] = template_to_json(spec.tmpl);
    out["options"] = count_options_to_json(spec.options);
  }
  return out;
}

Json error_response(const std::string& message, const std::string& category) {
  Json out = Json::object();
  out["ok"] = false;
  out["error"] = message;
  out["category"] = category;
  out["protocol"] = kProtocolVersion;
  return out;
}

Json error_response(const std::string& message, const std::string& category,
                    double retry_after_seconds) {
  Json out = error_response(message, category);
  if (retry_after_seconds > 0.0) {
    out["retry_after_seconds"] = retry_after_seconds;
  }
  return out;
}

}  // namespace fascia::svc
