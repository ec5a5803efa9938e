#include "obs/report.hpp"

#include <cstdio>

namespace fascia::obs {
namespace {

Json doubles_array(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push_back(v);
  return arr;
}

std::vector<double> doubles_from(const Json* arr) {
  std::vector<double> out;
  if (arr == nullptr || !arr->is_array()) return out;
  out.reserve(arr->size());
  for (const Json& v : arr->elements()) out.push_back(v.as_double());
  return out;
}

Json strings_array(const std::vector<std::string>& values) {
  Json arr = Json::array();
  for (const std::string& v : values) arr.push_back(v);
  return arr;
}

std::vector<std::string> strings_from(const Json* arr) {
  std::vector<std::string> out;
  if (arr == nullptr || !arr->is_array()) return out;
  out.reserve(arr->size());
  for (const Json& v : arr->elements()) out.push_back(v.as_string());
  return out;
}

}  // namespace

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc["schema_version"] = kSchemaVersion;
  doc["kind"] = kind;
  if (!label.empty()) doc["label"] = label;

  Json opts = Json::object();
  for (const auto& [key, value] : options) opts[key] = value;
  doc["options"] = std::move(opts);

  Json g = Json::object();
  g["vertices"] = graph.vertices;
  g["edges"] = graph.edges;
  g["max_degree"] = graph.max_degree;
  g["labeled"] = graph.labeled;
  doc["graph"] = std::move(g);

  Json t = Json::object();
  t["vertices"] = tmpl.vertices;
  t["root"] = tmpl.root;
  t["subtemplates"] = tmpl.subtemplates;
  doc["template"] = std::move(t);

  Json s = Json::object();
  s["requested_iterations"] = sampling.requested_iterations;
  s["completed_iterations"] = sampling.completed_iterations;
  s["num_colors"] = sampling.num_colors;
  s["seed"] = sampling.seed;
  s["estimate"] = sampling.estimate;
  s["relative_stderr"] = sampling.relative_stderr;
  s["colorful_probability"] = sampling.colorful_probability;
  s["automorphisms"] = sampling.automorphisms;
  s["trajectory"] = doubles_array(sampling.trajectory);
  doc["sampling"] = std::move(s);

  Json tm = Json::object();
  tm["total_seconds"] = timing.total_seconds;
  tm["plan_seconds"] = timing.plan_seconds;
  tm["reorder_seconds"] = timing.reorder_seconds;
  tm["per_iteration_seconds"] = doubles_array(timing.per_iteration_seconds);
  doc["timing"] = std::move(tm);

  Json m = Json::object();
  m["planned_peak_bytes"] = memory.planned_peak_bytes;
  m["observed_peak_bytes"] = memory.observed_peak_bytes;
  m["spilled_bytes"] = memory.spilled_bytes;
  m["spill_events"] = static_cast<std::int64_t>(memory.spill_events);
  m["table"] = memory.table;
  m["degradations"] = strings_array(memory.degradations);
  doc["memory"] = std::move(m);

  Json th = Json::object();
  th["outer_copies"] = threads.outer_copies;
  th["inner_threads"] = threads.inner_threads;
  th["omp_max_threads"] = threads.omp_max_threads;
  doc["threads"] = std::move(th);

  Json r = Json::object();
  r["status"] = run.status;
  r["resumed"] = run.resumed;
  r["resumed_iterations"] = run.resumed_iterations;
  r["resume_rejected"] = run.resume_rejected;
  r["checkpoints_written"] = run.checkpoints_written;
  r["checkpoint_failures"] = run.checkpoint_failures;
  doc["run"] = std::move(r);

  if (delta.incremental) {
    Json d = Json::object();
    d["incremental"] = delta.incremental;
    d["graph_version"] = delta.graph_version;
    d["recounts"] = delta.recounts;
    d["applied_edges"] = delta.applied_edges;
    d["dirty_vertices"] = delta.dirty_vertices;
    d["dirty_fraction"] = delta.dirty_fraction;
    d["stages_recomputed"] = delta.stages_recomputed;
    d["rows_recomputed"] = delta.rows_recomputed;
    d["rows_copied"] = delta.rows_copied;
    doc["delta"] = std::move(d);
  }

  Json stage_arr = Json::array();
  for (const ReportStage& stage : stages) {
    Json e = Json::object();
    e["node"] = stage.node;
    e["kernel"] = stage.kernel;
    e["table"] = stage.table;
    e["passes"] = stage.passes;
    e["seconds"] = stage.seconds;
    e["candidates"] = stage.candidates;
    e["survivors"] = stage.survivors;
    e["macs"] = stage.macs;
    e["parent_size"] = stage.parent_size;
    e["active_size"] = stage.active_size;
    stage_arr.push_back(std::move(e));
  }
  doc["stages"] = std::move(stage_arr);

  if (!jobs.empty()) {
    Json job_arr = Json::array();
    for (const ReportJob& job : jobs) {
      Json e = Json::object();
      e["name"] = job.name;
      e["estimate"] = job.estimate;
      e["relative_stderr"] = job.relative_stderr;
      e["iterations"] = job.iterations;
      e["converged"] = job.converged;
      job_arr.push_back(std::move(e));
    }
    doc["jobs"] = std::move(job_arr);
  }
  return doc;
}

std::string RunReport::to_json_string(int indent) const {
  return to_json().dump(indent);
}

bool RunReport::from_json(const Json& doc, RunReport* out,
                          std::string* error) {
  if (!doc.is_object()) {
    if (error) *error = "report is not a JSON object";
    return false;
  }
  if (doc.get_int("schema_version", -1) != kSchemaVersion) {
    if (error) {
      *error = "unsupported schema_version " +
               std::to_string(doc.get_int("schema_version", -1));
    }
    return false;
  }
  RunReport rep;
  rep.kind = doc.get_string("kind");
  rep.label = doc.get_string("label");

  if (const Json* opts = doc.find("options"); opts && opts->is_object()) {
    for (const auto& [key, value] : opts->items()) {
      rep.options.emplace_back(key, value.as_string());
    }
  }
  if (const Json* g = doc.find("graph")) {
    rep.graph.vertices = g->get_int("vertices");
    rep.graph.edges = g->get_int("edges");
    rep.graph.max_degree = g->get_int("max_degree");
    rep.graph.labeled = g->get_bool("labeled");
  }
  if (const Json* t = doc.find("template")) {
    rep.tmpl.vertices = static_cast<int>(t->get_int("vertices"));
    rep.tmpl.root = static_cast<int>(t->get_int("root", -1));
    rep.tmpl.subtemplates = static_cast<int>(t->get_int("subtemplates"));
  }
  if (const Json* s = doc.find("sampling")) {
    rep.sampling.requested_iterations =
        static_cast<int>(s->get_int("requested_iterations"));
    rep.sampling.completed_iterations =
        static_cast<int>(s->get_int("completed_iterations"));
    rep.sampling.num_colors = static_cast<int>(s->get_int("num_colors"));
    const Json* seed = s->find("seed");
    rep.sampling.seed = seed ? seed->as_uint() : 0;
    rep.sampling.estimate = s->get_double("estimate");
    rep.sampling.relative_stderr = s->get_double("relative_stderr");
    rep.sampling.colorful_probability = s->get_double("colorful_probability");
    const Json* autos = s->find("automorphisms");
    rep.sampling.automorphisms = autos ? autos->as_uint() : 0;
    rep.sampling.trajectory = doubles_from(s->find("trajectory"));
  }
  if (const Json* tm = doc.find("timing")) {
    rep.timing.total_seconds = tm->get_double("total_seconds");
    rep.timing.plan_seconds = tm->get_double("plan_seconds");
    rep.timing.reorder_seconds = tm->get_double("reorder_seconds");
    rep.timing.per_iteration_seconds =
        doubles_from(tm->find("per_iteration_seconds"));
  }
  if (const Json* m = doc.find("memory")) {
    const Json* planned = m->find("planned_peak_bytes");
    rep.memory.planned_peak_bytes = planned ? planned->as_uint() : 0;
    const Json* observed = m->find("observed_peak_bytes");
    rep.memory.observed_peak_bytes = observed ? observed->as_uint() : 0;
    const Json* spilled = m->find("spilled_bytes");
    rep.memory.spilled_bytes = spilled ? spilled->as_uint() : 0;
    const Json* spill_events = m->find("spill_events");
    rep.memory.spill_events =
        spill_events ? static_cast<int>(spill_events->as_int()) : 0;
    rep.memory.table = m->get_string("table");
    rep.memory.degradations = strings_from(m->find("degradations"));
  }
  if (const Json* th = doc.find("threads")) {
    rep.threads.outer_copies = static_cast<int>(th->get_int("outer_copies", 1));
    rep.threads.inner_threads =
        static_cast<int>(th->get_int("inner_threads", 1));
    rep.threads.omp_max_threads =
        static_cast<int>(th->get_int("omp_max_threads", 1));
  }
  if (const Json* r = doc.find("run")) {
    rep.run.status = r->get_string("status", "completed");
    rep.run.resumed = r->get_bool("resumed");
    rep.run.resumed_iterations =
        static_cast<int>(r->get_int("resumed_iterations"));
    rep.run.resume_rejected = r->get_string("resume_rejected");
    rep.run.checkpoints_written =
        static_cast<int>(r->get_int("checkpoints_written"));
    rep.run.checkpoint_failures =
        static_cast<int>(r->get_int("checkpoint_failures"));
  }
  if (const Json* d = doc.find("delta")) {
    rep.delta.incremental = d->get_bool("incremental");
    const Json* version = d->find("graph_version");
    rep.delta.graph_version = version ? version->as_uint() : 0;
    const Json* recounts = d->find("recounts");
    rep.delta.recounts = recounts ? recounts->as_uint() : 0;
    const Json* applied = d->find("applied_edges");
    rep.delta.applied_edges = applied ? applied->as_uint() : 0;
    const Json* dirty = d->find("dirty_vertices");
    rep.delta.dirty_vertices = dirty ? dirty->as_uint() : 0;
    rep.delta.dirty_fraction = d->get_double("dirty_fraction");
    const Json* stages_re = d->find("stages_recomputed");
    rep.delta.stages_recomputed = stages_re ? stages_re->as_uint() : 0;
    const Json* rows_re = d->find("rows_recomputed");
    rep.delta.rows_recomputed = rows_re ? rows_re->as_uint() : 0;
    const Json* rows_cp = d->find("rows_copied");
    rep.delta.rows_copied = rows_cp ? rows_cp->as_uint() : 0;
  }
  if (const Json* arr = doc.find("stages"); arr && arr->is_array()) {
    for (const Json& e : arr->elements()) {
      ReportStage stage;
      stage.node = static_cast<int>(e.get_int("node", -1));
      stage.kernel = e.get_string("kernel");
      stage.table = e.get_string("table");
      stage.passes = static_cast<int>(e.get_int("passes"));
      stage.seconds = e.get_double("seconds");
      stage.candidates = e.get_double("candidates");
      stage.survivors = e.get_double("survivors");
      stage.macs = e.get_double("macs");
      stage.parent_size = e.get_int("parent_size");
      stage.active_size = e.get_int("active_size");
      rep.stages.push_back(std::move(stage));
    }
  }
  if (const Json* arr = doc.find("jobs"); arr && arr->is_array()) {
    for (const Json& e : arr->elements()) {
      ReportJob job;
      job.name = e.get_string("name");
      job.estimate = e.get_double("estimate");
      job.relative_stderr = e.get_double("relative_stderr");
      job.iterations = static_cast<int>(e.get_int("iterations"));
      job.converged = e.get_bool("converged");
      rep.jobs.push_back(std::move(job));
    }
  }
  *out = std::move(rep);
  return true;
}

bool RunReport::from_json_string(std::string_view text, RunReport* out,
                                 std::string* error) {
  std::optional<Json> doc = Json::parse(text, error);
  if (!doc) return false;
  return from_json(*doc, out, error);
}

bool RunReport::write(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string doc = to_json_string();
  doc.push_back('\n');
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace fascia::obs
