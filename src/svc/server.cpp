#include "svc/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include <sys/socket.h>

#include "svc/protocol.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/framing.hpp"

namespace fascia::svc {

using obs::Json;

namespace {

const obs::Metric& conn_timeouts_metric() {
  static const obs::Metric m("svc.conn.timeouts",
                             obs::InstrumentKind::kCounter);
  return m;
}

const obs::Metric& conn_shed_metric() {
  static const obs::Metric m("svc.shed", obs::InstrumentKind::kCounter);
  return m;
}

}  // namespace

Server::Server(Config config)
    : config_(std::move(config)), service_(config_.service) {}

Server::~Server() { stop(); }

void Server::start() {
  if (config_.port >= 0) {
    tcp_ = util::Listener::tcp(config_.host, config_.port);
  }
  if (!config_.unix_path.empty()) {
    unix_ = util::Listener::unix_domain(config_.unix_path);
  }
  if (!tcp_.valid() && !unix_.valid()) {
    throw usage_error("server has no listener (TCP disabled, no unix path)");
  }
  if (tcp_.valid()) {
    acceptors_.emplace_back([this] { accept_loop(tcp_); });
  }
  if (unix_.valid()) {
    acceptors_.emplace_back([this] { accept_loop(unix_); });
  }
}

void Server::accept_loop(util::Listener& listener) {
  while (true) {
    util::Socket socket = listener.accept();
    if (!socket.valid()) return;  // listener closed: clean exit
    reap_connections();
    bool shed = false;
    std::size_t serving = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_ || shutdown_requested_) return;
      serving = live_fds_.size();
      if (config_.max_connections > 0 && serving >= config_.max_connections) {
        shed = true;
      } else {
        live_fds_.push_back(socket.fd());
        connections_.emplace_back([this, s = std::move(socket)]() mutable {
          serve_connection(std::move(s));
        });
      }
    }
    if (shed) {
      // Typed rejection instead of a silent RST; bounded write deadline
      // so a non-reading peer cannot stall the accept loop.  The
      // Socket destructor closes the fd either way.
      conn_shed_metric().add();
      socket.set_write_timeout(1.0);
      try {
        util::write_frame(
            socket.fd(),
            error_response("server at connection limit (" +
                               std::to_string(serving) + " serving)",
                           "overloaded",
                           service_.config().retry_after_seconds)
                .dump());
      } catch (const std::exception&) {
      }
    }
  }
}

void Server::reap_connections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_ids_.empty()) return;
    for (auto it = connections_.begin(); it != connections_.end();) {
      auto id_it =
          std::find(finished_ids_.begin(), finished_ids_.end(), it->get_id());
      if (id_it == finished_ids_.end()) {
        ++it;
        continue;
      }
      finished_ids_.erase(id_it);
      done.push_back(std::move(*it));
      it = connections_.erase(it);
    }
  }
  for (std::thread& thread : done) thread.join();  // exited: instant
}

void Server::serve_connection(util::Socket socket) {
  const int fd = socket.fd();
  if (config_.idle_timeout_seconds > 0) {
    socket.set_read_timeout(config_.idle_timeout_seconds);
  }
  if (config_.io_timeout_seconds > 0) {
    socket.set_write_timeout(config_.io_timeout_seconds);
  }
  std::vector<obs::MetricSnapshot> metrics_baseline =
      obs::Registry::global().scrape();
  std::string payload;
  bool keep_going = true;
  while (keep_going) {
    try {
      const util::FrameRead read = util::read_frame_idle(fd, &payload);
      if (read == util::FrameRead::kEof) break;  // client hung up
      if (read == util::FrameRead::kIdleTimeout) {
        conn_timeouts_metric().add();
        break;  // idle client: close quietly, nothing to reply to
      }
    } catch (const Error& e) {
      // A framing-level failure leaves the byte stream unsynchronized,
      // so after the (best-effort) typed reply the connection closes —
      // continuing would misparse every later byte.
      if (e.context() == util::kTimeoutContext) {
        conn_timeouts_metric().add();  // stalled mid-frame
      } else {
        try {
          send(fd, error_response(e.what(), error_category_name(e.category())));
        } catch (const std::exception&) {
        }
      }
      break;
    } catch (const std::exception&) {
      break;  // connection reset: nothing sane to reply to
    }
    std::string parse_error;
    std::optional<Json> request = Json::parse(payload, &parse_error);
    try {
      if (!request || !request->is_object()) {
        // Frame boundaries are intact — a garbage payload gets a typed
        // error and the connection keeps serving.
        send(fd, error_response("request is not a JSON object: " + parse_error,
                                error_category_name(ErrorCategory::kBadInput)));
        continue;
      }
      keep_going = handle_request(fd, *request, metrics_baseline);
    } catch (const OverloadedError& e) {
      try {
        send(fd,
             error_response(e.what(), "overloaded", e.retry_after_seconds()));
      } catch (const std::exception&) {
        break;
      }
    } catch (const Error& e) {
      if (e.context() == util::kTimeoutContext) {
        conn_timeouts_metric().add();
        break;  // write deadline expired: peer stopped reading
      }
      try {
        send(fd, error_response(e.what(), error_category_name(e.category())));
      } catch (const std::exception&) {
        break;
      }
    } catch (const std::exception& e) {
      try {
        send(fd, error_response(e.what(), "internal"));
      } catch (const std::exception&) {
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
  finished_ids_.push_back(std::this_thread::get_id());
}

void Server::send(int fd, const Json& response) {
  if (fault::fire("svc.send.torn")) {
    util::write_torn_frame(fd, response.dump());
    ::shutdown(fd, SHUT_RDWR);
    throw resource_error("fault injected: torn reply frame", "fault");
  }
  if (fault::fire("svc.send.disconnect")) {
    ::shutdown(fd, SHUT_RDWR);
    throw resource_error("fault injected: mid-stream disconnect", "fault");
  }
  util::write_frame(fd, response.dump());
}

bool Server::handle_request(int fd, const Json& request,
                            std::vector<obs::MetricSnapshot>& baseline) {
  const std::string op = request.get_string("op");
  if (op == "count" || op == "gdd" || op == "run_batch" || op == "recount") {
    handle_job(fd, request, baseline);
    return true;
  }
  if (op == "load_graph") {
    handle_load_graph(fd, request);
    return true;
  }
  if (op == "mutate_graph") {
    const std::string name = request.get_string("graph");
    if (name.empty()) {
      send(fd, error_response("mutate_graph needs 'graph'", "usage"));
      return true;
    }
    const GraphDelta delta = delta_from_json(
        request.find("delta") != nullptr ? *request.find("delta") : Json());
    const std::uint64_t expect =
        request.find("expect_version") != nullptr
            ? request.find("expect_version")->as_uint(0)
            : 0;
    try {
      const Service::Mutation mutation =
          service_.mutate_graph(name, expect, delta);
      Json out = Json::object();
      out["ok"] = true;
      out["graph"] = name;
      out["version"] = mutation.version;
      out["applied_edges"] = mutation.applied_edges;
      out["protocol"] = kProtocolVersion;
      send(fd, out);
    } catch (const StaleVersionError& e) {
      // Distinct category plus the current token: the documented retry
      // is read "current_version", rebase the delta, resend.
      Json out = error_response(e.what(), "stale_version");
      out["current_version"] = e.current_version();
      send(fd, out);
    }
    return true;
  }
  if (op == "status") {
    handle_status(fd, request);
    return true;
  }
  if (op == "health") {
    const Service::Health health = service_.health();
    Json out = Json::object();
    out["ok"] = true;
    out["draining"] = health.draining;
    out["stopping"] = health.stopping;
    out["workers"] = health.workers;
    out["running"] = health.running;
    out["queued_interactive"] = health.queued_interactive;
    out["queued_batch"] = health.queued_batch;
    out["shed_total"] = health.shed_total;
    out["journal_replays"] = health.journal_replays;
    out["journal"] = health.journal_path;
    out["uptime_seconds"] = health.uptime_seconds;
    out["retained_runs"] = health.retained_runs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out["connections"] = live_fds_.size();
    }
    out["protocol"] = kProtocolVersion;
    out["capabilities"] = capabilities_json();
    send(fd, out);
    return true;
  }
  if (op == "drain") {
    // Orderly-restart mode: running preemptible batch jobs park at a
    // checkpoint, new submits get "overloaded" + Retry-After, the
    // journal resumes everything after the restart.
    service_.drain();
    Json out = Json::object();
    out["ok"] = true;
    out["draining"] = true;
    out["protocol"] = kProtocolVersion;
    send(fd, out);
    return true;
  }
  if (op == "cancel") {
    const JobId id = static_cast<JobId>(request.get_int("job", 0));
    Json out = Json::object();
    out["ok"] = true;
    out["job"] = id;
    out["cancelled"] = service_.cancel(id);
    out["protocol"] = kProtocolVersion;
    send(fd, out);
    return true;
  }
  if (op == "shutdown") {
    Json out = Json::object();
    out["ok"] = true;
    out["shutting_down"] = true;
    out["protocol"] = kProtocolVersion;
    send(fd, out);
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    return false;  // this connection is done; stop() joins the rest
  }
  send(fd, error_response("unknown op '" + op + "'", "usage"));
  return true;
}

void Server::handle_job(int fd, const Json& request,
                        std::vector<obs::MetricSnapshot>& baseline) {
  JobSpec spec = job_spec_from_request(request);
  const bool stream = request.get_bool("stream", false);
  const bool include_report = request.get_bool("report", false);
  const JobKind kind = spec.kind;
  const std::string request_id = spec.request_id;
  const JobId id = service_.submit(std::move(spec));

  if (stream) {
    const auto interval = std::chrono::duration<double>(
        std::max(0.001, config_.progress_interval_seconds));
    JobInfo info = service_.info(id);
    while (true) {
      Json event = job_info_to_json(info);
      event["event"] = "progress";
      // Best-effort attribution: the obs registry is process-global,
      // so concurrent jobs' work lands in the same deltas.
      std::vector<obs::MetricSnapshot> now = obs::Registry::global().scrape();
      event["metrics"] =
          obs::snapshots_json(obs::snapshot_delta(baseline, now));
      baseline = std::move(now);
      send(fd, event);  // at least one frame even for instant jobs
      if (job_state_terminal(info.state)) break;
      const Service::Health health = service_.health();
      if ((health.draining || health.stopping) &&
          info.state != JobState::kRunning) {
        break;  // parked for restart; the terminal frame says so below
      }
      std::this_thread::sleep_for(interval);
      info = service_.info(id);
    }
  }

  const JobInfo done = service_.wait(id);
  if (!job_state_terminal(done.state)) {
    // Drain/shutdown parked the job at a checkpoint; it is journaled
    // and resumes after the restart.  The retry contract: resend the
    // SAME request_id and the recovered job answers it.
    Json out = error_response(
        "job parked for restart (" + std::string(job_state_name(done.state)) +
            "); retry with the same request_id once the server is back",
        "draining", service_.config().retry_after_seconds);
    out["job"] = done.id;
    out["state"] = job_state_name(done.state);
    if (!request_id.empty()) out["request_id"] = request_id;
    send(fd, out);
    return;
  }
  if (done.state == JobState::kFailed) {
    Json out = error_response(done.error, "internal");
    out["job"] = done.id;
    out["state"] = job_state_name(done.state);
    if (!request_id.empty()) out["request_id"] = request_id;
    send(fd, out);
    return;
  }
  if (fault::fire("svc.reply.drop")) {
    // Crash window between "job finished (journaled, checkpointed)"
    // and "client heard about it": the connection dies and the client
    // must recover the result by retrying its request_id.
    ::shutdown(fd, SHUT_RDWR);
    throw resource_error("fault injected: reply dropped after completion",
                         "fault");
  }
  Json out = kind == JobKind::kBatch
                 ? batch_result_to_json(service_.batch_result(id),
                                        include_report)
                 : count_result_to_json(service_.count_result(id),
                                        include_report);
  out["job"] = done.id;
  out["state"] = job_state_name(done.state);
  out["preemptions"] = done.preemptions;
  if (!request_id.empty()) out["request_id"] = request_id;
  out["protocol"] = kProtocolVersion;
  send(fd, out);
}

void Server::handle_load_graph(int fd, const Json& request) {
  const std::string name = request.get_string("name");
  if (name.empty()) {
    send(fd, error_response("load_graph needs 'name'", "usage"));
    return;
  }
  // Delegate to the service so the registration is journaled — a
  // restarted server rebuilds the graph before replaying its jobs.
  const Service::LoadedGraph loaded = service_.load_graph(
      name, request.get_string("dataset", name), request.get_string("file"),
      request.get_double("scale", 1.0),
      request.find("seed") ? request.find("seed")->as_uint(1) : 1,
      request.get_bool("reload", false));
  Json out = Json::object();
  out["ok"] = true;
  out["graph"] = name;
  out["cached"] = loaded.cached;
  out["n"] = loaded.graph->num_vertices();
  out["m"] = loaded.graph->num_edges();
  out["bytes"] = loaded.graph->bytes();
  out["version"] = loaded.graph->version();
  out["protocol"] = kProtocolVersion;
  send(fd, out);
}

void Server::handle_status(int fd, const Json& request) {
  Json out = Json::object();
  out["ok"] = true;
  if (const Json* job = request.find("job")) {
    out["job_info"] =
        job_info_to_json(service_.info(static_cast<JobId>(job->as_int())));
  } else {
    Json jobs = Json::array();
    for (const JobInfo& info : service_.jobs()) {
      jobs.push_back(job_info_to_json(info));
    }
    out["jobs"] = std::move(jobs);
    const GraphRegistry::Stats stats = service_.registry().stats();
    Json registry = Json::object();
    registry["resident_bytes"] = stats.resident_bytes;
    registry["budget_bytes"] = stats.budget_bytes;
    registry["graphs"] = stats.graphs;
    registry["permutations"] = stats.permutations;
    registry["partitions"] = stats.partitions;
    registry["hits"] = stats.hits;
    registry["misses"] = stats.misses;
    registry["evictions"] = stats.evictions;
    registry["resurrections"] = stats.resurrections;
    registry["held_graphs"] = stats.held_graphs;
    registry["held_bytes"] = stats.held_bytes;
    out["registry"] = std::move(registry);
    Json names = Json::array();
    Json versions = Json::object();
    for (const std::string& graph : service_.registry().graph_names()) {
      names.push_back(graph);
      versions[graph] = service_.graph_version(graph);
    }
    out["graph_names"] = std::move(names);
    out["graph_versions"] = std::move(versions);
  }
  out["protocol"] = kProtocolVersion;
  out["capabilities"] = capabilities_json();
  send(fd, out);
}

void Server::wait_shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

bool Server::wait_shutdown_for(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return shutdown_requested_ || stopped_; });
}

void Server::stop() {
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    // Wake connection threads blocked in read_frame: shutdown() makes
    // their next read return EOF and the thread winds down cleanly.
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connections_);
    finished_ids_.clear();
  }
  // Wake the acceptors without touching the descriptors they read;
  // close them only once every acceptor has exited.
  tcp_.shutdown();
  unix_.shutdown();
  for (std::thread& acceptor : acceptors_) {
    if (acceptor.joinable()) acceptor.join();
  }
  tcp_.close();
  unix_.close();
  for (std::thread& connection : connections) {
    if (connection.joinable()) connection.join();
  }
  service_.shutdown();
}

}  // namespace fascia::svc
