#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"

namespace fascia::svc {

using obs::Json;

namespace {

const obs::Metric& retries_metric() {
  static const obs::Metric m("svc.retries", obs::InstrumentKind::kCounter);
  return m;
}

/// A request may be resent blindly only when resending cannot create
/// duplicate work: non-job ops are read-only or idempotent by
/// construction, job ops need a request_id so the service dedups.
bool idempotent(const Json& request) {
  const std::string op = request.get_string("op");
  if (op != "count" && op != "gdd" && op != "run_batch") return true;
  return !request.get_string("request_id").empty();
}

void sleep_seconds(double seconds) {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

Client::Client(util::Socket socket, RetryOptions retry)
    : socket_(std::move(socket)),
      retry_(retry),
      jitter_state_(retry.jitter_seed) {
  if (socket_.valid() && retry_.op_timeout_seconds > 0) {
    socket_.set_read_timeout(retry_.op_timeout_seconds);
    socket_.set_write_timeout(retry_.op_timeout_seconds);
  }
}

Client Client::connect_tcp(const std::string& host, int port) {
  return connect_tcp(host, port, RetryOptions());
}

Client Client::connect_unix(const std::string& path) {
  return connect_unix(path, RetryOptions());
}

Client Client::connect_tcp(const std::string& host, int port,
                           RetryOptions retry) {
  Client client(util::connect_tcp(host, port), retry);
  client.host_ = host;
  client.port_ = port;
  return client;
}

Client Client::connect_unix(const std::string& path, RetryOptions retry) {
  Client client(util::connect_unix(path), retry);
  client.unix_path_ = path;
  return client;
}

double Client::next_jitter() {
  // splitmix64: deterministic, seedable, no global RNG state.
  jitter_state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = jitter_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;
  return 0.5 + 0.5 * unit;
}

void Client::ensure_connected() {
  if (socket_.valid()) return;
  if (port_ >= 0) {
    socket_ = util::connect_tcp(host_, port_);
  } else if (!unix_path_.empty()) {
    socket_ = util::connect_unix(unix_path_);
  } else {
    throw resource_error("client has no endpoint to reconnect to");
  }
  if (retry_.op_timeout_seconds > 0) {
    socket_.set_read_timeout(retry_.op_timeout_seconds);
    socket_.set_write_timeout(retry_.op_timeout_seconds);
  }
}

Json Client::request_once(const Json& request) {
  util::write_frame(socket_.fd(), request.dump());
  std::string payload;
  while (true) {
    if (!util::read_frame(socket_.fd(), &payload)) {
      throw bad_input("server closed the connection before replying");
    }
    std::string error;
    std::optional<Json> frame = Json::parse(payload, &error);
    if (!frame) {
      throw bad_input("malformed frame from server: " + error);
    }
    if (frame->contains("event")) {
      if (on_event_) on_event_(*frame);
      continue;
    }
    return std::move(*frame);
  }
}

Json Client::request(const Json& request) {
  const bool safe_to_resend = idempotent(request);
  double backoff = std::max(0.0, retry_.backoff_initial_seconds);
  for (int attempt = 1;; ++attempt) {
    const bool last = attempt >= std::max(1, retry_.max_attempts);
    try {
      ensure_connected();
      Json terminal = request_once(request);
      const std::string category = terminal.get_string("category");
      const bool rejected = !terminal.get_bool("ok", true) &&
                            (category == "overloaded" ||
                             category == "draining");
      if (!rejected || !retry_.honor_retry_after || last) {
        return terminal;
      }
      // The server refused (shed or draining) without accepting a job,
      // so a resend cannot duplicate work even without a request_id.
      // Honor its Retry-After hint, floored by our own backoff.
      const double hint = terminal.get_double("retry_after_seconds", 0.0);
      retries_metric().add();
      sleep_seconds(std::min(std::max(hint, backoff * next_jitter()),
                             std::max(retry_.backoff_max_seconds, hint)));
    } catch (const Error&) {
      // Transport fault (peer reset, torn frame, deadline expiry): the
      // connection state is unknown, so drop it; a retry reconnects.
      socket_.close();
      if (!safe_to_resend || last) throw;
      retries_metric().add();
      sleep_seconds(backoff * next_jitter());
    }
    backoff = std::min(std::max(backoff * 2, retry_.backoff_initial_seconds),
                       retry_.backoff_max_seconds);
  }
}

Json Client::load_graph(const std::string& name, const std::string& dataset,
                        const std::string& file, double scale,
                        std::uint64_t seed) {
  Json req = Json::object();
  req["op"] = "load_graph";
  req["name"] = name;
  if (!dataset.empty()) req["dataset"] = dataset;
  if (!file.empty()) req["file"] = file;
  req["scale"] = scale;
  req["seed"] = seed;
  return request(req);
}

Json Client::status() {
  Json req = Json::object();
  req["op"] = "status";
  return request(req);
}

Json Client::health() {
  Json req = Json::object();
  req["op"] = "health";
  return request(req);
}

Json Client::drain() {
  Json req = Json::object();
  req["op"] = "drain";
  return request(req);
}

Json Client::cancel(std::uint64_t job_id) {
  Json req = Json::object();
  req["op"] = "cancel";
  req["job"] = job_id;
  return request(req);
}

Json Client::shutdown() {
  Json req = Json::object();
  req["op"] = "shutdown";
  return request(req);
}

Json Client::mutate_graph(const std::string& graph, const Json& delta,
                          std::uint64_t expect_version) {
  if (!has_capability("mutate_graph")) {
    throw usage_error(
        "server (protocol " + std::to_string(protocol_version()) +
        ") does not support mutate_graph — upgrade it or reload the graph");
  }
  Json req = Json::object();
  req["op"] = "mutate_graph";
  req["graph"] = graph;
  req["delta"] = delta;
  if (expect_version != 0) req["expect_version"] = expect_version;
  return request(req);
}

void Client::ensure_hello() {
  if (hello_cached_) return;
  const Json reply = health();
  protocol_version_ = static_cast<int>(reply.get_int("protocol", 1));
  capabilities_.clear();
  if (const Json* caps = reply.find("capabilities")) {
    for (const Json& cap : caps->elements()) {
      capabilities_.push_back(cap.as_string());
    }
  }
  hello_cached_ = true;
}

int Client::protocol_version() {
  ensure_hello();
  return protocol_version_;
}

const std::vector<std::string>& Client::capabilities() {
  ensure_hello();
  return capabilities_;
}

bool Client::has_capability(const std::string& name) {
  const std::vector<std::string>& caps = capabilities();
  return std::find(caps.begin(), caps.end(), name) != caps.end();
}

}  // namespace fascia::svc
