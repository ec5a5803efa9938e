#pragma once
// Client side of the counting-service wire protocol (docs/SERVER.md).
//
// Thin and synchronous: request() sends one framed JSON request and
// reads frames until the terminal one (the frame without an "event"
// key), invoking the event callback for each progress frame in
// between.  Convenience wrappers cover the common ops; anything the
// protocol speaks can be sent through the raw request() with a
// hand-built Json.  Not thread-safe — one Client per thread, or
// serialize externally (the server is happy to hold many
// connections).
//
// Retry (PR 7): the client remembers its endpoint and, when
// RetryOptions::max_attempts > 1, survives transport faults by
// reconnecting and resending with capped exponential backoff plus
// deterministic jitter.  Two safety rules make this correct:
//
//   * a job request (count/gdd/run_batch) is only resent when it
//     carries a request_id — the service dedups on it, so the retry
//     attaches to the ORIGINAL job instead of double-submitting
//     (including across a server crash: the journal replays the
//     dedup map);
//   * an "overloaded"/"draining" terminal frame is always safe to
//     retry (the job was refused, not accepted), and the client backs
//     off for at least the server's retry_after_seconds hint.
//
// Per-op deadlines (op_timeout_seconds) arm kernel read/write
// timeouts, so a stalled or wedged server surfaces as a typed
// Error(kResource, context "timeout") instead of a hung client.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/socket.hpp"

namespace fascia::svc {

class Client {
 public:
  struct RetryOptions {
    /// Total attempts per request() (1 = no retry, the pre-PR 7
    /// behavior and the right default for tests that assert on
    /// first-failure semantics).
    int max_attempts = 1;

    /// First backoff sleep; doubles per retry up to the cap.  Each
    /// sleep is jittered to 50–100% of the nominal value so a fleet of
    /// retrying clients does not stampede in lockstep.
    double backoff_initial_seconds = 0.05;
    double backoff_max_seconds = 2.0;

    /// Per-operation read/write deadline (0 = none).  Long-running
    /// non-streamed jobs need this generous — the terminal frame only
    /// arrives when the job finishes.
    double op_timeout_seconds = 0.0;

    /// Sleep at least the server's retry_after_seconds hint before
    /// retrying an "overloaded"/"draining" rejection.
    bool honor_retry_after = true;

    /// Seed of the deterministic jitter stream (reproducible tests).
    std::uint64_t jitter_seed = 0x5eedf00dULL;
  };

  /// Connect over TCP / a Unix-domain socket.  Throws
  /// Error(kResource) on connection failure.
  static Client connect_tcp(const std::string& host, int port);
  static Client connect_tcp(const std::string& host, int port,
                            RetryOptions retry);
  static Client connect_unix(const std::string& path);
  static Client connect_unix(const std::string& path, RetryOptions retry);

  void set_retry(RetryOptions retry) { retry_ = retry; }
  [[nodiscard]] const RetryOptions& retry() const noexcept { return retry_; }

  /// Called for every event frame ("event" key present) received
  /// while a request() waits for its terminal frame.  A retried
  /// request may replay event frames.
  using EventHandler = std::function<void(const obs::Json&)>;
  void on_event(EventHandler handler) { on_event_ = std::move(handler); }

  /// Sends `request`, dispatches event frames to the handler, returns
  /// the terminal frame.  Throws Error(kBadInput) on a malformed frame
  /// or unexpected EOF, Error(kResource) on transport failure or an
  /// expired op deadline (context "timeout") — after exhausting any
  /// configured retries.
  obs::Json request(const obs::Json& request);

  // ---- convenience wrappers ----------------------------------------------

  /// Registers a graph server-side; `dataset`/`file`/`scale`/`seed`
  /// as in graph/datasets.hpp load_or_make.
  obs::Json load_graph(const std::string& name,
                       const std::string& dataset = "",
                       const std::string& file = "", double scale = 1.0,
                       std::uint64_t seed = 1);

  obs::Json status();
  obs::Json health();
  obs::Json drain();
  obs::Json cancel(std::uint64_t job_id);
  obs::Json shutdown();

  /// Applies a delta ({"insert": [[u,v],...], "remove": [[u,v],...]})
  /// to a registered graph.  `expect_version` 0 accepts any current
  /// version; otherwise a mismatch returns the "stale_version" error
  /// envelope with "current_version" (see docs/SERVER.md for the
  /// refresh-and-retry contract).  Throws Error(kUsage) when the
  /// server does not advertise the "mutate_graph" capability.
  obs::Json mutate_graph(const std::string& graph, const obs::Json& delta,
                         std::uint64_t expect_version = 0);

  /// The server's protocol version and capability list, fetched from
  /// health() on first use and cached for the connection's lifetime.
  [[nodiscard]] int protocol_version();
  [[nodiscard]] const std::vector<std::string>& capabilities();
  [[nodiscard]] bool has_capability(const std::string& name);

  void close() { socket_.close(); }

 private:
  Client(util::Socket socket, RetryOptions retry);

  void ensure_connected();
  void ensure_hello();  ///< fetches protocol/capabilities once
  obs::Json request_once(const obs::Json& request);
  double next_jitter();  ///< uniform in [0.5, 1.0), deterministic

  util::Socket socket_;
  RetryOptions retry_;
  std::string host_;
  int port_ = -1;          ///< < 0: not a TCP client
  std::string unix_path_;  ///< empty: not a Unix-socket client
  std::uint64_t jitter_state_ = 0;
  EventHandler on_event_;

  bool hello_cached_ = false;  ///< protocol/capabilities fetched
  int protocol_version_ = 0;
  std::vector<std::string> capabilities_;
};

}  // namespace fascia::svc
