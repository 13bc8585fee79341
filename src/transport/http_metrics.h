// Minimal HTTP/1.x GET responder for Prometheus-style scrapes.
//
// PR 7's exposition built the text format (obs/exposition.h); until now it
// left the daemons only two ways to serve it — an RLTF kMetrics query or a
// stderr dump. Real scrapers speak HTTP, so this is the missing last inch: a
// GET-only responder over the existing Listener/ByteStream layer (socket or
// loopback — tests drive it deterministically through an in-memory pipe).
//
// Deliberately NOT a web server: a handful of fixed routes (`/metrics`
// always; daemons add `/healthz` and `/trace`; query strings ignored), GET
// only, no keep-alive (every response carries `Connection: close` and the
// stream closes after the flush), requests capped at kMaxRequestBytes, open
// connections at kMaxConnections (the rest are accepted and closed at once:
// overload shed). Anything else gets the matching error status: 405 for
// other methods, 404 for other targets, 400 for a malformed request line,
// 431 when the request cap trips. Each
// route's body is re-rendered per request by a caller `BodyFn` — typically
// obs::render_prometheus over the daemon's registry.
//
// Driving: poll() is nonblocking and cooperative, made for the daemons'
// existing single-threaded service loops (accept new connections, advance
// each in flight, reap the finished). Not thread-safe; one owner drives it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "transport/byte_stream.h"

namespace rlir::transport {

class HttpMetricsServer {
 public:
  /// Renders one route's body (called once per 200 response).
  using BodyFn = std::function<std::string()>;

  /// Largest request accepted (request line + headers); longer ones answer
  /// 431 and close.
  static constexpr std::size_t kMaxRequestBytes = 8 * 1024;
  /// Open connections beyond this are accepted and immediately closed.
  static constexpr std::size_t kMaxConnections = 64;

  /// Takes ownership of the listener; `body` becomes the `/metrics` route
  /// (Prometheus text content type). Throws std::invalid_argument on a null
  /// listener or a null body fn.
  HttpMetricsServer(std::unique_ptr<Listener> listener, BodyFn body);

  HttpMetricsServer(const HttpMetricsServer&) = delete;
  HttpMetricsServer& operator=(const HttpMetricsServer&) = delete;

  /// Registers (or replaces) a GET route. `path` is matched exactly after
  /// the query string is stripped. Throws std::invalid_argument on an empty
  /// or non-"/" path or a null body fn.
  void add_route(std::string path, BodyFn body,
                 std::string content_type = "application/json");

  /// One cooperative service pass: accepts pending connections, reads/parses
  /// requests, writes responses, closes finished streams. Returns the number
  /// of responses completed this pass.
  std::size_t poll();

  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }
  /// 200 responses.
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }
  /// Every other response, and every shed connection.
  [[nodiscard]] std::uint64_t requests_rejected() const { return rejected_; }

 private:
  struct Conn {
    std::unique_ptr<ByteStream> stream;
    std::vector<std::uint8_t> inbox;
    std::string outbox;
    std::size_t sent = 0;
    bool responding = false;
  };

  /// Parses the buffered request head and stages the response; true once the
  /// connection is in the responding state.
  bool stage_response(Conn& conn);
  void count_response(int code);

  struct Route {
    std::string path;
    BodyFn body;
    std::string content_type;
  };
  /// Exact-match route table; linear scan (a daemon registers 2–3 routes).
  std::vector<Route> routes_;

  std::unique_ptr<Listener> listener_;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace rlir::transport
