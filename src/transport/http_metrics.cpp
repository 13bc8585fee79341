#include "transport/http_metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace rlir::transport {

namespace {

constexpr std::size_t kReadChunk = 1024;

[[nodiscard]] std::string make_response(int code, const char* reason, const std::string& body,
                                        const char* content_type, const char* extra_header) {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n";
  if (extra_header != nullptr) {
    out += extra_header;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

/// Offset one past the end of the request head, or npos while incomplete.
[[nodiscard]] std::size_t find_head_end(const std::vector<std::uint8_t>& inbox) {
  const std::string_view text(reinterpret_cast<const char*>(inbox.data()), inbox.size());
  const std::size_t crlf = text.find("\r\n\r\n");
  const std::size_t lf = text.find("\n\n");
  if (crlf == std::string_view::npos && lf == std::string_view::npos) {
    return std::string_view::npos;
  }
  if (crlf == std::string_view::npos) return lf + 2;
  if (lf == std::string_view::npos) return crlf + 4;
  return std::min(crlf + 4, lf + 2);
}

}  // namespace

HttpMetricsServer::HttpMetricsServer(std::unique_ptr<Listener> listener, BodyFn body)
    : listener_(std::move(listener)) {
  if (listener_ == nullptr) {
    throw std::invalid_argument("HttpMetricsServer: listener must not be null");
  }
  add_route("/metrics", std::move(body), "text/plain; version=0.0.4; charset=utf-8");
}

void HttpMetricsServer::add_route(std::string path, BodyFn body, std::string content_type) {
  if (path.empty() || path.front() != '/') {
    throw std::invalid_argument("HttpMetricsServer: route path must start with '/'");
  }
  if (!body) {
    throw std::invalid_argument("HttpMetricsServer: body fn must not be null");
  }
  for (auto& route : routes_) {
    if (route.path == path) {
      route.body = std::move(body);
      route.content_type = std::move(content_type);
      return;
    }
  }
  routes_.push_back(Route{std::move(path), std::move(body), std::move(content_type)});
}

void HttpMetricsServer::count_response(int code) { (code == 200 ? served_ : rejected_) += 1; }

bool HttpMetricsServer::stage_response(Conn& conn) {
  if (conn.inbox.size() > kMaxRequestBytes) {
    conn.outbox = make_response(431, "Request Header Fields Too Large",
                                "request too large\n", "text/plain", nullptr);
    count_response(431);
    conn.responding = true;
    return true;
  }
  const std::size_t head_end = find_head_end(conn.inbox);
  if (head_end == std::string_view::npos) return false;  // keep reading

  const std::string_view head(reinterpret_cast<const char*>(conn.inbox.data()), head_end);
  const std::string_view line = head.substr(0, head.find_first_of("\r\n"));
  // METHOD SP TARGET [SP VERSION] — a bare "GET /metrics" (HTTP/0.9 shape)
  // is accepted; a one-token line is not a request.
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    conn.outbox = make_response(400, "Bad Request", "malformed request line\n",
                                "text/plain", nullptr);
    count_response(400);
    conn.responding = true;
    return true;
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1);
  const std::size_t sp2 = target.find(' ');
  if (sp2 != std::string_view::npos) target = target.substr(0, sp2);
  if (method != "GET") {
    conn.outbox = make_response(405, "Method Not Allowed", "GET only\n", "text/plain",
                                "Allow: GET");
    count_response(405);
    conn.responding = true;
    return true;
  }
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  if (target.empty()) {
    conn.outbox = make_response(400, "Bad Request", "malformed request line\n",
                                "text/plain", nullptr);
    count_response(400);
  } else {
    const Route* route = nullptr;
    for (const auto& candidate : routes_) {
      if (target == candidate.path) {
        route = &candidate;
        break;
      }
    }
    if (route != nullptr) {
      conn.outbox = make_response(200, "OK", route->body(), route->content_type.c_str(),
                                  nullptr);
      count_response(200);
    } else {
      conn.outbox = make_response(404, "Not Found", "try /metrics\n", "text/plain", nullptr);
      count_response(404);
    }
  }
  conn.responding = true;
  return true;
}

std::size_t HttpMetricsServer::poll() {
  // Accept everything pending; connections over the cap close immediately.
  while (auto stream = listener_->accept()) {
    if (conns_.size() >= kMaxConnections) {
      stream->close();
      rejected_ += 1;
      continue;
    }
    Conn conn;
    conn.stream = std::move(stream);
    conns_.push_back(std::move(conn));
  }

  std::size_t completed = 0;
  for (auto& conn : conns_) {
    if (!conn.responding) {
      std::uint8_t chunk[kReadChunk];
      while (true) {
        const std::size_t n = conn.stream->read_some(chunk, sizeof chunk);
        if (n == 0) break;
        conn.inbox.insert(conn.inbox.end(), chunk, chunk + n);
        if (conn.inbox.size() > kMaxRequestBytes) break;
      }
      if (!stage_response(conn) && conn.stream->closed()) {
        conn.stream->close();  // peer gone before a full request: just drop
        continue;
      }
    }
    if (conn.responding && !conn.stream->closed()) {
      conn.sent += conn.stream->write_some(
          reinterpret_cast<const std::uint8_t*>(conn.outbox.data()) + conn.sent,
          conn.outbox.size() - conn.sent);
      if (conn.sent == conn.outbox.size()) {
        conn.stream->close();
        completed += 1;
      }
    }
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.stream->closed(); }),
               conns_.end());
  return completed;
}

}  // namespace rlir::transport
