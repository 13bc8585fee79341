// HttpMetricsServer: the GET-only /metrics responder, driven entirely over
// in-memory loopback pipes through a fake Listener — no sockets, fully
// deterministic. Covers the happy scrape (status line, headers,
// Content-Length, body), each rejection status (405/404/400/431), pipelined
// half-written requests, connection shedding, and the request counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "transport/byte_stream.h"
#include "transport/http_metrics.h"

namespace rlir::transport {
namespace {

/// Listener over make_loopback pipes: connect() mints a pair and queues the
/// server end for the next accept() — what a socket listener does, minus
/// the kernel.
class FakeListener final : public Listener {
 public:
  [[nodiscard]] std::unique_ptr<ByteStream> accept() override {
    if (pending_->empty()) return nullptr;
    auto stream = std::move(pending_->front());
    pending_->pop_front();
    return stream;
  }

  /// The client end of a fresh connection; the server end awaits accept().
  [[nodiscard]] std::unique_ptr<ByteStream> connect() {
    auto [client_end, server_end] = make_loopback();
    pending_->push_back(std::move(server_end));
    return std::move(client_end);
  }

  /// Shared so the test keeps minting connections after the server takes
  /// ownership of the listener.
  [[nodiscard]] std::shared_ptr<std::deque<std::unique_ptr<ByteStream>>> queue() {
    return pending_;
  }

  explicit FakeListener(std::shared_ptr<std::deque<std::unique_ptr<ByteStream>>> pending =
                            std::make_shared<std::deque<std::unique_ptr<ByteStream>>>())
      : pending_(std::move(pending)) {}

 private:
  std::shared_ptr<std::deque<std::unique_ptr<ByteStream>>> pending_;
};

/// Sends `request` over a fresh connection, polls the server until the
/// response completes, returns the raw response text.
std::string roundtrip(HttpMetricsServer& server,
                      const std::shared_ptr<std::deque<std::unique_ptr<ByteStream>>>& queue,
                      const std::string& request) {
  auto [client_end, server_end] = make_loopback();
  queue->push_back(std::move(server_end));
  std::size_t sent = 0;
  while (sent < request.size()) {
    sent += client_end->write_some(
        reinterpret_cast<const std::uint8_t*>(request.data()) + sent, request.size() - sent);
  }
  std::string response;
  std::uint8_t buf[4096];
  for (int i = 0; i < 1000; ++i) {
    server.poll();
    while (true) {
      const std::size_t n = client_end->read_some(buf, sizeof(buf));
      if (n == 0) break;
      response.append(reinterpret_cast<const char*>(buf), n);
    }
    if (client_end->closed()) break;  // Connection: close ends every exchange
  }
  return response;
}

TEST(HttpMetricsTest, ServesMetricsBody) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  int renders = 0;
  HttpMetricsServer server(std::move(listener), [&renders] {
    ++renders;
    return std::string("rlir_up 1\n");
  });

  const auto response =
      roundtrip(server, queue, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nrlir_up 1\n"), std::string::npos);
  EXPECT_EQ(renders, 1);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.requests_rejected(), 0u);
  EXPECT_EQ(server.open_connections(), 0u) << "finished stream must be reaped";

  // The body re-renders per scrape (a live registry, not a cached page).
  (void)roundtrip(server, queue, "GET /metrics?format=prometheus HTTP/1.0\r\n\r\n");
  EXPECT_EQ(renders, 2) << "query strings are ignored, body re-rendered";
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(HttpMetricsTest, RejectionStatuses) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("x\n"); });

  EXPECT_EQ(roundtrip(server, queue, "POST /metrics HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 405 ", 0),
            0u);
  EXPECT_EQ(roundtrip(server, queue, "GET /other HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 404 ", 0),
            0u);
  EXPECT_EQ(roundtrip(server, queue, "garbage\r\n\r\n").rfind("HTTP/1.1 400 ", 0), 0u);
  const std::string huge =
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(10000, 'a') + "\r\n\r\n";
  EXPECT_EQ(roundtrip(server, queue, huge).rfind("HTTP/1.1 431 ", 0), 0u);

  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.requests_rejected(), 4u);
}

TEST(HttpMetricsTest, SlowRequestCompletesAcrossPolls) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("ok\n"); });

  auto [client_end, server_end] = make_loopback();
  queue->push_back(std::move(server_end));
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  // Dribble one byte per poll: the server must buffer a half request
  // without answering or dropping it.
  for (const char c : request) {
    server.poll();
    (void)client_end->write_some(reinterpret_cast<const std::uint8_t*>(&c), 1);
  }
  std::string response;
  std::uint8_t buf[1024];
  for (int i = 0; i < 100 && !client_end->closed(); ++i) {
    server.poll();
    while (true) {
      const std::size_t n = client_end->read_some(buf, sizeof(buf));
      if (n == 0) break;
      response.append(reinterpret_cast<const char*>(buf), n);
    }
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpMetricsTest, ShedsConnectionsOverTheCap) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("x\n"); });

  // One idle connection over the cap; the last must be shed (accepted then
  // closed).
  constexpr std::size_t kCap = HttpMetricsServer::kMaxConnections;
  std::vector<std::unique_ptr<ByteStream>> clients;
  for (std::size_t i = 0; i < kCap + 1; ++i) {
    auto [client_end, server_end] = make_loopback();
    queue->push_back(std::move(server_end));
    clients.push_back(std::move(client_end));
  }
  server.poll();
  EXPECT_EQ(server.open_connections(), kCap);
  EXPECT_TRUE(clients[kCap]->closed());
  EXPECT_FALSE(clients[0]->closed());
  EXPECT_GE(server.requests_rejected(), 1u);
}

TEST(HttpMetricsTest, NullArgumentsThrow) {
  EXPECT_THROW(HttpMetricsServer(nullptr, [] { return std::string(); }),
               std::invalid_argument);
  EXPECT_THROW(HttpMetricsServer(std::make_unique<FakeListener>(), nullptr),
               std::invalid_argument);
}

TEST(HttpMetricsTest, AddedRoutesServeAlongsideMetrics) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("up 1\n"); });
  server.add_route("/healthz", [] { return std::string("{\"status\":\"ok\"}\n"); });
  server.add_route("/trace", [] { return std::string("{\"traceEvents\":[]}\n"); });

  const auto health = roundtrip(server, queue, "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(health.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(health.find("{\"status\":\"ok\"}\n"), std::string::npos);

  // Query strings are stripped for every route, not just /metrics.
  const auto trace = roundtrip(server, queue, "GET /trace?trace_id=7 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(trace.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(trace.find("{\"traceEvents\":[]}\n"), std::string::npos);

  // /metrics keeps its own content type next to the JSON routes.
  const auto metrics = roundtrip(server, queue, "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(HttpMetricsTest, NewRoutesKeep404And405Behavior) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("x\n"); });
  server.add_route("/healthz", [] { return std::string("ok\n"); });

  // Near-miss targets are 404, with the original hint body intact.
  const auto miss = roundtrip(server, queue, "GET /healthz/extra HTTP/1.1\r\n\r\n");
  EXPECT_EQ(miss.rfind("HTTP/1.1 404 ", 0), 0u);
  EXPECT_NE(miss.find("try /metrics\n"), std::string::npos);
  EXPECT_EQ(roundtrip(server, queue, "GET /health HTTP/1.1\r\n\r\n").rfind("HTTP/1.1 404 ", 0),
            0u);

  // Non-GET methods are 405 on added routes too.
  const auto post = roundtrip(server, queue, "POST /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405 ", 0), 0u);
  EXPECT_NE(post.find("Allow: GET\r\n"), std::string::npos);
  EXPECT_EQ(server.requests_rejected(), 3u);
}

TEST(HttpMetricsTest, AddRouteReplacesAndValidates) {
  auto listener = std::make_unique<FakeListener>();
  auto queue = listener->queue();
  HttpMetricsServer server(std::move(listener), [] { return std::string("x\n"); });
  server.add_route("/healthz", [] { return std::string("v1\n"); });
  server.add_route("/healthz", [] { return std::string("v2\n"); });

  const auto response = roundtrip(server, queue, "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("v2\n"), std::string::npos);
  EXPECT_EQ(response.find("v1\n"), std::string::npos);

  EXPECT_THROW(server.add_route("", [] { return std::string(); }), std::invalid_argument);
  EXPECT_THROW(server.add_route("no-slash", [] { return std::string(); }),
               std::invalid_argument);
  EXPECT_THROW(server.add_route("/null", nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rlir::transport
