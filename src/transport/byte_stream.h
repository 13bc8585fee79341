// The transport tier's byte-moving contract: a nonblocking, ordered,
// reliable-until-closed duplex byte stream. Everything above it (framing,
// the collector client/agent) is written against this interface, so the
// same protocol code runs over an in-memory loopback pipe (deterministic,
// for tests and simulation) and over real POSIX sockets (deployment).
//
// Semantics every backend must honor:
//   * write_some/read_some never block: they move as many bytes as the
//     backend can take/give right now and return the count (0 = try later).
//   * Bytes arrive in order and unmodified until the stream closes.
//   * closed() means no byte will ever move again in either direction —
//     peer gone *and* nothing left to read. Data written before a peer's
//     close stays readable (socket-like half-close draining).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace rlir::transport {

/// Per-call I/O granularity of the client and the agent: the byte cap of one
/// gather write and the size of one read. Sized to hold a whole
/// default-coalesce client frame, so the common case is one syscall per
/// sealed frame on each side.
inline constexpr std::size_t kIoChunkBytes = 512u << 10;

/// One span of a gather write (see ByteStream::write_some_vectored).
struct ConstBuffer {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Appends up to `size` bytes to the stream; returns how many were
  /// accepted (0 when the backend is full or the stream is closed).
  virtual std::size_t write_some(const std::uint8_t* data, std::size_t size) = 0;

  /// Gather write: appends the spans back-to-back, as if write_some were
  /// called on their concatenation, and returns the total bytes accepted
  /// (which may end mid-span — partial writes keep byte, not span,
  /// granularity). The default walks the spans with write_some and stops at
  /// the first short write; socket backends override it with one writev
  /// syscall so a queue of small frames doesn't pay a syscall each.
  virtual std::size_t write_some_vectored(const ConstBuffer* buffers, std::size_t count) {
    std::size_t written = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (buffers[i].size == 0) continue;
      const std::size_t n = write_some(buffers[i].data, buffers[i].size);
      written += n;
      if (n < buffers[i].size) break;  // backend full (or closed): stop here
    }
    return written;
  }

  /// Reads up to `size` bytes into `data`; returns how many arrived
  /// (0 when nothing is available right now or the stream is closed).
  virtual std::size_t read_some(std::uint8_t* data, std::size_t size) = 0;

  /// True once the stream is finished: locally closed, or the peer closed
  /// and every byte it sent has been read.
  [[nodiscard]] virtual bool closed() const = 0;

  /// Tears the stream down locally (idempotent). The peer observes EOF
  /// after draining whatever was already written.
  virtual void close() = 0;
};

/// Accept side of a connection-oriented backend: hands out one ByteStream
/// per incoming connection, nonblockingly.
class Listener {
 public:
  virtual ~Listener() = default;
  /// The next pending connection, or nullptr when none is waiting.
  [[nodiscard]] virtual std::unique_ptr<ByteStream> accept() = 0;
};

/// Creates a connected in-memory duplex pipe: bytes written to one end are
/// read from the other. `capacity` bounds each direction's in-flight bytes
/// (0 = unbounded); a full direction makes write_some take fewer bytes —
/// the deterministic stand-in for socket backpressure. Both ends are
/// thread-safe against each other, so a client and an agent may run on
/// different threads.
[[nodiscard]] std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>> make_loopback(
    std::size_t capacity = 0);

}  // namespace rlir::transport
