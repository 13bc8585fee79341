// Fault-injection decorator for transport tests: wraps any ByteStream and
// misbehaves on schedule, so client/agent/coordinator failure paths can be
// driven deterministically instead of hoping a real network hiccups.
//
// Faults (all byte/call-counted, so runs are reproducible):
//   * cut_after_write_bytes  — the connection dies after accepting K bytes
//     on the write path (stream closes; the peer drains what was already
//     delivered, like a socket close);
//   * flip_write_byte        — the Nth byte written is bit-flipped in
//     transit (CRC/decoder corruption paths);
//   * stall_after_write_bytes + stall_writes — after K bytes, the next S
//     write_some calls accept nothing (backpressure window: exercises
//     bounded buffers and shedding), then flow resumes;
//   * cut_after_read_bytes   — the connection dies after the READER got K
//     bytes, dropping whatever was written but not yet read (the
//     "close overtakes data" reordering a kernel can deliver).
//
// Wrap the end whose behavior you want to poison: the client's end for
// send-path faults, the agent's end for delivery-path faults.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "transport/byte_stream.h"

namespace rlir::transport::testutil {

struct FaultPlan {
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  /// Close the stream once this many bytes were accepted by write_some.
  std::size_t cut_after_write_bytes = kNever;
  /// XOR 0x20 into the byte at this write-path offset (0-based).
  std::size_t flip_write_byte = kNever;
  /// After this many written bytes, the next `stall_writes` write_some
  /// calls accept 0 bytes.
  std::size_t stall_after_write_bytes = kNever;
  std::size_t stall_writes = 0;
  /// Close the stream once this many bytes were handed to read_some —
  /// bytes already written but unread die with it.
  std::size_t cut_after_read_bytes = kNever;
};

class FaultyByteStream final : public ByteStream {
 public:
  FaultyByteStream(std::unique_ptr<ByteStream> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(plan) {}

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    if (written_ >= plan_.cut_after_write_bytes) {
      cut();
      return 0;
    }
    if (written_ >= plan_.stall_after_write_bytes && stalled_ < plan_.stall_writes) {
      stalled_ += 1;
      return 0;
    }
    // Never write past the cut point: the connection dies exactly there.
    const std::size_t allowed =
        std::min(size, plan_.cut_after_write_bytes - written_);
    std::size_t n = 0;
    if (plan_.flip_write_byte != FaultPlan::kNever &&
        written_ <= plan_.flip_write_byte && plan_.flip_write_byte < written_ + allowed) {
      std::vector<std::uint8_t> corrupted(data, data + allowed);
      corrupted[plan_.flip_write_byte - written_] ^= 0x20;
      flips_ += 1;
      n = inner_->write_some(corrupted.data(), corrupted.size());
      // A short write that didn't cover the flipped byte must un-count the
      // flip so the next attempt corrupts it instead.
      if (written_ + n <= plan_.flip_write_byte) flips_ -= 1;
    } else {
      n = inner_->write_some(data, allowed);
    }
    written_ += n;
    if (written_ >= plan_.cut_after_write_bytes) cut();
    return n;
  }

  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    if (read_ >= plan_.cut_after_read_bytes) {
      cut();
      return 0;
    }
    const std::size_t allowed = std::min(size, plan_.cut_after_read_bytes - read_);
    const std::size_t n = inner_->read_some(data, allowed);
    read_ += n;
    if (read_ >= plan_.cut_after_read_bytes) cut();
    return n;
  }

  [[nodiscard]] bool closed() const override { return cut_ || inner_->closed(); }

  void close() override { inner_->close(); }

  /// Kills the connection NOW — for tests that cut at a condition the plan
  /// can't express in bytes (e.g. "once the pipe is drained").
  void cut_now() { cut(); }

  // --- Fault accounting ----------------------------------------------------

  [[nodiscard]] std::size_t bytes_written() const { return written_; }
  [[nodiscard]] std::size_t bytes_read() const { return read_; }
  [[nodiscard]] bool cut_fired() const { return cut_; }
  [[nodiscard]] std::size_t flips() const { return flips_; }
  [[nodiscard]] std::size_t stalled_writes() const { return stalled_; }

 private:
  void cut() {
    // An abrupt death, not a graceful shutdown: this end reports closed()
    // immediately (cut_), and closing the inner stream makes the peer see
    // EOF after draining what was already delivered.
    cut_ = true;
    inner_->close();
  }

  std::unique_ptr<ByteStream> inner_;
  FaultPlan plan_;
  std::size_t written_ = 0;
  std::size_t read_ = 0;
  std::size_t flips_ = 0;
  std::size_t stalled_ = 0;
  bool cut_ = false;
};

/// Convenience: wraps a fresh loopback pair with a fault plan on the FIRST
/// end; returns {faulty_end, clean_peer_end}.
inline std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>> make_faulty_loopback(
    FaultPlan plan, std::size_t capacity = 0) {
  auto [a, b] = make_loopback(capacity);
  return {std::make_unique<FaultyByteStream>(std::move(a), plan), std::move(b)};
}

}  // namespace rlir::transport::testutil
