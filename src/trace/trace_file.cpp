#include "trace/trace_file.h"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/wire.h"

namespace rlir::trace {

namespace {

using common::wire::put;
using common::wire::take;

constexpr std::array<char, 4> kMagic = {'R', 'L', 'T', 'R'};

// On-disk packet record. Packed manually into a byte buffer field by field —
// no struct memcpy — so the format is independent of compiler padding.
constexpr std::size_t kRecordSize = 8 + 8 + 8 +      // ts, injected_at, ref_stamp
                                    4 + 4 + 2 + 2 +  // src, dst, sport, dport
                                    1 + 1 + 2 + 1 +  // proto, kind, sender, tos
                                    4 + 8;           // size_bytes, seq

void encode(const net::Packet& pkt, std::uint8_t* buf) {
  std::uint8_t* p = buf;
  put<std::int64_t>(p, pkt.ts.ns());
  put<std::int64_t>(p, pkt.injected_at.ns());
  put<std::int64_t>(p, pkt.ref_stamp.ns());
  net::put_tuple(p, pkt.key);
  put<std::uint8_t>(p, static_cast<std::uint8_t>(pkt.kind));
  put<std::uint16_t>(p, pkt.sender);
  put<std::uint8_t>(p, pkt.tos);
  put<std::uint32_t>(p, pkt.size_bytes);
  put<std::uint64_t>(p, pkt.seq);
}

net::Packet decode(const std::uint8_t* buf) {
  const std::uint8_t* p = buf;
  net::Packet pkt;
  pkt.ts = timebase::TimePoint(take<std::int64_t>(p));
  pkt.injected_at = timebase::TimePoint(take<std::int64_t>(p));
  pkt.ref_stamp = timebase::TimePoint(take<std::int64_t>(p));
  pkt.key = net::take_tuple(p);
  pkt.kind = static_cast<net::PacketKind>(take<std::uint8_t>(p));
  pkt.sender = take<std::uint16_t>(p);
  pkt.tos = take<std::uint8_t>(p);
  pkt.size_bytes = take<std::uint32_t>(p);
  pkt.seq = take<std::uint64_t>(p);
  return pkt;
}

}  // namespace

void TraceWriter::write(std::ostream& out, const std::vector<net::Packet>& packets) {
  out.write(kMagic.data(), kMagic.size());
  std::uint8_t header[12];
  std::uint8_t* p = header;
  put<std::uint32_t>(p, kTraceFileVersion);
  put<std::uint64_t>(p, packets.size());
  out.write(reinterpret_cast<const char*>(header), sizeof(header));

  std::uint8_t record[kRecordSize];
  for (const auto& pkt : packets) {
    encode(pkt, record);
    out.write(reinterpret_cast<const char*>(record), sizeof(record));
  }
  if (!out) throw std::runtime_error("TraceWriter: stream write failed");
}

void TraceWriter::write_file(const std::string& path, const std::vector<net::Packet>& packets) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("TraceWriter: cannot open " + path);
  write(out, packets);
}

namespace {

/// Validates magic + version and returns the declared record count.
std::uint64_t read_trace_header(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) throw std::runtime_error("TraceReader: bad magic");

  std::uint8_t header[12];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) throw std::runtime_error("TraceReader: truncated header");
  const std::uint8_t* hp = header;
  const auto version = take<std::uint32_t>(hp);
  const auto count = take<std::uint64_t>(hp);
  if (version != kTraceFileVersion) {
    throw std::runtime_error("TraceReader: unsupported version " + std::to_string(version));
  }
  return count;
}

}  // namespace

std::uint64_t TraceReader::for_each(std::istream& in, const PacketFn& fn) {
  const auto count = read_trace_header(in);
  std::uint8_t record[kRecordSize];
  for (std::uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(record), sizeof(record));
    if (!in) throw std::runtime_error("TraceReader: truncated record");
    fn(decode(record));
  }
  return count;
}

std::uint64_t TraceReader::for_each_file(const std::string& path, const PacketFn& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
  return for_each(in, fn);
}

std::vector<net::Packet> TraceReader::read(std::istream& in) {
  const auto count = read_trace_header(in);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  std::uint8_t record[kRecordSize];
  for (std::uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(record), sizeof(record));
    if (!in) throw std::runtime_error("TraceReader: truncated record");
    packets.push_back(decode(record));
  }
  return packets;
}

std::vector<net::Packet> TraceReader::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
  return read(in);
}

}  // namespace rlir::trace
