// Minimal leveled logging. Benches and examples print results to stdout;
// diagnostics go through here to stderr so output stays machine-parseable.
#pragma once

#include <atomic>
#include <functional>
#include <iostream>
#include <sstream>
#include <string_view>

namespace rlir::common {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace detail {
/// Global threshold storage. Atomic: the collection tier logs from agent,
/// producer and scheduler threads, so reads/writes must not race.
std::atomic<int>& log_threshold_storage();

void log_line(LogLevel level, std::string_view msg);

template <typename... Args>
void log(LogLevel level, const Args&... args) {
  if (static_cast<int>(level) < log_threshold_storage().load(std::memory_order_relaxed)) return;
  std::ostringstream os;
  (os << ... << args);
  log_line(level, os.str());
}
}  // namespace detail

/// Messages below the threshold are dropped. Thread-safe.
[[nodiscard]] inline LogLevel log_threshold() {
  return static_cast<LogLevel>(detail::log_threshold_storage().load(std::memory_order_relaxed));
}
inline void set_log_threshold(LogLevel level) {
  detail::log_threshold_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

/// Observer for every emitted line (post-threshold), called with the level
/// and unformatted message in addition to the stderr write. One global slot:
/// installing replaces the previous sink, an empty function uninstalls.
/// Invoked under an internal mutex — the sink must not log. Thread-safe;
/// see obs::LogBridge for the standard registry/event-trace sink.
using LogSink = std::function<void(LogLevel, std::string_view)>;
void set_log_sink(LogSink sink);

template <typename... Args>
void log_debug(const Args&... args) { detail::log(LogLevel::kDebug, args...); }
template <typename... Args>
void log_info(const Args&... args) { detail::log(LogLevel::kInfo, args...); }
template <typename... Args>
void log_warn(const Args&... args) { detail::log(LogLevel::kWarn, args...); }
template <typename... Args>
void log_error(const Args&... args) { detail::log(LogLevel::kError, args...); }

}  // namespace rlir::common
