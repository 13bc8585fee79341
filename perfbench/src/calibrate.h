// Host-speed calibration. On a shared host the same code runs up to a third
// slower for seconds at a time (README.md, Steadiness): neighbours load the
// shared cache and cores. A fixed reference kernel, timed right before and
// after each timed interval, runs slower by nearly the same factor, so an
// interval scaled by kReferenceKernelS / (its reference time) reads what it
// would on a host where the kernel takes kReferenceKernelS. The kernel lives
// here, not in the library, so no change to the system under test moves it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The reference kernel's time on the reference host.
inline constexpr double kReferenceKernelS = 0.006;

class Calibrator {
 public:
  Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Runs the reference kernel once and returns its wall time in seconds.
  /// The kernel is a dependent chain of integer mixing, first alone, then
  /// with read-modify-writes at random slots of a 1 MiB table (the core's
  /// own cache) and of a 32 MiB table (the shared cache and memory), so that
  /// it slows with the core and with the memory system alike, as the
  /// pipeline does.
  double sample();

 private:
  /// n steps of the chain; each also updates a random slot of `table`
  /// unless it is null.
  void steps(std::vector<std::uint64_t>* table, int n);

  std::vector<std::uint64_t> near_;
  std::vector<std::uint64_t> far_;
  std::uint64_t state_;
  std::uint64_t acc_ = 0;
};

/// Interval i timed between reference samples ref_s[i] and ref_s[i + 1]
/// (ref_s holds one more entry than interval_s), scaled to the reference
/// host; returns the median over intervals first..end.
[[nodiscard]] double calibrated_median(const std::vector<double>& interval_s,
                                       const std::vector<double>& ref_s, std::size_t first);

}  // namespace perfbench
