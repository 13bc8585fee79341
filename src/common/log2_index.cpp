#include "common/log2_index.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

namespace rlir::common {

namespace {

constexpr int kTableBits = 7;  // 128 anchors across the mantissa range [1, 2)
constexpr int kTableSize = 1 << kTableBits;

constexpr double kLn2 = 0x1.62e42fefa39efp-1;      // ln(2)
constexpr double kLog2E = 0x1.71547652b82fep+0;    // log2(e)

/// ln(m) for m in [1, 2], evaluable in constant expressions (std::log is not
/// constexpr until C++26): 2*atanh((m-1)/(m+1)), whose argument is <= 1/3 so
/// 28 series terms reach full double precision.
constexpr double constexpr_ln(double m) {
  const double z = (m - 1.0) / (m + 1.0);
  const double z2 = z * z;
  double power = z;
  double sum = 0.0;
  for (int n = 0; n < 28; ++n) {
    sum += power / static_cast<double>(2 * n + 1);
    power *= z2;
  }
  return 2.0 * sum;
}

struct Tables {
  std::array<double, kTableSize> log2;  // log2(anchor_k)
  std::array<double, kTableSize> inv;   // 1 / anchor_k
};

constexpr Tables make_tables() {
  Tables t{};
  for (int k = 0; k < kTableSize; ++k) {
    const double anchor = 1.0 + static_cast<double>(k) / kTableSize;
    t.inv[k] = 1.0 / anchor;
    t.log2[k] = constexpr_ln(anchor) * kLog2E;
  }
  return t;
}

constexpr Tables kTables = make_tables();

constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;

/// Guard bands: the fast path's absolute log2 error (kFastLog2MaxError) is
/// amplified by the caller's scale factor; add a fixed floor that dwarfs the
/// few-ulp disagreement between the fast product/division and the libm
/// original. Falling back inside the band costs one libm call for a ~1e-7
/// sliver of inputs — noise — while everything outside provably agrees.
constexpr double kGuardFloor = 1e-7;

}  // namespace

bool fast_log2_usable(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t exponent = (bits >> 52) & 0x7ff;
  // Sign set, subnormal/zero (exponent 0), or inf/NaN (exponent 0x7ff).
  return (bits >> 63) == 0 && exponent != 0 && exponent != 0x7ff;
}

double fast_log2(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t mantissa = bits & kMantissaMask;
  // Re-bias to [1, 2) and split against the nearest-below table anchor.
  const double m = std::bit_cast<double>(mantissa | (std::uint64_t{0x3ff} << 52));
  const auto k = static_cast<std::size_t>(mantissa >> (52 - kTableBits));
  const double r = m * kTables.inv[k] - 1.0;  // in [0, 1/128]
  // ln(1+r) to four terms; the r^5/5 remainder is < 6e-12.
  const double poly = r * (1.0 + r * (-0.5 + r * ((1.0 / 3.0) + r * -0.25)));
  return static_cast<double>(exponent) + kTables.log2[k] + poly * kLog2E;
}

LogGammaCeilIndexer::LogGammaCeilIndexer(double log_gamma)
    : log_gamma_(log_gamma),
      bins_per_octave_(kLn2 / log_gamma),
      guard_(kGuardFloor + std::abs(bins_per_octave_) * 4.0 * kFastLog2MaxError) {}

std::int32_t LogGammaCeilIndexer::index(double value) const {
  if (!fast_log2_usable(value)) return exact_index(value);
  const double x = fast_log2(value) * bins_per_octave_;
  if (std::abs(x - std::round(x)) <= guard_) return exact_index(value);
  return static_cast<std::int32_t>(std::ceil(x));
}

std::int32_t LogGammaCeilIndexer::exact_index(double value) const {
  return static_cast<std::int32_t>(std::ceil(std::log(value) / log_gamma_));
}

}  // namespace rlir::common
