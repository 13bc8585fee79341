#include "calibrate.h"

#include <algorithm>
#include <stdexcept>

#include "spans.h"

namespace perfbench {

namespace {

// Slots (u64) of the two tables, and the steps of each part of the kernel.
constexpr std::size_t kNearSlots = std::size_t{1} << 17;  // 1 MiB
constexpr std::size_t kFarSlots = std::size_t{1} << 22;   // 32 MiB
constexpr int kComputeSteps = 700'000;
constexpr int kNearSteps = 300'000;
constexpr int kFarSteps = 100'000;

void fill(std::vector<std::uint64_t>& table) {
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 0xbf58476d1ce4e5b9ULL;
}

}  // namespace

Calibrator::Calibrator() : near_(kNearSlots), far_(kFarSlots), state_(0x9e3779b97f4a7c15ULL) {
  fill(near_);
  fill(far_);
  (void)sample();  // page in the tables
}

void Calibrator::steps(std::vector<std::uint64_t>* table, int n) {
  std::uint64_t x = state_;
  std::uint64_t acc = acc_;
  const std::uint64_t mask = table != nullptr ? table->size() - 1 : 0;
  for (int i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 31;
    if (table != nullptr) {
      std::uint64_t& slot = (*table)[(x >> 11) & mask];
      slot += acc;
      acc ^= slot >> 3;
    }
  }
  state_ = x;
  acc_ = acc;
}

double Calibrator::sample() {
  const std::int64_t t0 = now_ns();
  steps(nullptr, kComputeSteps);
  steps(&near_, kNearSteps);
  steps(&far_, kFarSteps);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double calibrated_median(const std::vector<double>& interval_s, const std::vector<double>& ref_s,
                         std::size_t first) {
  if (ref_s.size() != interval_s.size() + 1 || first >= interval_s.size()) {
    throw std::invalid_argument("calibrated_median: one reference sample per interval edge");
  }
  std::vector<double> scaled;
  for (std::size_t i = first; i < interval_s.size(); ++i) {
    scaled.push_back(interval_s[i] * kReferenceKernelS / ((ref_s[i] + ref_s[i + 1]) / 2.0));
  }
  const auto mid = scaled.begin() + static_cast<std::ptrdiff_t>((scaled.size() - 1) / 2);
  std::nth_element(scaled.begin(), mid, scaled.end());
  return *mid;
}

}  // namespace perfbench
