#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it, so one outlier cannot move it (p50 needs 20 samples, p90 100, p99
/// 1,000).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// Nearest-rank q-quantile (q in (0, 1)) of `v`, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  if (v.empty() || samples_beyond(v.size(), q) < kMinSamplesBeyond) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// Plain median for small repeat counts (set-up repetitions, per-layer
/// figures), where the ten-beyond rule does not apply.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace perfbench
