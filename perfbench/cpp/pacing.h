#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

/// Open-loop arrival schedule: record k is due at t0 + k / rate, whatever the
/// server does with earlier records. Latency is measured from the due time,
/// so a stall charges its wait to every record queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, std::uint64_t t0_ns)
      : period_ns_(1e9 / rate_per_s), t0_ns_(t0_ns) {}

  std::uint64_t due_ns(std::uint64_t k) const {
    return t0_ns_ + static_cast<std::uint64_t>(std::llround(static_cast<double>(k) * period_ns_));
  }

  /// Number of records due at or before `now_ns`: records [0, due_by(now)).
  std::uint64_t due_by(std::uint64_t now_ns) const {
    if (now_ns < t0_ns_) return 0;
    auto n = static_cast<std::uint64_t>(static_cast<double>(now_ns - t0_ns_) / period_ns_) + 1;
    // Correct the floating-point estimate against due_ns's own rounding.
    while (n > 0 && due_ns(n - 1) > now_ns) --n;
    while (due_ns(n) <= now_ns) ++n;
    return n;
  }

 private:
  double period_ns_;
  std::uint64_t t0_ns_;
};

/// How late a record was sent relative to its due time (0 if early).
inline std::uint64_t lag_ns(std::uint64_t due_ns, std::uint64_t sent_ns) {
  return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

}  // namespace perfbench
