#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

/// Host monotonic time in ns (the benchmark's one wall clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline std::uint64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of every thread of this process, live or joined.
inline std::uint64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread.
inline std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// CPU the server's threads spent while a generator thread fed them: the
/// process CPU over the interval minus the generator's own thread CPU over
/// the same interval (clamped at zero against clock granularity).
inline std::uint64_t server_cpu_ns(std::uint64_t process_delta_ns,
                                   std::uint64_t generator_delta_ns) {
  return process_delta_ns > generator_delta_ns ? process_delta_ns - generator_delta_ns : 0;
}

/// Reads one "<key>: <n> kB" line of /proc/self/status, in MiB (0 if absent).
inline double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const std::size_t klen = std::char_traits<char>::length(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::char_traits<char>::compare(line, key, klen) == 0 && line[klen] == ':') {
      long long kb = 0;
      if (std::sscanf(line + klen + 1, "%lld", &kb) == 1) mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

inline double peak_rss_mb() { return proc_status_mb("VmHWM"); }
inline double current_rss_mb() { return proc_status_mb("VmRSS"); }

}  // namespace perfbench
