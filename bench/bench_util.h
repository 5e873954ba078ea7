#pragma once

// Shared helpers for the figure-regeneration harnesses: environment-driven
// case counts (so CI can run small and a full paper-scale run is one env var
// away), table printing, the standard scenario/system lists, and the shared
// machine-readable result emitter (BenchReport) every bench writes its
// --json output through.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "eval/experiment.h"
#include "obs/cli.h"
#include "obs/json.h"

namespace vedr::bench {

/// One machine-readable bench record, built on obs::JsonWriter — the same
/// emitter the trace exporter and metrics snapshots use, so every JSON file
/// this repo writes shares one escaping/comma/number implementation instead
/// of per-bench fprintf blobs. Fields appear in insertion order; call take()
/// or write() exactly once, after the last field.
class BenchReport {
 public:
  explicit BenchReport(const char* bench_name) : w_(&body_) {
    w_.begin_object();
    w_.kv("bench", bench_name);
  }

  template <typename T>
  BenchReport& field(std::string_view key, T v) {
    w_.kv(key, v);
    return *this;
  }

  /// Fixed-decimal double, for rate/seconds fields where %.17g noise hurts.
  BenchReport& field_fixed(std::string_view key, double v, int decimals) {
    w_.key(key);
    w_.value_fixed(v, decimals);
    return *this;
  }

  /// Finishes the record; the report must not be used afterwards.
  std::string take() {
    w_.end_object();
    body_ += '\n';
    return std::move(body_);
  }

  /// take() to `path`; returns false (and logs) on I/O failure.
  bool write(const std::string& path) { return obs::write_text_file(path, take()); }

 private:
  std::string body_;
  obs::JsonWriter w_;
};

/// A positive integer from env var `name`; `def` when unset. Anything else
/// aborts — atoi's silent 0 (or "5x" read as 5) would quietly run something
/// other than what was asked.
inline int positive_int_from_env(const char* name, int def) {
  const auto env = common::env_str(name);
  if (!env) return def;
  const std::int64_t n = common::parse_i64_or_die(name, *env);
  if (n <= 0 || n > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: %s: must be a positive integer: %s\n", name, env->c_str());
    std::exit(2);
  }
  return static_cast<int>(n);
}

/// Cases per scenario: VEDR_CASES=paper reproduces the paper's 60/60/40/60;
/// VEDR_CASES=<n> forces n; default is a CI-friendly subset.
inline int cases_for(eval::ScenarioType type, int default_cases = 20) {
  if (common::env_str("VEDR_CASES") == "paper") return eval::paper_case_count(type);
  return positive_int_from_env("VEDR_CASES", std::min(default_cases, eval::paper_case_count(type)));
}

/// Workload scale (fraction of the paper's 360 MB steps); VEDR_SCALE
/// overrides, e.g. VEDR_SCALE=0.03125 for 1/32. Garbage aborts.
inline double scale_from_env(double def = 1.0 / 64.0) {
  if (const auto env = common::env_str("VEDR_SCALE")) {
    const double s = common::parse_f64_or_die("VEDR_SCALE", *env);
    if (s <= 0) {
      std::fprintf(stderr, "error: VEDR_SCALE: must be positive: %s\n", env->c_str());
      std::exit(2);
    }
    return s;
  }
  return def;
}

inline const std::vector<eval::ScenarioType>& all_scenarios() {
  static const std::vector<eval::ScenarioType> kAll = {
      eval::ScenarioType::kFlowContention,
      eval::ScenarioType::kIncast,
      eval::ScenarioType::kPfcStorm,
      eval::ScenarioType::kPfcBackpressure,
  };
  return kAll;
}

inline const std::vector<eval::SystemKind>& all_systems() {
  static const std::vector<eval::SystemKind> kAll = {
      eval::SystemKind::kVedrfolnir,
      eval::SystemKind::kHawkeyeMaxR,
      eval::SystemKind::kHawkeyeMinR,
      eval::SystemKind::kFullPolling,
  };
  return kAll;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline std::string human_bytes(double b) {
  char buf[64];
  if (b >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fMB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fKB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fB", b);
  }
  return buf;
}

}  // namespace vedr::bench
