#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Checkout root: holds tests/replay/corpus, perfbench/digests.txt, and
  /// receives the traced run's Chrome trace under .bench_build/traces.
  std::string root = ".";
  std::string git_sha = "unknown";  ///< of the checkout, when it is a git repository
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome: the last stdout line carries correct/attempted/failed
/// and the metrics; the line before it carries `info` (provenance, the
/// sample count behind each percentile, and workload details).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< key -> JSON value

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void info_num(const std::string& key, double v);
  void info_str(const std::string& key, const std::string& v);
  /// Records how many samples the percentile metric `name` was taken over.
  void samples(const std::string& name, std::size_t n) {
    info_num("samples." + name, static_cast<double>(n));
  }
};

/// Nearest-rank q-quantile of `v` under the ten-beyond rule, with its sample
/// count recorded; a refused percentile marks the run incorrect and reads 0.
double checked_percentile(Result& out, const std::string& name, const std::vector<double>& v,
                          double q);

/// Reports setup_s: the fastest of the run's set-ups (README.md says why not
/// the median), with their count and median in `info`.
void add_setup_s(Result& out, const std::vector<double>& setup_s);

/// Seeded Fisher-Yates permutation of [0, n): the same seed gives the same
/// order on every platform (sim::Rng wraps a fixed mt19937_64).
inline std::vector<int> seeded_permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  vedr::sim::Rng rng(seed);
  for (std::size_t i = p.size(); i > 1; --i) std::swap(p[i - 1], p[rng.index(i)]);
  return p;
}

/// Every per-layer metric, in print order, with its unit. Each workload
/// prints all of them in a traced run; a layer the workload never calls
/// reads 0 there (e.g. sim.events_per_case on serve_paced).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills metrics the workload did not measure with 0, in per_layer_metrics()
/// order, so a traced run prints the full set.
void complete_per_layer(Result& r);

/// Adds the self-time shares (of the busy time) and span coverage of a
/// traced run.
class SpanRecorder;
void add_self_times(Result& r, const SpanRecorder& spans);

/// Writes the Chrome trace of a traced run to
/// <root>/.bench_build/traces/<workload>-seed<seed>.json (best effort).
void write_chrome_trace(const Options& opt, const SpanRecorder& spans);

void add_provenance(Result& r, const Options& opt);
std::string info_line(const Result& r);
std::string result_line(const Result& r);

// Workloads.
Result run_case_workload(const Options& opt);
Result run_serve_workload(const Options& opt);
/// Prints the pinned diagnosis digest of every case a case workload can
/// draw, in perfbench/digests.txt format.
int pin_case_digests(const std::string& workload);

}  // namespace perfbench
