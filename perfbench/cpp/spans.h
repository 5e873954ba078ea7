#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Boundaries the traced run times from outside the program, around calls
/// into each layer's public functions. The tree is fixed: every span's
/// parent is given by its kind, so self time reduces from per-kind totals.
/// A traced run's busy time is the sum of its roots' wall time, less the
/// idle spans under them, plus the measured time of worker lanes that have
/// no spans of their own; self times are shares of it.
enum class SpanKind : std::uint8_t {
  kRun,             ///< the traced pass on the benchmark thread (root)
  kBuild,           ///< eval: make_fat_tree + shortest_paths + make_scenario
  kRunCase,         ///< eval::run_case: sim + net + telemetry + monitor + scoring
  kDiagnose,        ///< analyzer share of run_case (diag.latency_ns sum)
  kVerify,          ///< bench: digest and invariant checks
  kDecode,          ///< replay: TraceReader::next over one corpus trace
  kConstruct,       ///< serve: Server construction
  kPaceWait,        ///< idle: open-loop generator spinning until due (a total)
  kOffer,           ///< serve: Server::offer (and open_session)
  kClose,           ///< serve: Server::close_session
  kDrain,           ///< idle: wait_all_finished after the last offer
  kCollectorLane,   ///< the collector-lane replay on the benchmark thread (root)
  kIngest,          ///< collector: StreamingCollector::ingest
  kStepDiagnose,    ///< collector: diagnose at a step close
  kFinalize,        ///< collector: StreamingCollector::finalize
  kVerdict,         ///< serve worker: VerdictSink callback (Chrome trace only)
  kServerWorker,    ///< serve worker: CPU the collector lane does not replay (no spans)
  kCount
};

/// In-memory span store. Totals per kind are exact; at most `keep_per_kind`
/// spans per kind are kept for the Chrome trace, and per-kind durations are
/// kept only for the kinds whose percentiles are reported. Thread-safe (one
/// mutex; the worker-thread verdict lane is the only concurrent writer).
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep_per_kind = 4096) : keep_per_kind_(keep_per_kind) {}

  void record(SpanKind kind, std::uint64_t id, std::uint64_t start_ns, std::uint64_t end_ns,
              int tid = 1);
  /// Adds time to a kind's total without a timed span: the analyzer share
  /// of a run_case, known only as the diag.latency_ns histogram sum, or the
  /// serve worker's CPU.
  void add_total(SpanKind kind, std::uint64_t ns, std::uint64_t count);
  /// Keeps every duration of `kind` (for its percentiles).
  void keep_durations(SpanKind kind) { keep_all_[static_cast<std::size_t>(kind)] = true; }

  std::uint64_t total_ns(SpanKind k) const { return total_[idx(k)]; }
  std::uint64_t count(SpanKind k) const { return count_[idx(k)]; }
  /// Durations in ns of every span of `kind` (kinds passed to keep_durations).
  const std::vector<double>& durations(SpanKind k) const { return durations_[idx(k)]; }

  /// Self time: the kind's total minus its children's totals.
  std::uint64_t self_ns(SpanKind k) const;
  /// Self time summed per layer, layers in order of first appearance; idle
  /// spans and the verdict lane are left out. The layers sum to busy_ns().
  std::vector<std::pair<std::string, std::uint64_t>> self_by_layer() const;
  /// Roots' wall time less their idle children, plus span-less worker lanes.
  std::uint64_t busy_ns() const;
  /// Share of the roots' non-idle wall time that child spans account for,
  /// in percent (span-less worker lanes are not in it).
  double coverage_pct() const;

  /// Chrome trace_event JSON of the kept spans ("X" events, microseconds).
  std::string chrome_json() const;

 private:
  struct Span {
    std::uint64_t start_ns, end_ns, id;
    SpanKind kind;
    int tid;
  };
  static std::size_t idx(SpanKind k) { return static_cast<std::size_t>(k); }
  static constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);

  const std::size_t keep_per_kind_;
  mutable std::mutex mu_;
  std::vector<Span> kept_;
  std::array<std::uint64_t, kKinds> total_{};
  std::array<std::uint64_t, kKinds> count_{};
  std::array<bool, kKinds> keep_all_{};
  std::array<std::vector<double>, kKinds> durations_;
};

/// Times one call into a layer when `rec` is non-null; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind, std::uint64_t id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  SpanKind kind_;
  std::uint64_t id_;
  std::uint64_t start_ns_;
};

}  // namespace perfbench
