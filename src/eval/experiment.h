#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "collective/plan.h"
#include "core/detection.h"
#include "core/diagnosis.h"
#include "eval/metrics.h"
#include "eval/scenario.h"
#include "net/types.h"

namespace vedr::net {
class Network;
class PacketTracer;
}  // namespace vedr::net

namespace vedr::collective {
class CollectiveRunner;
}  // namespace vedr::collective

namespace vedr::baselines {
class FullPolling;
class Hawkeye;
}  // namespace vedr::baselines

namespace vedr::core {
class TraceTap;
class Vedrfolnir;
}  // namespace vedr::core

namespace vedr::obs {
struct MetricsSnapshot;
}

namespace vedr::sim {
class ShardedEngine;
class Simulator;
struct ShardReport;
}  // namespace vedr::sim

namespace vedr::eval {

enum class SystemKind : std::uint8_t {
  kVedrfolnir,
  kHawkeyeMaxR,
  kHawkeyeMinR,
  kFullPolling,
};

const char* to_string(SystemKind s);

/// Everything a single evaluation run needs beyond the scenario itself.
struct RunConfig {
  net::NetConfig netcfg;
  core::DetectionConfig detection;  ///< Vedrfolnir knobs (swept in Figs. 12/13)
  sim::Tick full_poll_interval = 100 * sim::kMicrosecond;
  double hawkeye_multiplier = 1.2;
  /// Optional trace tap (normally a replay::TraceWriter) mirroring the
  /// diagnosis plane's full input stream to a .vtrc file. Observation only:
  /// a recorded run must produce the same determinism digest as an
  /// unrecorded one. Prefer record_case(), which also writes the
  /// envelope/footer frames.
  core::TraceTap* trace_writer = nullptr;
  /// Copies the case's complete StatsRegistry (counters, summaries,
  /// histograms) into CaseResult::metrics when the run finishes. Each case
  /// owns a fresh Network — and therefore a fresh registry — so per-case
  /// snapshots never bleed across the suite. Observation only.
  bool capture_metrics = false;
  /// Worker threads for the sharded engine (DESIGN.md §14). 1 (default)
  /// runs the serial engine, byte-identical to the pre-sharding code. N > 1
  /// runs the conservative parallel engine: Vedrfolnir system only, and
  /// incompatible with `trace_writer`. Results are identical for any
  /// N >= 2 — the domain decomposition is fixed by the topology; N only
  /// picks how many threads execute it.
  int shards = 1;
  /// Radix of the fat-tree fabric run_case builds (the paper's K).
  int fat_tree_k = 4;
  /// Optional packet tracers (observation only; must not change behavior):
  /// called once per domain on the main thread before the run starts, to
  /// attach that domain's tracer. The serial engine is one domain, so it
  /// sees factory(0, 1). Return nullptr for no tracer on that domain. The
  /// determinism digest uses this to fold the complete packet-event stream.
  std::function<net::PacketTracer*(int domain, int num_domains)> domain_tracer_factory;
  /// Sharded runs only: collect the end-of-run ShardReport (barrier-wait
  /// timing per worker, per-domain events/window, handoff lane stats) into
  /// CaseResult::shard_report. Enables the engine's wall-clock timing lane;
  /// observation only — digests are unaffected.
  bool capture_shard_report = false;
};

/// One case's complete result: verdict, overheads, and timing.
struct CaseResult {
  ScenarioType scenario{};
  SystemKind system{};
  int case_id = 0;

  CaseOutcome outcome;
  std::int64_t telemetry_bytes = 0;  ///< processing overhead (Fig. 10a)
  std::int64_t bandwidth_bytes = 0;  ///< polls + notifications + reports (Fig. 10b)
  std::int64_t poll_bytes = 0;
  std::int64_t notify_bytes = 0;
  std::int64_t report_count = 0;
  /// Peak switch-resident telemetry state (the `telemetry.state_bytes`
  /// gauge at end of run): the memory axis of the exact-vs-sketch frontier.
  /// Deliberately NOT folded into run_case_digest — the exact lane's digest
  /// predates this field and must stay byte-identical.
  std::int64_t telemetry_state_bytes = 0;
  sim::Tick cc_time = 0;
  bool cc_completed = false;
  std::uint64_t sim_events = 0;
  std::uint64_t packets_delivered = 0;  ///< frames handed to the link layer
  core::Diagnosis diagnosis;
  /// Set iff RunConfig::capture_metrics: the case's full metric snapshot
  /// (shared so CaseResult stays cheap to copy through the suite plumbing).
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  /// Set iff RunConfig::capture_shard_report on a sharded run.
  std::shared_ptr<const sim::ShardReport> shard_report;
};

/// One case, assembled and run once: the event engine, the fabric, a
/// collective runner over `plan`, and one diagnosis system. Every caller —
/// run_case, the extension benches, the examples — builds its case here.
///
/// The engine is the serial Simulator, or the ShardedEngine over the
/// topology's ShardPlan when cfg.shards > 1 and the topology partitions
/// (Vedrfolnir only, no trace_writer). Between construction and run() the
/// caller may edit the fabric (pin or override routes, inject flows, storms
/// or routing loops, schedule probes); scheduling order is construction
/// order, so edits land after the system's own start-up events.
class Case {
 public:
  /// `poll_until` bounds Full Polling's sweeps (other systems ignore it).
  Case(const net::Topology& topo, collective::CollectivePlan plan, SystemKind system,
       const RunConfig& cfg = {}, sim::Tick poll_until = std::numeric_limits<sim::Tick>::max());
  ~Case();
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  net::Network& network() { return *network_; }
  collective::CollectiveRunner& runner() { return *runner_; }
  /// The Vedrfolnir system; the case must have been built with kVedrfolnir.
  core::Vedrfolnir& vedrfolnir();

  /// Starts the collective at t = 0, runs until the queue drains or `until`
  /// passes, merges per-domain stats and diagnoses. Fills every CaseResult
  /// field except the scenario, case id and score (the caller's spec owns
  /// those). Call once.
  CaseResult run(sim::Tick until = std::numeric_limits<sim::Tick>::max());

 private:
  SystemKind system_;
  bool capture_metrics_;
  bool capture_shard_report_;
  std::unique_ptr<sim::Simulator> sim_;         ///< serial engine
  std::unique_ptr<sim::ShardedEngine> engine_;  ///< or the sharded one
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<collective::CollectiveRunner> runner_;
  std::unique_ptr<core::Vedrfolnir> vedr_;
  std::unique_ptr<baselines::Hawkeye> hawkeye_;
  std::unique_ptr<baselines::FullPolling> full_;
};

/// Builds the paper's fabric, runs one case under one system, diagnoses,
/// and scores it. Fully self-contained (fresh simulator per call) and
/// thread-safe to run concurrently. With cfg.shards > 1 the case runs on
/// the sharded engine (see RunConfig::shards for the constraints).
CaseResult run_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg = {});

/// Runs one case with a replay::TraceWriter attached and writes the complete
/// .vtrc trace (envelope, streamed diagnosis-plane records, footer with the
/// live diagnosis digest) to `path`. The returned CaseResult is identical to
/// a plain run_case — recording observes, never perturbs. On I/O failure
/// returns normally but sets *error (when non-null) to a description.
CaseResult record_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg,
                       const std::string& path, std::string* error = nullptr);

/// Runs one case and folds the complete packet-event stream plus every
/// diagnosis-visible output (findings JSON, contributor scores, overhead
/// counters, timing) into a single 64-bit digest. Two same-seed invocations
/// must agree bit-for-bit; any divergence means hidden nondeterminism
/// (hash-order leakage, uninitialized reads, wall-clock use) in the
/// simulator or diagnosis core. Drives `tools/vedr_determinism` and the
/// determinism regression tests.
std::uint64_t run_case_digest(const ScenarioSpec& spec, SystemKind system, RunConfig cfg = {});

/// Convenience: generate case ids [0, n) for `type` and run them all,
/// optionally across `threads` worker threads (0 = hardware concurrency).
std::vector<CaseResult> run_scenario_suite(ScenarioType type, int n_cases, SystemKind system,
                                           const RunConfig& cfg = {},
                                           const ScenarioParams& params = {}, int threads = 0);

/// Aggregates precision/recall and mean overheads.
struct SuiteSummary {
  PrecisionRecall pr;
  double mean_telemetry_bytes = 0;
  double mean_bandwidth_bytes = 0;
  double mean_cc_time_us = 0;
  int cases = 0;

  static SuiteSummary from(const std::vector<CaseResult>& results);
};

}  // namespace vedr::eval
