// case_k4 and sharded_k8: serial eval::run_case cases, one after another on
// the calling thread (sharded_k8 adds the engine's three worker threads).
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "clock.h"
#include "core/json_export.h"
#include "eval/experiment.h"
#include "eval/scenario.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/collector.h"
#include "sim/shard_report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace vedr;

struct CaseShape {
  const char* name;
  int fat_tree_k;
  int shards;
  /// Wall time of one round over the drawn cases on the reference box
  /// (README.md): a run is --seconds / round_s rounds, whatever the speed
  /// of the code under test.
  double round_s;
};

constexpr CaseShape kShapes[] = {{"case_k4", 4, 1, 7.0}, {"sharded_k8", 8, 4, 5.0}};
constexpr eval::ScenarioType kScenarios[] = {
    eval::ScenarioType::kFlowContention, eval::ScenarioType::kIncast,
    eval::ScenarioType::kPfcStorm, eval::ScenarioType::kPfcBackpressure};
constexpr int kNumScenarios = 4;
/// Case ids [0, kPoolPerScenario) of every scenario are the pool a run
/// draws from; all of them have pinned digests.
constexpr int kPoolPerScenario = 40;
/// Distinct cases one run draws per scenario (20 in all: the fewest whose
/// p50 has ten beyond it, so a run fits the most rounds).
constexpr int kCasesPerScenario = 5;
constexpr double kScale = 1.0 / 64.0;
/// Each drawn case runs once per round; a case's latency is its fastest
/// round. A run has at least this many rounds.
constexpr int kMinRounds = 3;
/// Set-ups timed before each round.
constexpr int kSetupBurst = 5;
/// Safety cap on a stalled host: a run starts no round after this many
/// times --seconds, even if fewer rounds than planned have run.
constexpr double kLastRoundStart = 1.5;

const CaseShape& shape_of(const std::string& workload) {
  for (const CaseShape& s : kShapes)
    if (workload == s.name) return s;
  throw std::invalid_argument("not a case workload: " + workload);
}

/// The case pool, index = scenario * kPoolPerScenario + case id.
std::vector<eval::ScenarioSpec> build_pool(const CaseShape& shape, const eval::RunConfig& cfg) {
  eval::ScenarioParams params;
  params.scale = kScale;
  const net::Topology topo = net::make_fat_tree(shape.fat_tree_k, cfg.netcfg);
  const net::RoutingTable routing = net::RoutingTable::shortest_paths(topo);
  std::vector<eval::ScenarioSpec> pool;
  pool.reserve(kNumScenarios * kPoolPerScenario);
  for (eval::ScenarioType type : kScenarios)
    for (int id = 0; id < kPoolPerScenario; ++id)
      pool.push_back(eval::make_scenario(type, id, topo, routing, params));
  return pool;
}

/// The run's distinct cases (pool indices): per scenario, the first
/// kCasesPerScenario ids of a seeded permutation of the pool.
std::vector<int> draw_cases(std::uint64_t seed) {
  std::vector<int> cases;
  for (int s = 0; s < kNumScenarios; ++s) {
    const std::vector<int> ids =
        seeded_permutation(kPoolPerScenario, sim::Rng::mix(seed, static_cast<std::uint64_t>(s)));
    for (int i = 0; i < kCasesPerScenario; ++i)
      cases.push_back(s * kPoolPerScenario + ids[static_cast<std::size_t>(i)]);
  }
  return cases;
}

/// Order of round `round`: a seeded permutation of the drawn cases, so a
/// case's runs land at different points of the run.
std::vector<int> round_order(const std::vector<int>& cases, std::uint64_t seed, int round) {
  std::vector<int> order;
  for (int i : seeded_permutation(static_cast<int>(cases.size()),
                                  sim::Rng::mix(seed, 1000 + static_cast<std::uint64_t>(round))))
    order.push_back(cases[static_cast<std::size_t>(i)]);
  return order;
}

std::uint64_t diagnosis_digest(const eval::CaseResult& r) {
  return replay::diagnosis_json_digest(core::json::diagnosis_to_json(r.diagnosis));
}

std::string digest_key(const std::string& workload, const eval::ScenarioSpec& spec) {
  return workload + " " + eval::to_string(spec.type) + " " + std::to_string(spec.case_id);
}

/// perfbench/digests.txt: "<workload> <scenario> <case id> <hex digest>".
std::map<std::string, std::uint64_t> load_digests(const Options& opt) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(opt.root + "/perfbench/digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scenario, id, hex;
    if (!(fields >> workload >> scenario >> id >> hex)) continue;
    out[workload + " " + scenario + " " + id] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

struct CaseRun {
  std::vector<eval::CaseResult> results;
  std::vector<int> pool_index;  ///< which pool case each result ran
  std::vector<double> wall_ms;
  std::vector<double> cpu_us;  ///< process CPU, every thread of the case
  std::uint64_t failed = 0;
  int rounds = 0;
  double wall_s = 0;
};

/// Runs pool case `idx`, checks it against its pinned digest and appends it
/// to `run`. With `spans`, the case is a piece of the traced run's root,
/// with run_case, its analyzer share and the check as children.
void run_one(const Options& opt, const std::vector<eval::ScenarioSpec>& pool, int idx,
             const eval::RunConfig& cfg, const std::map<std::string, std::uint64_t>& pinned,
             CaseRun& run, SpanRecorder* spans) {
  const eval::ScenarioSpec& spec = pool[static_cast<std::size_t>(idx)];
  const auto id = static_cast<std::uint64_t>(idx);
  const std::uint64_t c0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  eval::CaseResult r = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
  const std::uint64_t t1 = now_ns();
  run.cpu_us.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e3);
  run.wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  run.pool_index.push_back(idx);
  if (spans != nullptr) {
    spans->record(SpanKind::kRunCase, id, t0, t1);
    if (r.metrics != nullptr) {
      const auto it = r.metrics->hists.find("diag.latency_ns");
      if (it != r.metrics->hists.end())
        spans->add_total(SpanKind::kDiagnose, static_cast<std::uint64_t>(it->second.sum()),
                         it->second.count());
    }
  }
  {
    ScopedSpan verify(spans, SpanKind::kVerify, id);
    const auto want = pinned.find(digest_key(opt.workload, spec));
    const bool ok = r.cc_completed && want != pinned.end() && want->second == diagnosis_digest(r);
    if (!ok) {
      ++run.failed;
      std::fprintf(stderr, "perfbench: case %s failed (cc_completed=%d, pinned=%s)\n",
                   digest_key(opt.workload, spec).c_str(), r.cc_completed ? 1 : 0,
                   want == pinned.end() ? "missing" : "mismatch");
    }
  }
  if (spans != nullptr) spans->record(SpanKind::kRun, id, t0, now_ns());
  run.results.push_back(std::move(r));
}

double elapsed_s(std::uint64_t since_ns) { return static_cast<double>(now_ns() - since_ns) / 1e9; }

/// Times kSetupBurst set-ups (topology, routing and scenario generation)
/// into `setup_s`; the last one's pool is kept.
void set_up(const CaseShape& shape, const eval::RunConfig& cfg,
            std::vector<eval::ScenarioSpec>& pool, std::vector<double>& setup_s) {
  for (int rep = 0; rep < kSetupBurst; ++rep) {
    const std::uint64_t t0 = now_ns();
    pool = build_pool(shape, cfg);
    setup_s.push_back(elapsed_s(t0));
  }
}

/// Untraced: a fixed number of whole rounds over the drawn cases, each
/// after a burst of set-ups, so set-up is timed at as many points of the
/// run.
CaseRun run_rounds(const Options& opt, const CaseShape& shape, std::vector<eval::ScenarioSpec>& pool,
                   const std::vector<int>& cases, const eval::RunConfig& cfg,
                   const std::map<std::string, std::uint64_t>& pinned,
                   std::vector<double>& setup_s) {
  CaseRun run;
  const int rounds = std::max(kMinRounds, static_cast<int>(opt.seconds / shape.round_s));
  const std::uint64_t t_start = now_ns();
  while (run.rounds < rounds && elapsed_s(t_start) < kLastRoundStart * opt.seconds) {
    if (run.rounds > 0) set_up(shape, cfg, pool, setup_s);
    for (int idx : round_order(cases, opt.seed, run.rounds))
      run_one(opt, pool, idx, cfg, pinned, run, nullptr);
    ++run.rounds;
  }
  run.wall_s = elapsed_s(t_start);
  return run;
}

/// Traced: every case twice, untraced into `plain` and traced into `traced`,
/// alternating which goes first so warm-up favours neither side, for at
/// least one round and until --seconds have passed.
void run_rounds_traced(const Options& opt, const std::vector<eval::ScenarioSpec>& pool,
                       const std::vector<int>& cases, const eval::RunConfig& plain_cfg,
                       const eval::RunConfig& traced_cfg,
                       const std::map<std::string, std::uint64_t>& pinned, CaseRun& plain,
                       CaseRun& traced, SpanRecorder& spans) {
  const std::uint64_t t_start = now_ns();
  std::size_t i = 0;
  for (int round = 0; elapsed_s(t_start) < opt.seconds; ++round) {
    for (int idx : round_order(cases, opt.seed, round)) {
      if (round > 0 && elapsed_s(t_start) >= opt.seconds) break;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (i % 2 == 1)) {
          obs::metrics_enable();
          run_one(opt, pool, idx, traced_cfg, pinned, traced, &spans);
          obs::metrics_disable();
        } else {
          run_one(opt, pool, idx, plain_cfg, pinned, plain, nullptr);
        }
      }
      ++i;
    }
  }
}

/// Per drawn case, the fastest of its runs in `v` (indexed like run.results).
std::vector<double> fastest_per_case(const CaseRun& run, const std::vector<double>& v) {
  std::map<int, double> best;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto [it, fresh] = best.emplace(run.pool_index[i], v[i]);
    if (!fresh) it->second = std::min(it->second, v[i]);
  }
  std::vector<double> out;
  for (const auto& [idx, ms] : best) out.push_back(ms);
  return out;
}

double hist_quantile(const std::vector<eval::CaseResult>& results, const char* name, double q) {
  obs::Histogram merged;
  for (const auto& r : results) {
    if (r.metrics == nullptr) continue;
    const auto it = r.metrics->hists.find(name);
    if (it != r.metrics->hists.end()) merged.merge(it->second);
  }
  return static_cast<double>(merged.value_at_quantile(q));
}

double counter_mean(const std::vector<eval::CaseResult>& results, const char* name) {
  double total = 0;
  for (const auto& r : results) {
    if (r.metrics == nullptr) continue;
    const auto it = r.metrics->counters.find(name);
    if (it != r.metrics->counters.end()) total += static_cast<double>(it->second);
  }
  return results.empty() ? 0.0 : total / static_cast<double>(results.size());
}

void add_layer_metrics(Result& out, const CaseRun& run, double build_ms) {
  const auto& rs = run.results;
  const double n = static_cast<double>(rs.size());
  double events = 0, packets = 0, reports = 0, wall_ns = 0;
  std::vector<double> cc_us, state_kb, diag_ms;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    events += static_cast<double>(r.sim_events);
    packets += static_cast<double>(r.packets_delivered);
    reports += static_cast<double>(r.report_count);
    wall_ns += run.wall_ms[i] * 1e6;
    cc_us.push_back(static_cast<double>(r.cc_time) / 1e3);
    state_kb.push_back(static_cast<double>(r.telemetry_state_bytes) / 1024.0);
    if (r.metrics != nullptr) {
      const auto it = r.metrics->hists.find("diag.latency_ns");
      if (it != r.metrics->hists.end()) diag_ms.push_back(static_cast<double>(it->second.sum()) / 1e6);
    }
  }
  out.metric("eval.build_ms", build_ms, "ms");
  out.metric("sim.events_per_case", events / n, "count");
  out.metric("sim.ns_per_event", wall_ns / events, "ns");
  out.metric("sim.dispatch_ns_p50", hist_quantile(rs, "sim.dispatch_ns", 0.5), "ns");
  out.metric("net.packets_per_case", packets / n, "count");
  out.metric("net.events_per_packet", events / packets, "ratio");
  out.metric("net.pfc_pause_frames_per_case", counter_mean(rs, "pfc.pause_frames"), "count");
  out.metric("net.queue_depth_bytes_p99", hist_quantile(rs, "switch.queue_depth_bytes", 0.99),
             "bytes");
  out.metric("collective.cc_time_us_p50",
             checked_percentile(out, "collective.cc_time_us_p50", cc_us, 0.5), "us");
  out.metric("telemetry.reports_per_case", reports / n, "count");
  out.metric("telemetry.state_kb_p50",
             checked_percentile(out, "telemetry.state_kb_p50", state_kb, 0.5), "KiB");
  out.metric("monitor.rtt_samples_per_case", counter_mean(rs, "monitor.rtt_samples"), "count");
  out.metric("analyzer.diagnose_ms_p50",
             checked_percentile(out, "analyzer.diagnose_ms_p50", diag_ms, 0.5), "ms");

  // Sharded engine: per-case reports, summed (counts) or pooled (ratios).
  double windows = 0, spills = 0, wait = 0, busy = 0;
  std::vector<double> imbalance;
  obs::Histogram per_window;
  for (const auto& r : rs) {
    if (r.shard_report == nullptr) continue;
    const sim::ShardReport& rep = *r.shard_report;
    windows += static_cast<double>(rep.windows);
    spills += static_cast<double>(rep.total_spills());
    double max_busy = 0, sum_busy = 0;
    for (const auto& w : rep.workers) {
      wait += static_cast<double>(w.wait_ns());
      busy += static_cast<double>(w.busy_ns);
      max_busy = std::max(max_busy, static_cast<double>(w.busy_ns));
      sum_busy += static_cast<double>(w.busy_ns);
    }
    if (sum_busy > 0) imbalance.push_back(max_busy / (sum_busy / static_cast<double>(rep.workers.size())));
    for (const auto& d : rep.domains) per_window.merge(d.events_per_window);
  }
  if (windows > 0) {
    out.metric("shard.barrier_wait_ratio", wait / (wait + busy), "ratio");
    out.metric("shard.events_per_window_p50", static_cast<double>(per_window.value_at_quantile(0.5)),
               "count");
    out.metric("shard.windows_per_case", windows / n, "count");
    out.metric("shard.worker_imbalance", median(imbalance), "ratio");
    out.metric("shard.handoff_spills", spills, "count");
  }
}

}  // namespace

Result run_case_workload(const Options& opt) {
  const CaseShape& shape = shape_of(opt.workload);
  Result out;
  add_provenance(out, opt);
  out.info_num("scale", kScale);
  out.info_num("fat_tree_k", shape.fat_tree_k);
  out.info_num("shards", shape.shards);
  out.info_num("pool_cases", kNumScenarios * kPoolPerScenario);

  eval::RunConfig cfg;
  cfg.fat_tree_k = shape.fat_tree_k;
  cfg.shards = shape.shards;

  std::vector<eval::ScenarioSpec> pool;
  std::vector<double> setup_s;
  set_up(shape, cfg, pool, setup_s);
  const std::vector<int> cases = draw_cases(opt.seed);
  const auto pinned = load_digests(opt);
  if (pinned.empty()) {
    std::fprintf(stderr, "perfbench: no pinned digests under %s/perfbench\n", opt.root.c_str());
    out.correct = false;
  }

  if (!opt.trace) {
    const CaseRun run = run_rounds(opt, shape, pool, cases, cfg, pinned, setup_s);
    out.attempted = run.results.size();
    out.failed = run.failed;
    add_setup_s(out, setup_s);
    out.metric("latency_ms_p50",
               checked_percentile(out, "latency_ms_p50", fastest_per_case(run, run.wall_ms), 0.5),
               "ms");
    out.metric("cpu_us_per_op",
               checked_percentile(out, "cpu_us_per_op", fastest_per_case(run, run.cpu_us), 0.5),
               "us");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // Figures of every run, slow ones included (not bounded: see README).
    out.info_num("rounds", run.rounds);
    out.info_num("measured_s", run.wall_s);
    out.info_num("throughput_per_s", static_cast<double>(run.results.size()) / run.wall_s);
    out.info_num("all_runs.latency_ms_p50", median(run.wall_ms));
    out.samples("all_runs.latency_ms_p50", run.wall_ms.size());
    if (const auto p90 = percentile(run.wall_ms, 0.9)) {
      out.info_num("all_runs.latency_ms_p90", *p90);
      out.samples("all_runs.latency_ms_p90", run.wall_ms.size());
    }
    return out;
  }

  // Traced: the cases run twice, with and without metrics, shard reports
  // and spans; the pairs give the tracing overhead.
  eval::RunConfig traced_cfg = cfg;
  traced_cfg.capture_metrics = true;
  traced_cfg.capture_shard_report = shape.shards > 1;
  SpanRecorder spans;
  std::vector<double> build_ms;
  {
    const std::uint64_t t0 = now_ns();
    build_pool(shape, cfg);
    const std::uint64_t t1 = now_ns();
    spans.record(SpanKind::kBuild, 0, t0, t1);
    spans.record(SpanKind::kRun, 0, t0, t1);
    build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  CaseRun plain, traced;
  run_rounds_traced(opt, pool, cases, cfg, traced_cfg, pinned, plain, traced, spans);

  out.attempted = plain.results.size() + traced.results.size();
  out.failed = plain.failed + traced.failed;
  for (double s : setup_s) build_ms.push_back(s * 1e3);
  add_layer_metrics(out, traced, median(build_ms));
  out.metric("obs.trace_overhead_pct",
             100.0 * (sum(traced.wall_ms) / sum(plain.wall_ms) - 1.0), "%");
  add_self_times(out, spans);
  out.info_num("traced_cases", static_cast<double>(traced.results.size()));
  write_chrome_trace(opt, spans);
  complete_per_layer(out);
  return out;
}

int pin_case_digests(const std::string& workload) {
  const CaseShape& shape = shape_of(workload);
  eval::RunConfig cfg;
  cfg.fat_tree_k = shape.fat_tree_k;
  cfg.shards = shape.shards;
  for (const eval::ScenarioSpec& spec : build_pool(shape, cfg)) {
    const eval::CaseResult r = eval::run_case(spec, eval::SystemKind::kVedrfolnir, cfg);
    if (!r.cc_completed) {
      std::fprintf(stderr, "perfbench: %s did not complete; not pinned\n",
                   digest_key(workload, spec).c_str());
      continue;
    }
    std::printf("%s %016llx\n", digest_key(workload, spec).c_str(),
                static_cast<unsigned long long>(diagnosis_digest(r)));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
