#include "eval/experiment.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "baselines/full_polling.h"
#include "baselines/hawkeye.h"
#include "collective/runner.h"
#include "common/digest.h"
#include "common/worker_pool.h"
#include "core/json_export.h"
#include "core/vedrfolnir.h"
#include "net/network.h"
#include "net/shard.h"
#include "net/switch.h"
#include "net/trace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/collector.h"
#include "replay/trace_writer.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"

namespace vedr::eval {

namespace {

/// Ground-truth verification (see score_case): which injected flows
/// actually queued ahead of collective packets somewhere in the fabric,
/// read omnisciently from the simulator's switch state after the run.
std::vector<net::FlowKey> verified_contenders(net::Network& network,
                                              const collective::CollectivePlan& plan,
                                              const ScenarioSpec& spec,
                                              double min_weight = 8.0) {
  std::unordered_set<net::FlowKey, net::FlowKeyHash> cc;
  for (int f = 0; f < plan.num_flows(); ++f)
    for (const auto& s : plan.steps_of_flow(f)) cc.insert(plan.key_for(f, s.step));

  std::unordered_set<net::FlowKey, net::FlowKeyHash> found;
  // latest_now(): in a sharded run each domain's clock stops at its own
  // last event, so the fabric-wide "end of run" is the max (serial: == now).
  const sim::Tick now = network.latest_now();
  for (net::NodeId sw_id : network.switches()) {
    const net::Switch& sw = network.switch_at(sw_id);
    for (net::PortId p = 0; p < sw.num_ports(); ++p) {
      const auto report = sw.telem().port_snapshot(p, now, 0);
      for (const auto& we : report.waits) {
        if (cc.count(we.waiter) == 0) continue;
        if (static_cast<double>(we.weight) < min_weight) continue;
        for (const auto& injected : spec.bg_flows)
          if (we.ahead == injected.key) found.insert(we.ahead);
      }
    }
  }
  // Ground truth feeds precision/recall accounting downstream; canonicalize
  // the hash-set order before it escapes.
  std::vector<net::FlowKey> out(found.begin(), found.end());  // vedr-lint: allow(unordered-iter): sorted on the next line
  std::sort(out.begin(), out.end());
  return out;
}

/// Whether the injected PFC actually halted collective traffic: some switch
/// egress port both (a) was paused during the anomaly window and (b) saw
/// collective packets around that window. Omniscient ground truth, like
/// verified_contenders.
bool pfc_impacted_collective(net::Network& network, const collective::CollectivePlan& plan,
                             const ScenarioSpec& spec) {
  std::unordered_set<net::FlowKey, net::FlowKeyHash> cc;
  for (int f = 0; f < plan.num_flows(); ++f)
    for (const auto& s : plan.steps_of_flow(f)) cc.insert(plan.key_for(f, s.step));
  const sim::Tick now = network.latest_now();
  const sim::Tick slack = 100 * sim::kMicrosecond;

  auto cc_at_port_during = [&](const net::PortRef& port, sim::Tick t0, sim::Tick t1) {
    const net::Switch& sw = network.switch_at(port.node);
    const auto report = sw.telem().port_snapshot(port.port, now, 0);
    for (const auto& fe : report.flows) {
      if (cc.count(fe.flow) == 0) continue;
      if (fe.last_seen + slack >= t0 && fe.first_seen <= t1 + slack) return true;
    }
    return false;
  };

  if (!spec.storms.empty()) {
    // A storm impacts the collective iff collective packets crossed the
    // very egress the storm halts (the injection port's link peer) while
    // the storm was active.
    const auto& storm = spec.storms.front();
    const net::PortRef up =
        network.topology().peer(storm.port.node, storm.port.port);
    return cc_at_port_during(up, storm.start, storm.start + storm.duration);
  }

  // Backpressure: the cascade starts at the victim's access port; it
  // impacts the collective iff collective packets crossed a port the
  // victim's edge switch paused (its uplink ingresses pause the upstream
  // agg egresses) while the incast ran.
  if (!spec.bg_flows.empty() && spec.expected_root.valid()) {
    const sim::Tick t0 = spec.bg_flows.front().start;
    const sim::Tick t1 = now;
    const net::NodeId edge = spec.expected_root.node;
    const net::Switch& edge_sw = network.switch_at(edge);
    for (net::PortId p = 0; p < edge_sw.num_ports(); ++p) {
      const net::PortRef upstream = network.topology().peer(edge, p);
      if (network.topology().is_host(upstream.node)) continue;
      // Did this upstream egress get paused (by anyone) in the window and
      // carry collective traffic then?
      const auto report =
          network.switch_at(upstream.node).telem().port_snapshot(upstream.port, now, 0);
      bool paused = false;
      for (const auto& ev : report.pauses) {
        const sim::Tick end = ev.end == sim::kNever ? now : ev.end;
        if (end >= t0 && ev.start <= t1) paused = true;
      }
      if (paused && cc_at_port_during(upstream, t0, t1)) return true;
    }
    return false;
  }
  return true;
}

/// Folds every diagnosis-visible case output into `digest` — the shared
/// tail of both determinism lanes (serial and sharded).
void fold_case_outputs(common::Digest& digest, const CaseResult& result) {
  // Fold every output a consumer of the diagnosis could observe.
  digest.mix(std::string_view(result.outcome.label()));
  digest.mix(result.cc_completed);
  digest.mix(result.cc_time);
  digest.mix(result.sim_events);
  digest.mix(result.telemetry_bytes);
  digest.mix(result.bandwidth_bytes);
  digest.mix(result.poll_bytes);
  digest.mix(result.notify_bytes);
  digest.mix(result.report_count);
  digest.mix(std::string_view(core::json::diagnosis_to_json(result.diagnosis)));
  for (const auto& [flow, score] : result.diagnosis.contributions)
    digest.mix(flow.hash()).mix(score);
}

/// The packet-event fold shared by both digest lanes.
void mix_trace_event(common::Digest& digest, const net::TraceEvent& ev) {
  digest.mix(static_cast<std::uint64_t>(ev.kind))
      .mix(ev.time)
      .mix(ev.node)
      .mix(ev.port)
      .mix(static_cast<std::uint64_t>(ev.pkt_type))
      .mix(ev.flow.hash())
      .mix(ev.seq)
      .mix(ev.size);
}

}  // namespace

const char* to_string(SystemKind s) {
  switch (s) {
    case SystemKind::kVedrfolnir: return "Vedrfolnir";
    case SystemKind::kHawkeyeMaxR: return "Hawkeye-MaxR";
    case SystemKind::kHawkeyeMinR: return "Hawkeye-MinR";
    case SystemKind::kFullPolling: return "FullPolling";
  }
  return "?";
}

Case::Case(const net::Topology& topo, collective::CollectivePlan plan, SystemKind system,
           const RunConfig& cfg, sim::Tick poll_until)
    : system_(system),
      capture_metrics_(cfg.capture_metrics),
      capture_shard_report_(cfg.capture_shard_report) {
  net::ShardPlan shard_plan;
  if (cfg.shards > 1) {
    VEDR_CHECK(system == SystemKind::kVedrfolnir,
               "sharded runs support the Vedrfolnir system only");
    VEDR_CHECK(cfg.trace_writer == nullptr,
               "sharded runs take per-domain tracers (domain_tracer_factory), not a "
               "trace writer");
    shard_plan = net::ShardPlan::for_topology(topo);
  }
  if (shard_plan.parallel()) {
    // Workers beyond the domain count would idle; the engine clamps too, but
    // clamping here keeps engine introspection (num_workers) honest.
    engine_ = std::make_unique<sim::ShardedEngine>(shard_plan.num_domains, shard_plan.lookahead,
                                                   std::min(cfg.shards, shard_plan.num_domains));
    if (capture_shard_report_) engine_->set_collect_timing(true);
    network_ = std::make_unique<net::Network>(*engine_, shard_plan, topo, cfg.netcfg);
  } else {
    // Serial engine — also the graceful fallback when the partitioner cannot
    // split the topology.
    sim_ = std::make_unique<sim::Simulator>();
    network_ = std::make_unique<net::Network>(*sim_, topo, cfg.netcfg);
  }
  if (cfg.domain_tracer_factory) {
    const int domains = network_->num_domains();
    for (int d = 0; d < domains; ++d)
      network_->set_domain_tracer(d, cfg.domain_tracer_factory(d, domains));
  }
  if (cfg.trace_writer != nullptr) network_->set_telemetry_tap(cfg.trace_writer);

  runner_ = std::make_unique<collective::CollectiveRunner>(*network_, std::move(plan));
  switch (system) {
    case SystemKind::kVedrfolnir:
      vedr_ = std::make_unique<core::Vedrfolnir>(
          *network_, *runner_, core::VedrfolnirConfig{cfg.detection, cfg.trace_writer});
      break;
    case SystemKind::kHawkeyeMaxR:
    case SystemKind::kHawkeyeMinR: {
      baselines::HawkeyeConfig hc;
      hc.rtt_multiplier = cfg.hawkeye_multiplier;
      hc.use_max_rtt = system == SystemKind::kHawkeyeMaxR;
      hawkeye_ = std::make_unique<baselines::Hawkeye>(*network_, runner_->plan(), hc);
      hawkeye_->analyzer().set_trace_tap(cfg.trace_writer);
      break;
    }
    case SystemKind::kFullPolling:
      full_ = std::make_unique<baselines::FullPolling>(*network_, runner_->plan(),
                                                       cfg.full_poll_interval);
      full_->analyzer().set_trace_tap(cfg.trace_writer);
      // Before any caller injection: the first sweep's event sequence number
      // precedes theirs, which decides same-tick ties.
      full_->start(poll_until);
      break;
  }
}

Case::~Case() = default;

core::Vedrfolnir& Case::vedrfolnir() {
  VEDR_CHECK(vedr_ != nullptr, "this case runs ", to_string(system_), ", not Vedrfolnir");
  return *vedr_;
}

CaseResult Case::run(sim::Tick until) {
  CaseResult result;
  result.system = system_;
  net::Network& network = *network_;
  if (engine_ != nullptr) {
    // Direct start (t = 0 on every domain's clock) instead of the serial
    // kCollectiveStart trampoline: registration must happen before any
    // worker thread exists, because it touches hosts across every domain.
    runner_->on_start();
    engine_->run(until);
    network.merge_domain_stats();
    result.sim_events = engine_->events_executed();
  } else {
    runner_->start(0);
    sim_->run(until);
    result.sim_events = sim_->events_executed();
  }

  result.cc_completed = runner_->done();
  result.cc_time = runner_->done() ? runner_->finish_time() - runner_->start_time() : 0;
  result.packets_delivered = network.packets_delivered();
  switch (system_) {
    case SystemKind::kVedrfolnir:
      result.diagnosis = vedr_->diagnose();
      break;
    case SystemKind::kHawkeyeMaxR:
    case SystemKind::kHawkeyeMinR:
      result.diagnosis = hawkeye_->diagnose();
      break;
    case SystemKind::kFullPolling:
      result.diagnosis = full_->diagnose();
      break;
  }

  const auto& stats = network.stats();  // sharded: domain 0 holds the merged registry
  result.telemetry_bytes = stats.counter("overhead.telemetry_bytes");
  result.bandwidth_bytes = stats.counter("overhead.bandwidth_bytes");
  result.poll_bytes = stats.counter("overhead.poll_bytes");
  result.notify_bytes = stats.counter("overhead.notify_bytes");
  result.report_count = stats.counter("overhead.report_count");
  // End-of-run switch-resident collection state, summed live rather than
  // read from the poll-time gauge so runs that never polled still report
  // their footprint. Observation only — never folded into run_case_digest.
  for (net::NodeId sw_id : network.switches())
    result.telemetry_state_bytes += network.switch_at(sw_id).telem().state_bytes();
  if (capture_metrics_)
    result.metrics = std::make_shared<const obs::MetricsSnapshot>(obs::snapshot(stats));
  if (capture_shard_report_ && engine_ != nullptr) {
    auto report = std::make_shared<sim::ShardReport>();
    engine_->fill_report(*report);
    network.fill_shard_report(*report);
    result.shard_report = std::move(report);
  }
  return result;
}

CaseResult run_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg) {
  VEDR_SPAN("eval", "run_case");
  Case c(net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg),
         collective::CollectivePlan::ring(0, collective::OpType::kAllGather, spec.participants,
                                          spec.cc_step_bytes),
         system, cfg, spec.horizon);
  for (const auto& f : spec.bg_flows) anomaly::inject_flow(c.network(), f);
  for (const auto& s : spec.storms) anomaly::inject_storm(c.network(), s);

  CaseResult result = c.run(spec.horizon * 4);
  result.scenario = spec.type;
  result.case_id = spec.case_id;
  const collective::CollectivePlan& plan = c.runner().plan();
  if (spec.type == ScenarioType::kFlowContention || spec.type == ScenarioType::kIncast) {
    const auto verified = verified_contenders(c.network(), plan, spec);
    result.outcome = score_case(spec, result.diagnosis, &verified);
  } else {
    const bool impacted = pfc_impacted_collective(c.network(), plan, spec);
    result.outcome = score_case(spec, result.diagnosis, nullptr, &impacted);
  }
  return result;
}

// The replay enums mirror the eval ones so replay needs no eval dependency;
// any renumbering here must bump the trace format version.
static_assert(static_cast<int>(SystemKind::kVedrfolnir) ==
              static_cast<int>(replay::RecordedSystem::kVedrfolnir));
static_assert(static_cast<int>(SystemKind::kHawkeyeMaxR) ==
              static_cast<int>(replay::RecordedSystem::kHawkeyeMaxR));
static_assert(static_cast<int>(SystemKind::kHawkeyeMinR) ==
              static_cast<int>(replay::RecordedSystem::kHawkeyeMinR));
static_assert(static_cast<int>(SystemKind::kFullPolling) ==
              static_cast<int>(replay::RecordedSystem::kFullPolling));
static_assert(static_cast<int>(ScenarioType::kFlowContention) ==
              static_cast<int>(replay::RecordedScenario::kFlowContention));
static_assert(static_cast<int>(ScenarioType::kIncast) ==
              static_cast<int>(replay::RecordedScenario::kIncast));
static_assert(static_cast<int>(ScenarioType::kPfcStorm) ==
              static_cast<int>(replay::RecordedScenario::kPfcStorm));
static_assert(static_cast<int>(ScenarioType::kPfcBackpressure) ==
              static_cast<int>(replay::RecordedScenario::kPfcBackpressure));

CaseResult record_case(const ScenarioSpec& spec, SystemKind system, const RunConfig& cfg,
                       const std::string& path, std::string* error) {
  replay::TraceWriter writer(path);

  replay::TraceEnvelope env;
  env.system = static_cast<replay::RecordedSystem>(system);
  env.scenario = static_cast<replay::RecordedScenario>(spec.type);
  env.case_id = spec.case_id;
  env.seed = spec.seed;
  env.fat_tree_k = cfg.fat_tree_k;  // must match run_case's make_fat_tree call
  env.horizon = spec.horizon;
  env.participants = spec.participants;
  env.cc_step_bytes = spec.cc_step_bytes;
  env.netcfg = cfg.netcfg;
  env.bg_flows = spec.bg_flows;
  env.storms = spec.storms;
  env.expected_root = spec.expected_root;
  writer.write_envelope(env);

  RunConfig run_cfg = cfg;
  run_cfg.trace_writer = &writer;
  const CaseResult result = run_case(spec, system, run_cfg);

  replay::TraceFooter footer;
  const std::string json = core::json::diagnosis_to_json(result.diagnosis);
  footer.diagnosis_digest = replay::diagnosis_json_digest(json);
  footer.diagnosis_json_bytes = json.size();
  footer.outcome = result.outcome.tp   ? replay::RecordedOutcome::kTruePositive
                   : result.outcome.fp ? replay::RecordedOutcome::kFalsePositive
                                       : replay::RecordedOutcome::kFalseNegative;
  footer.cc_completed = result.cc_completed;
  footer.cc_time = result.cc_time;
  writer.write_footer(footer);
  writer.close();
  if (!writer.ok() && error != nullptr) *error = writer.error();
  return result;
}

std::uint64_t run_case_digest(const ScenarioSpec& spec, SystemKind system, RunConfig cfg) {
  // One streaming digest per domain (a domain's packet events are totally
  // ordered by its own simulator); the serial engine is the one-domain case.
  // Capacity 1 keeps each tracer's ring buffer from holding the (possibly
  // multi-million-event) stream in memory.
  struct DomainLane {
    common::Digest digest;
    net::PacketTracer tracer{1};
  };
  std::vector<std::unique_ptr<DomainLane>> lanes;
  cfg.domain_tracer_factory = [&lanes](int domain, int num_domains) {
    (void)num_domains;
    VEDR_CHECK_EQ(static_cast<std::size_t>(domain), lanes.size(),
                  "domains must be attached in order");
    lanes.push_back(std::make_unique<DomainLane>());
    DomainLane& lane = *lanes.back();
    lane.tracer.set_sink(
        [&lane](const net::TraceEvent& ev) { mix_trace_event(lane.digest, ev); });
    return &lane.tracer;
  };

  const CaseResult result = run_case(spec, system, cfg);

  common::Digest digest;
  if (cfg.shards > 1) {
    // The parallel lane: the domain count, then the domain digests in domain
    // order. Pinned separately from the serial lane, and identical for any
    // shard count — the domain decomposition is a pure function of the
    // topology.
    digest.mix(static_cast<std::uint64_t>(lanes.size()));
    for (const auto& lane : lanes) digest.mix(lane->digest.value());
  } else {
    // The serial lane continues the one domain's stream digest.
    digest = lanes.front()->digest;
  }
  fold_case_outputs(digest, result);
  return digest.value();
}

std::vector<CaseResult> run_scenario_suite(ScenarioType type, int n_cases, SystemKind system,
                                           const RunConfig& cfg, const ScenarioParams& params,
                                           int threads) {
  // Scenario generation only needs a topology + routing, shared read-only.
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  const net::RoutingTable routing = net::RoutingTable::shortest_paths(topo);

  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_cases));
  for (int i = 0; i < n_cases; ++i)
    specs.push_back(make_scenario(type, i, topo, routing, params));

  std::vector<CaseResult> results(specs.size());
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  VEDR_LOG_DEBUG("eval", "suite %s x%d under %s on %d threads", to_string(type), n_cases,
                 to_string(system), threads);

  // Thread-safety argument (exercised by the TSan stress lane): the shared
  // pool hands every index to exactly one worker, workers write disjoint
  // results[idx] slots, and parallel_for's joins order those writes before
  // the caller's reads. Each run_case builds a private Simulator/Network, so
  // the only cross-thread state it touches is the internally synchronized
  // obs layer.
  common::WorkerPool::parallel_for(
      n_cases, threads, [&](int idx) {
        results[static_cast<std::size_t>(idx)] =
            run_case(specs[static_cast<std::size_t>(idx)], system, cfg);
      });
  return results;
}

SuiteSummary SuiteSummary::from(const std::vector<CaseResult>& results) {
  SuiteSummary s;
  for (const auto& r : results) {
    s.pr.add(r.outcome);
    s.mean_telemetry_bytes += static_cast<double>(r.telemetry_bytes);
    s.mean_bandwidth_bytes += static_cast<double>(r.bandwidth_bytes);
    s.mean_cc_time_us += sim::to_us(r.cc_time);
    ++s.cases;
  }
  if (s.cases > 0) {
    s.mean_telemetry_bytes /= s.cases;
    s.mean_bandwidth_bytes /= s.cases;
    s.mean_cc_time_us /= s.cases;
  }
  return s;
}

}  // namespace vedr::eval
