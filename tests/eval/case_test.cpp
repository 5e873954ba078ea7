// eval::Case: the one case driver behind run_case, the extension benches
// and the examples. These tests pin the constraints the serial and sharded
// lanes share — each must trip its VEDR_CHECK. ScopedThrowOnCheckFailure
// turns the failure into an exception, so no death tests are needed (death
// tests interact poorly with the sanitizer runtimes).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "anomaly/injectors.h"
#include "collective/runner.h"
#include "common/check.h"
#include "core/vedrfolnir.h"
#include "eval/experiment.h"
#include "net/network.h"
#include "net/routing.h"

namespace vedr::eval {
namespace {

using common::CheckFailure;
using common::ScopedThrowOnCheckFailure;

ScenarioSpec tiny_spec() {
  const RunConfig cfg;
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  ScenarioParams params;
  params.scale = 1.0 / 256.0;
  return make_scenario(ScenarioType::kFlowContention, /*case_id=*/0, topo, routing, params);
}

/// Runs `fn`, which must fail a VEDR_CHECK whose message contains `needle`.
template <typename Fn>
void expect_check_failure(Fn fn, const std::string& needle) {
  ScopedThrowOnCheckFailure guard;
  try {
    fn();
    FAIL() << "no check fired; expected one mentioning \"" << needle << "\"";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(CaseConstraints, ShardedRunRejectsEveryBaselineSystem) {
  const ScenarioSpec spec = tiny_spec();
  RunConfig cfg;
  cfg.shards = 2;
  for (const SystemKind system :
       {SystemKind::kHawkeyeMaxR, SystemKind::kHawkeyeMinR, SystemKind::kFullPolling}) {
    SCOPED_TRACE(to_string(system));
    expect_check_failure([&] { run_case(spec, system, cfg); },
                         "sharded runs support the Vedrfolnir system only");
  }
}

TEST(CaseConstraints, ShardedRecordingIsRejected) {
  const ScenarioSpec spec = tiny_spec();
  RunConfig cfg;
  cfg.shards = 2;
  const std::string path = ::testing::TempDir() + "case_test_sharded.vtrc";
  expect_check_failure(
      [&] { record_case(spec, SystemKind::kVedrfolnir, cfg, path); },
      "not a trace writer");
  std::remove(path.c_str());
}

TEST(CaseConstraints, RoutingLoopInjectionIsRejectedOnShardedNetwork) {
  RunConfig cfg;
  cfg.shards = 2;
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  const auto hosts = topo.hosts();
  Case c(topo,
         collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                          {hosts[0], hosts[5], hosts[10]}, 64 << 10),
         SystemKind::kVedrfolnir, cfg);
  ASSERT_TRUE(c.network().sharded());
  const net::NodeId edge = topo.peer(hosts[0], 0).node;
  net::NodeId agg = net::kInvalidNode;
  for (const auto& p : topo.node(edge).ports)
    if (!topo.is_host(p.peer)) agg = p.peer;
  expect_check_failure(
      [&] { anomaly::inject_routing_loop(c.network(), hosts[0], edge, agg, 0); },
      "routing-loop injection is serial-only");
}

TEST(CaseConstraints, VedrfolnirAccessorRejectsBaselineCases) {
  const RunConfig cfg;
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  Case c(topo,
         collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                          {topo.hosts()[0], topo.hosts()[1]}, 64 << 10),
         SystemKind::kHawkeyeMaxR, cfg);
  expect_check_failure([&] { c.vedrfolnir(); }, "not Vedrfolnir");
}

TEST(Case, RouteEditsBeforeRunShapeExpectedDurations) {
  // Routes pinned between construction and run() are the routes the
  // collective's expected step durations assume.
  const RunConfig cfg;
  const net::Topology topo = net::make_switch_ring(4, 1, cfg.netcfg);
  const auto hosts = topo.hosts();
  Case c(topo,
         collective::CollectivePlan::ring(0, collective::OpType::kAllGather,
                                          {hosts[0], hosts[3]}, 64 << 10),
         SystemKind::kVedrfolnir, cfg);
  auto ideal = [&c](int flow) {
    const collective::StepRecord& r = c.runner().record(flow, 0);
    return c.network().ideal_fct(r.key, r.bytes);
  };
  const std::vector<sim::Tick> shortest = {ideal(0), ideal(1)};
  anomaly::pin_clockwise_routes(c.network(), c.network().switches());
  const std::vector<sim::Tick> pinned = {ideal(0), ideal(1)};
  // Neighbouring switches: one direction now goes the long way round.
  ASSERT_NE(shortest, pinned);

  c.run();
  EXPECT_EQ(c.runner().record(0, 0).expected_duration, pinned[0]);
  EXPECT_EQ(c.runner().record(1, 0).expected_duration, pinned[1]);
}

}  // namespace
}  // namespace vedr::eval
