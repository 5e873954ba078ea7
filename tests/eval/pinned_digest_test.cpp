// Pinned determinism digests: run_case_digest values for case 0 of every
// scenario on the K=4 fabric at scale 1/256, written into the source.
//
// The other determinism tests compare two runs of one build, so a change
// that reorders event construction or scheduling (the (at, seq) tie-break
// makes any reorder visible) passes them. These values were captured before
// the case driver was merged into eval::Case and must never be re-pinned to
// make a refactor pass: a digest change is a behaviour change and needs its
// own argued entry in CHANGES.md.
//
// Coverage: the serial lane for all four systems x four scenarios, and the
// parallel lane (Vedrfolnir, shards = 2) for all four scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "eval/experiment.h"
#include "net/routing.h"

namespace vedr::eval {
namespace {

struct Pinned {
  ScenarioType scenario;
  SystemKind system;
  int shards;
  std::uint64_t digest;
};

constexpr ScenarioType kContention = ScenarioType::kFlowContention;
constexpr ScenarioType kIncast = ScenarioType::kIncast;
constexpr ScenarioType kStorm = ScenarioType::kPfcStorm;
constexpr ScenarioType kBackpressure = ScenarioType::kPfcBackpressure;

constexpr Pinned kPinned[] = {
    {kContention, SystemKind::kVedrfolnir, 1, 0x903ff42805878c91ull},
    {kIncast, SystemKind::kVedrfolnir, 1, 0xc04bb52a6f98319cull},
    {kStorm, SystemKind::kVedrfolnir, 1, 0xcde3e513f41d4cdfull},
    {kBackpressure, SystemKind::kVedrfolnir, 1, 0xd036b03ee47fcc30ull},
    {kContention, SystemKind::kHawkeyeMaxR, 1, 0xbf08681a78eb4407ull},
    {kIncast, SystemKind::kHawkeyeMaxR, 1, 0xa92c90731d2aa4a5ull},
    {kStorm, SystemKind::kHawkeyeMaxR, 1, 0xe5c010517c4d7e1bull},
    {kBackpressure, SystemKind::kHawkeyeMaxR, 1, 0x402adc6cb3570420ull},
    {kContention, SystemKind::kHawkeyeMinR, 1, 0x5960bf47feb62043ull},
    {kIncast, SystemKind::kHawkeyeMinR, 1, 0xd46b641045043cecull},
    {kStorm, SystemKind::kHawkeyeMinR, 1, 0xf10702cabd1a5c37ull},
    {kBackpressure, SystemKind::kHawkeyeMinR, 1, 0x3318fa03cc1cc1feull},
    {kContention, SystemKind::kFullPolling, 1, 0x2ca53c9929796721ull},
    {kIncast, SystemKind::kFullPolling, 1, 0x83f011de5ae2cdb0ull},
    {kStorm, SystemKind::kFullPolling, 1, 0x849bc6c69567762dull},
    {kBackpressure, SystemKind::kFullPolling, 1, 0x5eff44128012c092ull},
    {kContention, SystemKind::kVedrfolnir, 2, 0x59dc959822575733ull},
    {kIncast, SystemKind::kVedrfolnir, 2, 0x3936d6721f930bd7ull},
    {kStorm, SystemKind::kVedrfolnir, 2, 0x5f77afabc8a4fb66ull},
    {kBackpressure, SystemKind::kVedrfolnir, 2, 0xef5456e9a393ce61ull},
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << to_string(p.system) << " x " << to_string(p.scenario) << " at shards=" << p.shards;
}

class PinnedDigest : public ::testing::TestWithParam<Pinned> {};

TEST_P(PinnedDigest, MatchesCapturedValue) {
  const Pinned& p = GetParam();
  RunConfig cfg;
  cfg.shards = p.shards;
  const net::Topology topo = net::make_fat_tree(cfg.fat_tree_k, cfg.netcfg);
  const auto routing = net::RoutingTable::shortest_paths(topo);
  ScenarioParams params;
  params.scale = 1.0 / 256.0;
  const ScenarioSpec spec = make_scenario(p.scenario, /*case_id=*/0, topo, routing, params);
  const std::uint64_t got = run_case_digest(spec, p.system, cfg);
  EXPECT_EQ(got, p.digest) << std::hex << "got 0x" << got << "ull, pinned 0x" << p.digest
                           << "ull";
}

std::string lane_name(const ::testing::TestParamInfo<Pinned>& info) {
  std::string name;
  for (const char* s = to_string(info.param.system); *s != '\0'; ++s)
    if (*s != '-') name += *s;
  name += '_';
  name += to_string(info.param.scenario);
  name += "_shards";
  name += std::to_string(info.param.shards);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllLanes, PinnedDigest, ::testing::ValuesIn(kPinned), lane_name);

}  // namespace
}  // namespace vedr::eval
