#include "net/routing.h"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace vedr::net {
namespace {

NetConfig cfg() { return NetConfig{}; }

/// Independent BFS oracle: the equal-cost candidate ports of every
/// (node, destination host) pair with a route, in port order — what the
/// map-based table stored before the flat layout.
std::map<std::pair<NodeId, NodeId>, std::vector<PortId>> bfs_candidates(const Topology& t) {
  std::map<std::pair<NodeId, NodeId>, std::vector<PortId>> out;
  const auto n = t.size();
  for (const NodeId dst : t.hosts()) {
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::deque<NodeId> q{dst};
    dist[static_cast<std::size_t>(dst)] = 0;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      if (t.is_host(u) && u != dst) continue;  // hosts do not forward
      for (const auto& port : t.node(u).ports) {
        auto& dv = dist[static_cast<std::size_t>(port.peer)];
        if (dv > dist[static_cast<std::size_t>(u)] + 1) {
          dv = dist[static_cast<std::size_t>(u)] + 1;
          q.push_back(port.peer);
        }
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (static_cast<NodeId>(u) == dst || dist[u] == std::numeric_limits<int>::max()) continue;
      std::vector<PortId> ports;
      const auto& node = t.node(static_cast<NodeId>(u));
      for (std::size_t p = 0; p < node.ports.size(); ++p) {
        const NodeId v = node.ports[p].peer;
        if ((!t.is_host(v) || v == dst) && dist[static_cast<std::size_t>(v)] == dist[u] - 1)
          ports.push_back(static_cast<PortId>(p));
      }
      if (!ports.empty()) out[{static_cast<NodeId>(u), dst}] = std::move(ports);
    }
  }
  return out;
}

/// Every (node, host) pair of `rt` as the oracle's map (unreachable pairs
/// absent), checking on the way that unreachable pairs throw.
std::map<std::pair<NodeId, NodeId>, std::vector<PortId>> table_of(const Topology& t,
                                                                   const RoutingTable& rt) {
  std::map<std::pair<NodeId, NodeId>, std::vector<PortId>> out;
  for (std::size_t u = 0; u < t.size(); ++u) {
    for (const NodeId dst : t.hosts()) {
      const NodeId at = static_cast<NodeId>(u);
      try {
        const auto c = rt.candidates(at, dst);
        out[{at, dst}] = std::vector<PortId>(c.begin(), c.end());
      } catch (const std::runtime_error&) {
        EXPECT_THROW(rt.select(at, FlowKey{0, dst, 1, 1}), std::runtime_error);
      }
    }
  }
  return out;
}

/// The ECMP rule select() must keep: Rng::mix(flow hash, node) over the
/// candidates in table order.
PortId expected_select(const std::vector<PortId>& c, NodeId at, const FlowKey& f) {
  if (c.size() == 1) return c[0];
  return c[sim::Rng::mix(f.hash(), static_cast<std::uint64_t>(static_cast<std::uint32_t>(at))) %
           c.size()];
}

TEST(Routing, AllHostPairsReachableOnFatTree) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  for (NodeId src : t.hosts()) {
    for (NodeId dst : t.hosts()) {
      if (src == dst) continue;
      const FlowKey f{src, dst, 1, 2};
      const auto path = rt.path_of(t, f);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst) << "unreachable " << f.str();
    }
  }
}

TEST(Routing, FatTreeHopCounts) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  // Same edge switch: host-edge-host = 2 links.
  EXPECT_EQ(rt.hop_count(t, FlowKey{0, 1, 1, 1}), 2);
  // Same pod, different edge: host-edge-agg-edge-host = 4 links.
  EXPECT_EQ(rt.hop_count(t, FlowKey{0, 2, 1, 1}), 4);
  // Cross pod: 6 links.
  EXPECT_EQ(rt.hop_count(t, FlowKey{0, 15, 1, 1}), 6);
}

TEST(Routing, EcmpSelectionIsDeterministic) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  const FlowKey f{0, 15, 7, 8};
  const NodeId edge = t.peer(0, 0).node;
  const PortId first = rt.select(edge, f);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rt.select(edge, f), first);
}

TEST(Routing, EcmpSpreadsAcrossCandidates) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  const NodeId edge = t.peer(0, 0).node;
  ASSERT_EQ(rt.candidates(edge, 15).size(), 2u);  // two aggs per pod
  // Across many flow keys both uplinks should be used.
  bool used[2] = {false, false};
  const auto& cands = rt.candidates(edge, 15);
  for (std::uint16_t sp = 0; sp < 64; ++sp) {
    const PortId p = rt.select(edge, FlowKey{0, 15, sp, 9});
    used[p == cands[0] ? 0 : 1] = true;
  }
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
}

TEST(Routing, CandidatesNeverPointAtWrongHost) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  for (NodeId sw : t.switches()) {
    for (NodeId dst : t.hosts()) {
      for (PortId p : rt.candidates(sw, dst)) {
        const PortRef peer = t.peer(sw, p);
        if (t.is_host(peer.node)) {
          EXPECT_EQ(peer.node, dst);
        }
      }
    }
  }
}

TEST(Routing, PathsGetStrictlyCloser) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  // A shortest-path route can never revisit a node.
  for (NodeId src : {0, 3, 7}) {
    for (NodeId dst : {12, 15}) {
      const auto path = rt.path_of(t, FlowKey{src, dst, 3, 4});
      std::set<NodeId> seen(path.begin(), path.end());
      EXPECT_EQ(seen.size(), path.size());
    }
  }
}

TEST(Routing, OverrideRouteRedirects) {
  const Topology t = make_chain(2, cfg());
  RoutingTable rt = RoutingTable::shortest_paths(t);
  const NodeId s0 = t.switches()[0];
  const FlowKey f{0, 1, 1, 1};
  const PortId orig = rt.select(s0, f);
  // Redirect to a different port (the one back toward host 0).
  PortId other = kInvalidPort;
  for (std::size_t p = 0; p < t.node(s0).ports.size(); ++p)
    if (static_cast<PortId>(p) != orig) other = static_cast<PortId>(p);
  rt.override_route(s0, 1, {other});
  EXPECT_EQ(rt.select(s0, f), other);
}

TEST(Routing, UnreachableThrows) {
  Topology t;
  t.add_host("a");
  t.add_host("b");  // no links at all
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  EXPECT_THROW(rt.candidates(0, 1), std::runtime_error);
}

TEST(Routing, PortPathMatchesNodePath) {
  const Topology t = make_fat_tree(4, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  const FlowKey f{2, 13, 5, 6};
  const auto nodes = rt.path_of(t, f);
  const auto ports = rt.port_path_of(t, f);
  ASSERT_EQ(ports.size(), nodes.size() - 1);
  for (std::size_t i = 0; i < ports.size(); ++i) {
    EXPECT_EQ(ports[i].node, nodes[i]);
    EXPECT_EQ(t.peer(ports[i].node, ports[i].port).node, nodes[i + 1]);
  }
}

// Property sweep: reachability holds across leaf-spine shapes.
class LeafSpineReachability : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LeafSpineReachability, AllPairsRoute) {
  const auto [leaves, spines, hosts_per_leaf] = GetParam();
  const Topology t = make_leaf_spine(leaves, spines, hosts_per_leaf, cfg());
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  for (NodeId src : t.hosts()) {
    for (NodeId dst : t.hosts()) {
      if (src == dst) continue;
      const auto path = rt.path_of(t, FlowKey{src, dst, 9, 9});
      EXPECT_EQ(path.back(), dst);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LeafSpineReachability,
                         ::testing::Values(std::make_tuple(2, 1, 2), std::make_tuple(3, 2, 3),
                                           std::make_tuple(4, 4, 2), std::make_tuple(6, 3, 4)));

class FlatTableMatchesBfs : public ::testing::TestWithParam<int> {};

TEST_P(FlatTableMatchesBfs, CandidatesAndSelectionAgree) {
  Topology t;
  switch (GetParam()) {
    case 0: t = make_fat_tree(4, cfg()); break;
    case 1: t = make_fat_tree(6, cfg()); break;
    case 2: t = make_leaf_spine(4, 3, 3, cfg()); break;
    case 3: t = make_switch_ring(5, 2, cfg()); break;
    default: t = make_chain(3, cfg(), 2); break;
  }
  const RoutingTable rt = RoutingTable::shortest_paths(t);
  const auto want = bfs_candidates(t);
  EXPECT_EQ(table_of(t, rt), want);
  for (const auto& [pair, ports] : want) {
    for (std::uint16_t sp = 0; sp < 8; ++sp) {
      const FlowKey f{0, pair.second, sp, 7};
      EXPECT_EQ(rt.select(pair.first, f), expected_select(ports, pair.first, f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, FlatTableMatchesBfs, ::testing::Values(0, 1, 2, 3, 4));

TEST(Routing, OverrideArbitraryPairsGrowAndShrink) {
  const Topology t = make_fat_tree(4, cfg());
  RoutingTable rt = RoutingTable::shortest_paths(t);
  auto want = table_of(t, rt);
  std::mt19937_64 rng(20260);
  const auto hosts = t.hosts();
  for (int round = 0; round < 200; ++round) {
    const auto at = static_cast<NodeId>(rng() % t.size());
    const NodeId dst = hosts[rng() % hosts.size()];
    const auto nports = t.node(at).ports.size();
    // Multi-port overrides (up to every port, any order), single-port
    // shrinks, and the occasional empty set (no route).
    std::vector<PortId> ports;
    const int shape = static_cast<int>(rng() % 4);
    const std::size_t count = shape == 0 ? 1 : shape == 3 ? 0 : 1 + rng() % nports;
    for (std::size_t i = 0; i < count; ++i)
      ports.push_back(static_cast<PortId>((i + round) % nports));
    rt.override_route(at, dst, ports);
    if (ports.empty()) {
      want.erase({at, dst});
    } else {
      want[{at, dst}] = ports;
    }
    ASSERT_EQ(table_of(t, rt), want) << "round " << round;
    const FlowKey f{hosts[0], dst, static_cast<std::uint16_t>(round), 3};
    if (ports.empty()) {
      EXPECT_THROW(rt.select(at, f), std::runtime_error);
    } else {
      EXPECT_EQ(rt.select(at, f), expected_select(ports, at, f));
    }
  }
}

TEST(Routing, OverrideShrinksBackToOnePort) {
  const Topology t = make_fat_tree(4, cfg());
  RoutingTable rt = RoutingTable::shortest_paths(t);
  const NodeId edge = t.peer(0, 0).node;
  const std::vector<PortId> all = {0, 1, 2, 3};
  rt.override_route(edge, 15, all);
  ASSERT_EQ(rt.candidates(edge, 15).size(), 4u);
  bool used[4] = {false, false, false, false};
  for (std::uint16_t sp = 0; sp < 64; ++sp)
    used[rt.select(edge, FlowKey{0, 15, sp, 9})] = true;
  EXPECT_TRUE(used[0] && used[1] && used[2] && used[3]);
  rt.override_route(edge, 15, {2});
  ASSERT_EQ(rt.candidates(edge, 15).size(), 1u);
  for (std::uint16_t sp = 0; sp < 16; ++sp) EXPECT_EQ(rt.select(edge, FlowKey{0, 15, sp, 9}), 2);
}

TEST(Routing, NoRouteCasesThrow) {
  const Topology t = make_fat_tree(4, cfg());
  RoutingTable rt = RoutingTable::shortest_paths(t);
  const NodeId sw = t.switches()[0];
  EXPECT_THROW(rt.candidates(sw, sw), std::runtime_error);          // not a host
  EXPECT_THROW(rt.candidates(0, 0), std::runtime_error);            // a host to itself
  EXPECT_THROW(rt.candidates(-1, 0), std::runtime_error);           // unknown node
  EXPECT_THROW(rt.select(sw, FlowKey{0, kInvalidNode, 1, 1}), std::runtime_error);
  EXPECT_THROW(rt.override_route(sw, sw, {0}), std::invalid_argument);
  EXPECT_THROW(rt.override_route(static_cast<NodeId>(t.size()), 0, {0}), std::out_of_range);
}

}  // namespace
}  // namespace vedr::net
