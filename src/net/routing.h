#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "net/types.h"
#include "sim/rng.h"

namespace vedr::net {

/// Per-device ECMP next-hop tables toward every host, computed by BFS over
/// the topology. Route overrides support the loop / load-imbalance anomaly
/// scenarios (§II-B).
///
/// Storage is flat: one (offset, count) entry per (node, destination host)
/// indexing a shared port pool, so a forwarding decision is one table index
/// plus the ECMP hash — no per-hop hash-table walk. O(nodes × hosts) small
/// entries; overrides that outgrow an entry's span append a fresh span.
class RoutingTable {
 public:
  static RoutingTable shortest_paths(const Topology& topo);

  /// ECMP selection: deterministic hash of the flow key salted with the
  /// current node, as commodity switches do. Throws if dst is unreachable.
  PortId select(NodeId at, const FlowKey& flow) const {
    const Route r = route(at, flow.dst);
    if (r.count == 1) return ports_[r.offset];
    const std::uint64_t h =
        sim::Rng::mix(flow.hash(), static_cast<std::uint64_t>(static_cast<std::uint32_t>(at)));
    // h % count; a mask gives the same index for power-of-two fan-outs (every
    // fat-tree) without a 64-bit division on the hop.
    const std::uint64_t n = r.count;
    return ports_[r.offset + static_cast<std::uint32_t>((n & (n - 1)) == 0 ? h & (n - 1) : h % n)];
  }

  /// All equal-cost candidate egress ports at `at` toward `dst`, in port
  /// order (or the order an override gave). Throws if dst is unreachable.
  std::span<const PortId> candidates(NodeId at, NodeId dst) const {
    const Route r = route(at, dst);
    return {ports_.data() + r.offset, r.count};
  }

  /// Replaces the candidate set (loop injection, static pinning). `dst` must
  /// be a host; an empty `ports` makes the pair unreachable.
  void override_route(NodeId at, NodeId dst, std::vector<PortId> ports);

  /// The exact device path a flow takes from src to dst (inclusive of both
  /// hosts), resolving ECMP the same way the switches will.
  std::vector<NodeId> path_of(const Topology& topo, const FlowKey& flow) const;

  /// The (node, egress port) hops a flow traverses, excluding the final host.
  std::vector<PortRef> port_path_of(const Topology& topo, const FlowKey& flow) const;

  /// Hop count (number of links) between two hosts for this flow key.
  int hop_count(const Topology& topo, const FlowKey& flow) const;

 private:
  struct Route {
    std::uint32_t offset = 0;  ///< first candidate in ports_
    std::uint32_t count = 0;   ///< 0 = no route
  };

  /// The (at, dst) entry; throws std::runtime_error when there is no route
  /// (unknown node, non-host destination, or an empty candidate set).
  Route route(NodeId at, NodeId dst) const {
    const auto a = static_cast<std::size_t>(static_cast<std::uint32_t>(at));
    const auto d = static_cast<std::size_t>(static_cast<std::uint32_t>(dst));
    if (a < num_nodes_ && d < host_index_.size()) {
      const std::int32_t h = host_index_[d];
      if (h >= 0) {
        const Route r = routes_[a * num_hosts_ + static_cast<std::size_t>(h)];
        if (r.count != 0) return r;
      }
    }
    throw_no_route(at, dst);
  }
  [[noreturn]] static void throw_no_route(NodeId at, NodeId dst);

  std::size_t num_nodes_ = 0;
  std::size_t num_hosts_ = 0;
  std::vector<std::int32_t> host_index_;  ///< node -> dense host index, -1 for switches
  std::vector<Route> routes_;             ///< [node * num_hosts_ + host index]
  std::vector<PortId> ports_;             ///< candidate spans, back to back
};

}  // namespace vedr::net
