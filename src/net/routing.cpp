#include "net/routing.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

namespace vedr::net {

RoutingTable RoutingTable::shortest_paths(const Topology& topo) {
  RoutingTable rt;
  const auto n = topo.size();
  const std::vector<NodeId> hosts = topo.hosts();
  rt.num_nodes_ = n;
  rt.num_hosts_ = hosts.size();
  rt.host_index_.assign(n, -1);
  for (std::size_t h = 0; h < hosts.size(); ++h)
    rt.host_index_[static_cast<std::size_t>(hosts[h])] = static_cast<std::int32_t>(h);
  rt.routes_.assign(n * hosts.size(), Route{});

  // BFS from each destination host over the undirected link graph; a port at
  // `u` is a next hop toward `dst` when its peer is strictly closer.
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const NodeId dst = hosts[h];
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::deque<NodeId> q;
    dist[static_cast<std::size_t>(dst)] = 0;
    q.push_back(dst);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      const int du = dist[static_cast<std::size_t>(u)];
      for (const auto& port : topo.node(u).ports) {
        // Hosts do not forward transit traffic.
        if (topo.is_host(u) && u != dst) continue;
        const NodeId v = port.peer;
        if (dist[static_cast<std::size_t>(v)] > du + 1) {
          dist[static_cast<std::size_t>(v)] = du + 1;
          q.push_back(v);
        }
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (static_cast<NodeId>(u) == dst) continue;
      if (dist[u] == std::numeric_limits<int>::max()) continue;
      Route& r = rt.routes_[u * rt.num_hosts_ + h];
      r.offset = static_cast<std::uint32_t>(rt.ports_.size());
      const auto& node = topo.node(static_cast<NodeId>(u));
      for (std::size_t p = 0; p < node.ports.size(); ++p) {
        const NodeId v = node.ports[p].peer;
        if (!topo.is_host(v) || v == dst) {
          if (dist[static_cast<std::size_t>(v)] == dist[u] - 1) {
            rt.ports_.push_back(static_cast<PortId>(p));
            ++r.count;
          }
        }
      }
    }
  }
  return rt;
}

void RoutingTable::throw_no_route(NodeId at, NodeId dst) {
  throw std::runtime_error("no route from node " + std::to_string(at) + " to host " +
                           std::to_string(dst));
}

void RoutingTable::override_route(NodeId at, NodeId dst, std::vector<PortId> ports) {
  const auto a = static_cast<std::size_t>(static_cast<std::uint32_t>(at));
  const auto d = static_cast<std::size_t>(static_cast<std::uint32_t>(dst));
  if (a >= num_nodes_) throw std::out_of_range("override_route: unknown node");
  if (d >= host_index_.size() || host_index_[d] < 0)
    throw std::invalid_argument("override_route: destination is not a host");
  Route& r = routes_[a * num_hosts_ + static_cast<std::size_t>(host_index_[d])];
  // Rewrite in place when the new set fits the old span; otherwise append a
  // fresh span (overrides are rare injector events, so the pool barely grows).
  if (ports.size() > r.count) {
    r.offset = static_cast<std::uint32_t>(ports_.size());
    ports_.resize(ports_.size() + ports.size());
  }
  std::copy(ports.begin(), ports.end(), ports_.begin() + r.offset);
  r.count = static_cast<std::uint32_t>(ports.size());
}

std::vector<NodeId> RoutingTable::path_of(const Topology& topo, const FlowKey& flow) const {
  std::vector<NodeId> path{flow.src};
  NodeId cur = flow.src;
  // Bounded walk to survive (intentionally) looped tables.
  for (std::size_t guard = 0; guard < 4 * topo.size() && cur != flow.dst; ++guard) {
    const PortId p = select(cur, flow);
    cur = topo.node(cur).ports.at(static_cast<std::size_t>(p)).peer;
    path.push_back(cur);
  }
  return path;
}

std::vector<PortRef> RoutingTable::port_path_of(const Topology& topo, const FlowKey& flow) const {
  std::vector<PortRef> hops;
  NodeId cur = flow.src;
  for (std::size_t guard = 0; guard < 4 * topo.size() && cur != flow.dst; ++guard) {
    const PortId p = select(cur, flow);
    hops.push_back(PortRef{cur, p});
    cur = topo.node(cur).ports.at(static_cast<std::size_t>(p)).peer;
  }
  return hops;
}

int RoutingTable::hop_count(const Topology& topo, const FlowKey& flow) const {
  return static_cast<int>(port_path_of(topo, flow).size());
}

}  // namespace vedr::net
