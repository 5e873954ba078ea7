#pragma once

#include <string>
#include <vector>

#include "net/types.h"

namespace vedr::net {

/// Pure description of a fabric: nodes and point-to-point links. Ports are
/// allocated in link-creation order, so the Topology is also the source of
/// truth for port numbering used by routing and telemetry.
class Topology {
 public:
  struct Port {
    NodeId peer = kInvalidNode;
    PortId peer_port = kInvalidPort;
    double gbps = 0;
    Tick delay = 0;
  };

  struct Node {
    bool is_host = false;
    std::string name;
    std::vector<Port> ports;
  };

  NodeId add_host(std::string name);
  NodeId add_switch(std::string name);

  /// Connects a and b with a full-duplex link; returns the port pair
  /// (port on a, port on b).
  std::pair<PortId, PortId> link(NodeId a, NodeId b, double gbps, Tick delay);

  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  bool is_host(NodeId id) const { return node(id).is_host; }
  const std::vector<Node>& nodes() const { return nodes_; }

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> switches() const;
  int num_hosts() const;

  const Port& port(NodeId node, PortId port_id) const {
    return nodes_.at(static_cast<std::size_t>(node)).ports.at(static_cast<std::size_t>(port_id));
  }
  /// Peer endpoint of (node, port).
  PortRef peer(NodeId node, PortId port_id) const {
    const Port& p = port(node, port_id);
    return PortRef{p.peer, p.peer_port};
  }

 private:
  std::vector<Node> nodes_;
};

/// Standard K-ary fat-tree: K pods of K/2 edge + K/2 aggregation switches,
/// (K/2)^2 core switches, K^2*K/4 hosts. K=4 gives the paper's 20-switch,
/// 16-host fabric (§IV-A).
Topology make_fat_tree(int k, const NetConfig& cfg);

/// Hosts A,B + a chain of `n_switches` switches, for focused unit tests.
Topology make_chain(int n_switches, const NetConfig& cfg, int hosts_per_end = 1);

/// Single switch with `n_hosts` leaves — the minimal incast fabric.
Topology make_star(int n_hosts, const NetConfig& cfg);

/// `n_leaf` leaf switches fully meshed to `n_spine` spines, `hosts_per_leaf`
/// hosts each (2-tier Clos), used by randomized property tests.
Topology make_leaf_spine(int n_leaf, int n_spine, int hosts_per_leaf, const NetConfig& cfg);

/// A cycle of `n_switches` switches with `hosts_per_switch` hosts each.
/// With routing pinned to one direction this is the canonical cyclic-
/// buffer-dependency fabric for PFC deadlock studies (§II-B anomaly 4).
Topology make_switch_ring(int n_switches, int hosts_per_switch, const NetConfig& cfg);

}  // namespace vedr::net
