#include "anomaly/injectors.h"

#include <stdexcept>

#include "common/check.h"
#include "net/host.h"
#include "net/switch.h"
#include "obs/log.h"

namespace vedr::anomaly {

namespace {

/// kRouteChange: payload {network, a << 32 | b, dst} — point a's and b's
/// routes for dst at each other.
void on_route_change(const sim::EventPayload& p) {
  auto& net = *static_cast<net::Network*>(p.obj);
  const auto a = static_cast<NodeId>(static_cast<std::uint32_t>(p.a >> 32));
  const auto b = static_cast<NodeId>(static_cast<std::uint32_t>(p.a));
  const auto dst = static_cast<NodeId>(static_cast<std::uint32_t>(p.b));
  net.routing().override_route(a, dst, {port_towards(net.topology(), a, b)});
  net.routing().override_route(b, dst, {port_towards(net.topology(), b, a)});
}

}  // namespace

void inject_flow(net::Network& net, const InjectedFlow& flow,
                 std::function<void(Tick)> on_complete) {
  VEDR_LOG_DEBUG("anomaly", "inject flow %s: %lld bytes at t=%lld", flow.key.str().c_str(),
                 static_cast<long long>(flow.bytes), static_cast<long long>(flow.start));
  net.host(flow.key.dst).expect_flow(flow.key, flow.bytes);
  // The source host schedules the start on its own domain's simulator, so
  // the trigger (and the flow state it creates) stays on that domain
  // (serial: the one simulator).
  net::Host::FlowDoneFn done;
  if (on_complete) {
    done = [cb = std::move(on_complete)](const net::FlowKey&, Tick t) { cb(t); };
  }
  net.host(flow.key.src).start_flow_at(flow.start, flow.key, flow.bytes, std::move(done));
}

net::PortId port_towards(const net::Topology& topo, NodeId from, NodeId to) {
  const auto& ports = topo.node(from).ports;
  for (std::size_t p = 0; p < ports.size(); ++p)
    if (ports[p].peer == to) return static_cast<net::PortId>(p);
  throw std::invalid_argument("nodes are not adjacent");
}

void inject_routing_loop(net::Network& net, NodeId dst, NodeId a, NodeId b, Tick at) {
  VEDR_LOG_DEBUG("anomaly", "inject routing loop %d<->%d for dst %d at t=%lld", a, b, dst,
                 static_cast<long long>(at));
  // The routing table is shared across domains; mutating it mid-run from one
  // domain would race with every other domain's forwarding decisions.
  VEDR_CHECK(!net.sharded(), "routing-loop injection is serial-only");
  (void)port_towards(net.topology(), a, b);  // throws now, not at fire time
  net.sim().set_handler(sim::EventKind::kRouteChange, &on_route_change);
  net.sim().schedule_event_at(
      at, sim::EventKind::kRouteChange,
      {&net,
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b),
       static_cast<std::uint32_t>(dst)});
}

void pin_clockwise_routes(net::Network& net, const std::vector<NodeId>& ring) {
  const auto& topo = net.topology();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeId sw = ring[i];
    const NodeId next = ring[(i + 1) % ring.size()];
    const net::PortId clockwise = port_towards(topo, sw, next);
    for (NodeId host : topo.hosts()) {
      if (topo.peer(host, 0).node == sw) continue;  // local hosts keep their port
      net.routing().override_route(sw, host, {clockwise});
    }
  }
}

void inject_storm(net::Network& net, const StormSpec& storm) {
  // The target switch is resolved now rather than at fire time: the device
  // table is fixed at Network construction, so the pointer stays valid.
  VEDR_LOG_DEBUG("anomaly", "inject PFC storm at %s: start=%lld duration=%lld",
                 storm.port.str().c_str(), static_cast<long long>(storm.start),
                 static_cast<long long>(storm.duration));
  net::Switch& sw = net.switch_at(storm.port.node);
  net.sim_of(storm.port.node)
      .schedule_event_at(storm.start, sim::EventKind::kInjectorTrigger,
                         {&sw, static_cast<std::uint64_t>(storm.duration),
                          static_cast<std::uint64_t>(storm.port.port)});
}

}  // namespace vedr::anomaly
