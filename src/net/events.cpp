#include "net/events.h"

#include "net/device.h"
#include "net/host.h"
#include "net/switch.h"

namespace vedr::net {

namespace {

// One trampoline per kind: cast the payload back to the target object and
// call its event entry point. These are the only places that decode the
// payload convention, so the encode sites (network.cpp, host.cpp,
// switch.cpp, injectors.cpp) have exactly one counterpart each.

void on_packet_delivery(const sim::EventPayload& p) {
  static_cast<Device*>(p.obj)->handle_rx_ref(static_cast<PacketRef>(p.a),
                                             static_cast<PortId>(p.b));
}

void on_host_tx_done(const sim::EventPayload& p) {
  static_cast<Host*>(p.obj)->on_tx_done_ref(static_cast<PacketRef>(p.a));
}

void on_switch_tx_done(const sim::EventPayload& p) {
  static_cast<Switch*>(p.obj)->on_tx_done_ref(static_cast<PacketRef>(p.a),
                                              static_cast<PortId>(p.b));
}

void on_host_wakeup(const sim::EventPayload& p) {
  static_cast<Host*>(p.obj)->on_wakeup();
}

void on_pfc_resume(const sim::EventPayload& p) {
  static_cast<Switch*>(p.obj)->on_forced_pause_expired(static_cast<PortId>(p.b));
}

void on_injector_trigger(const sim::EventPayload& p) {
  static_cast<Switch*>(p.obj)->force_pause(static_cast<PortId>(p.b),
                                           static_cast<Tick>(p.a));
}

void on_report_delivery(const sim::EventPayload& p) {
  static_cast<Switch*>(p.obj)->deliver_report();
}

void on_flow_start(const sim::EventPayload& p) {
  static_cast<Host*>(p.obj)->on_flow_start(static_cast<std::size_t>(p.a));
}

}  // namespace

void register_net_event_handlers(sim::Simulator& sim) {
  sim.set_handler(sim::EventKind::kPacketDelivery, &on_packet_delivery);
  sim.set_handler(sim::EventKind::kHostTxDone, &on_host_tx_done);
  sim.set_handler(sim::EventKind::kSwitchTxDone, &on_switch_tx_done);
  sim.set_handler(sim::EventKind::kHostWakeup, &on_host_wakeup);
  sim.set_handler(sim::EventKind::kPfcResume, &on_pfc_resume);
  sim.set_handler(sim::EventKind::kInjectorTrigger, &on_injector_trigger);
  sim.set_handler(sim::EventKind::kReportDelivery, &on_report_delivery);
  sim.set_handler(sim::EventKind::kFlowStart, &on_flow_start);
}

}  // namespace vedr::net
