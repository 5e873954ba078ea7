#pragma once

#include "sim/simulator.h"

namespace vedr::net {

/// Registers the data-plane event handlers (packet delivery, host/switch tx
/// completion, host wakeup, PFC resume, injector trigger, report delivery,
/// injected flow start) on `sim`'s queue.
/// Called from the Network constructor; idempotent, so multiple Networks on
/// one Simulator coexist. DCQCN timer kinds register separately from the
/// DcqcnFlow constructor (flows can exist without a Network in tests).
void register_net_event_handlers(sim::Simulator& sim);

}  // namespace vedr::net
