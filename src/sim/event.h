#pragma once

#include <cstddef>
#include <cstdint>

namespace vedr::sim {

/// Handle for a scheduled event, used to cancel it. Encodes the pool slot
/// plus a generation counter so a handle left over from a fired/cancelled
/// event can never cancel an unrelated reuse of its slot.
using EventId = std::uint64_t;

/// The fixed taxonomy of engine events. Every event is typed: a compact POD
/// payload dispatched through the kind's registered handler, so a queue slot
/// never owns a closure and scheduling never allocates in steady state.
/// `kHook` is the one generic kind: its payload points at a caller-owned
/// std::function<void()> (tests, examples), which must outlive the event.
enum class EventKind : std::uint8_t {
  kHook = 0,         ///< caller-owned std::function<void()> at payload.obj
  kPacketDelivery,   ///< frame finished propagation; arrives at (device, port)
  kHostTxDone,       ///< host NIC finished serializing; its wire is free
  kSwitchTxDone,     ///< switch egress finished serializing; its wire is free
  kHostWakeup,       ///< host pacing-clock wakeup
  kPfcResume,        ///< an injected PAUSE expires at a switch ingress
  kDcqcnAlpha,       ///< DCQCN alpha-decay timer
  kDcqcnIncrease,    ///< DCQCN rate-increase timer
  kStepPoll,         ///< host monitor watchdog poll check
  kPollSweep,        ///< full-polling baseline sweep tick
  kCollectiveStart,  ///< collective runner kickoff
  kInjectorTrigger,  ///< anomaly injector firing (e.g. PFC storm start)
  kReportDelivery,   ///< a switch's oldest pending report reaches the analyzer
  kPollReport,       ///< full-polling: the oldest pending sweep report arrives
  kFlowStart,        ///< an injected flow's sender starts
  kRouteChange,      ///< an injected routing loop takes effect
};

inline constexpr std::size_t kNumEventKinds = 16;

inline constexpr std::size_t index_of(EventKind k) {
  return static_cast<std::size_t>(k);
}

const char* to_string(EventKind k);

/// Kind-specific arguments of a typed event. Interpretation is owned by the
/// kind's handler: `obj` is the target object (Device, DcqcnFlow, Monitor,
/// ...), `a`/`b` carry small scalars (packet-pool slot, port, generation).
/// Deliberately POD so scheduling never touches the heap.
struct EventPayload {
  void* obj = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Per-kind dispatch hook. Handlers are plain function pointers (registered
/// once per kind, typically a static trampoline that casts `payload.obj`)
/// so dispatch is one indirect call — no type erasure, no allocation.
using EventHandler = void (*)(const EventPayload& payload);

}  // namespace vedr::sim
