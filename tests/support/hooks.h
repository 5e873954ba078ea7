#pragma once

#include <deque>
#include <functional>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace vedr::test_support {

/// Closures for tests, scheduled as kHook events. The closures live here —
/// the queue slot carries only an address — so a Hooks must outlive every
/// event it scheduled. Bound to one Simulator (times clamp to now, as
/// Simulator::schedule_event_at does) or to one bare EventQueue.
class Hooks {
 public:
  explicit Hooks(sim::Simulator& sim) : sim_(&sim) {}
  explicit Hooks(sim::EventQueue& queue) : queue_(&queue) {}

  Hooks(const Hooks&) = delete;
  Hooks& operator=(const Hooks&) = delete;

  /// Runs `fn` at absolute time `at`.
  sim::EventId at(sim::Tick at, std::function<void()> fn) {
    const sim::EventPayload p = park(std::move(fn));
    return sim_ != nullptr ? sim_->schedule_event_at(at, sim::EventKind::kHook, p)
                           : queue_->schedule_event(at, sim::EventKind::kHook, p);
  }

  /// Runs `fn` `delay` ns after the bound simulator's now (delay may be 0;
  /// a negative delay clamps to now).
  sim::EventId in(sim::Tick delay, std::function<void()> fn) {
    return sim_->schedule_event_in(delay, sim::EventKind::kHook, park(std::move(fn)));
  }

 private:
  /// Deque growth never moves an element, so a parked closure's address
  /// stays valid while later ones are added (also from inside a hook).
  sim::EventPayload park(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return {&fns_.back(), 0, 0};
  }

  sim::Simulator* sim_ = nullptr;
  sim::EventQueue* queue_ = nullptr;
  std::deque<std::function<void()>> fns_;
};

}  // namespace vedr::test_support
