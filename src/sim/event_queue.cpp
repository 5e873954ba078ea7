#include "sim/event_queue.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace vedr::sim {

namespace {

void run_hook(const EventPayload& p) { (*static_cast<const std::function<void()>*>(p.obj))(); }

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kHook: return "hook";
    case EventKind::kPacketDelivery: return "packet-delivery";
    case EventKind::kHostTxDone: return "host-tx-done";
    case EventKind::kSwitchTxDone: return "switch-tx-done";
    case EventKind::kHostWakeup: return "host-wakeup";
    case EventKind::kPfcResume: return "pfc-resume";
    case EventKind::kDcqcnAlpha: return "dcqcn-alpha";
    case EventKind::kDcqcnIncrease: return "dcqcn-increase";
    case EventKind::kStepPoll: return "step-poll";
    case EventKind::kPollSweep: return "poll-sweep";
    case EventKind::kCollectiveStart: return "collective-start";
    case EventKind::kInjectorTrigger: return "injector-trigger";
    case EventKind::kReportDelivery: return "report-delivery";
    case EventKind::kPollReport: return "poll-report";
    case EventKind::kFlowStart: return "flow-start";
    case EventKind::kRouteChange: return "route-change";
  }
  return "?";
}

EventQueue::EventQueue() : buckets_(static_cast<std::size_t>(kWheelSpan)) {
  handlers_[index_of(EventKind::kHook)] = &run_hook;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.tier == Tier::kFree || s.gen != gen) return false;  // already fired or cancelled
  if (s.tier == Tier::kWheel) {
    wheel_unlink(slot);
  } else {
    heap_remove(s.heap_pos);
  }
  reclaim_slot(slot);
  return true;
}

void EventQueue::set_handler(EventKind kind, EventHandler fn) {
  VEDR_CHECK(fn != nullptr, "null handler for event kind ", to_string(kind));
  EventHandler& cur = handlers_[index_of(kind)];
  VEDR_CHECK(cur == nullptr || cur == fn,
             "conflicting handler registration for event kind ", to_string(kind));
  cur = fn;
}

Tick EventQueue::run_next() {
  VEDR_CHECK(!empty(), "run_next() on an empty event queue (scheduled=", next_seq_, ")");
  const Front front = peek();
  run(front);
  return front.at;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (!earlier(item, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = item;
  slots_[item.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapItem item = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], item)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = item;
  slots_[item.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_remove(std::size_t pos) {
  VEDR_ASSERT(pos < heap_.size(), "heap_remove out of range");
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) >> 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

}  // namespace vedr::sim
