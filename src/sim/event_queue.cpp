#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace vedr::sim {

namespace {

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kCallback: return "callback";
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
  }
  return "?";
}

EventQueue::EventQueue() : buckets_(static_cast<std::size_t>(kWheelSpan)) {}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::reclaim_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.tier = Tier::kFree;
  ++s.gen;                // invalidate outstanding EventIds for this slot
  s.fn = nullptr;         // release any closure (and its captures) now
  s.payload = EventPayload{};
  free_.push_back(slot);
}

EventId EventQueue::push(Tick at, std::uint32_t slot) {
  // A bucket is addressed by `at` modulo the span relative to the last pop;
  // an earlier time would land in a bucket of a later tick and misorder.
  VEDR_CHECK_GE(at, last_pop_time_, "event scheduled before the last popped time");
  const std::uint64_t seq = next_seq_++;
  if (at - last_pop_time_ < kWheelSpan) {
    wheel_push(at, seq, slot);
  } else {
    slots_[slot].tier = Tier::kHeap;
    heap_.push_back(HeapItem{at, seq, slot});
    sift_up(heap_.size() - 1);
  }
  return make_id(slot, slots_[slot].gen);
}

void EventQueue::wheel_push(Tick at, std::uint64_t seq, std::uint32_t slot) {
  const std::uint32_t b = bucket_of(at);
  Bucket& bucket = buckets_[b];
  Slot& s = slots_[slot];
  s.tier = Tier::kWheel;
  s.at = at;
  s.seq = seq;
  s.next = kNil;
  s.prev = bucket.tail;
  if (bucket.tail == kNil) {
    bucket.head = slot;
    bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
    summary_ |= std::uint64_t{1} << (b >> 6);
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  ++wheel_size_;
}

void EventQueue::wheel_unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  const std::uint32_t b = bucket_of(s.at);
  Bucket& bucket = buckets_[b];
  if (s.prev == kNil) {
    bucket.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNil) {
    bucket.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (bucket.head == kNil) {
    std::uint64_t& word = bits_[b >> 6];
    word &= ~(std::uint64_t{1} << (b & 63));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (b >> 6));
  }
  --wheel_size_;
}

EventId EventQueue::schedule_event(Tick at, EventKind kind, const EventPayload& payload) {
  VEDR_ASSERT(kind != EventKind::kCallback, "schedule_event cannot carry a closure");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = kind;
  s.payload = payload;
  return push(at, slot);
}

EventId EventQueue::schedule_callback(Tick at, std::function<void()> fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = EventKind::kCallback;
  s.fn = std::move(fn);
  return push(at, slot);
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
  VEDR_CHECK(kind != EventKind::kCallback, "kCallback events are not dispatched via handlers");
  VEDR_CHECK(fn != nullptr, "null handler for event kind ", to_string(kind));
  EventHandler& cur = handlers_[index_of(kind)];
  VEDR_CHECK(cur == nullptr || cur == fn,
             "conflicting handler registration for event kind ", to_string(kind));
  cur = fn;
}

Tick EventQueue::run_next() {
  VEDR_CHECK(!empty(), "run_next() on an empty event queue (scheduled=", next_seq_, ")");
  // The earlier of the wheel front and the heap top, by (at, seq).
  HeapItem top;
  bool from_wheel = false;
  if (wheel_size_ != 0) {
    const std::uint32_t head = buckets_[wheel_front()].head;
    top = HeapItem{slots_[head].at, slots_[head].seq, head};
    from_wheel = heap_.empty() || earlier(top, heap_.front());
  }
  if (!from_wheel) top = heap_.front();
  // Time must never run backwards, and equal-time events must pop in
  // schedule order — the determinism contract every model relies on.
  if (has_popped_) {
    VEDR_CHECK_GE(top.at, last_pop_time_, "event queue popped out of time order");
    if (top.at == last_pop_time_) {
      VEDR_CHECK_GT(top.seq, last_pop_seq_,
                    "same-tick events popped out of schedule order at t=", top.at);
    }
  }
  has_popped_ = true;
  last_pop_time_ = top.at;
  last_pop_seq_ = top.seq;

  if (from_wheel) {
    wheel_unlink(top.slot);
  } else {
    heap_remove(0);
  }
  Slot& s = slots_[top.slot];
  const EventKind kind = s.kind;
  const EventPayload payload = s.payload;
  std::function<void()> fn;
  if (kind == EventKind::kCallback) fn = std::move(s.fn);
  // Reclaim before dispatch so work scheduled by the handler reuses slots.
  reclaim_slot(top.slot);

  switch (kind) {
    case EventKind::kCallback:
      fn();
      break;
    default: {
      const EventHandler h = handlers_[index_of(kind)];
      VEDR_CHECK(h != nullptr, "no handler registered for event kind ", to_string(kind));
      h(payload);
      break;
    }
  }
  return top.at;
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
