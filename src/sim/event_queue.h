#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "sim/event.h"
#include "sim/time.h"

namespace vedr::sim {

/// The engine's scheduling core: a pool of event slots addressed by two
/// tiers — a timing wheel for events due within kWheelSpan ticks of the last
/// popped time, and an indexed 4-ary heap for the rest.
///
/// Determinism contract (everything the models rely on):
///   - events pop in non-decreasing time order;
///   - events at the same tick fire in the order they were scheduled
///     (a monotonic sequence number breaks ties — never addresses, never
///     hash order);
///   - cancel() truly removes the event: `size()`/`empty()` count live
///     events only, and the slot is reclaimed immediately, not when a
///     tombstone would have surfaced;
///   - nothing is scheduled before the last popped time (a check).
///
/// The two tiers keep that order by construction. A wheel bucket holds one
/// tick only — every wheel event lies in [last pop, last pop + kWheelSpan)
/// — and events join its FIFO in sequence order, so each bucket is already
/// sorted by (at, seq). The far tier is a heap on (at, seq). A pop takes the
/// earlier of the wheel front and the heap top; far events never migrate.
/// Packet-level models schedule almost everything a constant link delay
/// ahead, so the heap stays small and most pops cost a few bit scans.
///
/// One scheduling path: schedule_event() stores an EventKind plus a POD
/// payload, dispatched through the kind's registered handler. A slot is one
/// cache line and owns nothing, so scheduling performs zero heap allocations
/// once the pool and heap have grown to the workload's high-water mark, and
/// reclaiming a slot is a few stores. Closures (tests, examples) live with
/// their owner and ride a kHook event that carries only their address.
///
/// Threading contract: VEDR_SINGLE_THREADED — the queue (wheel, heap, slot
/// pool, free list) is confined to the simulation thread that owns it. The
/// sharded engine gives each shard its own EventQueue; cross-shard handoff
/// happens at a higher layer, never by touching another shard's queue.
class VEDR_SINGLE_THREADED EventQueue {
 public:
  /// Width of the wheel in ticks: events due sooner than this after the last
  /// pop go to a bucket, later ones to the heap. One bitmap word per 64
  /// buckets and one summary word over those words, so at most 4096.
  static constexpr Tick kWheelSpan = 4096;

  EventQueue();

  /// The earliest live event, as located by peek(): its time and sequence
  /// number, the slot that holds it, and which tier it sits in.
  struct Front {
    Tick at = kNever;  ///< kNever when the queue is empty
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool from_wheel = false;
  };

  EventId schedule_event(Tick at, EventKind kind, const EventPayload& payload);

  /// Removes the event if it has not fired yet; reclaims its slot
  /// immediately. Returns true when an event was actually cancelled.
  bool cancel(EventId id);

  /// Registers the dispatch handler for a typed kind. Idempotent for the
  /// same function; a conflicting re-registration is a wiring bug and fails
  /// a check. kHook comes registered.
  void set_handler(EventKind kind, EventHandler fn);
  EventHandler handler(EventKind kind) const { return handlers_[index_of(kind)]; }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() + wheel_size_; }

  /// Locates the earliest live event by (at, seq): the earlier of the wheel
  /// front and the heap top. `at` is kNever when the queue is empty.
  Front peek() const {
    Front f;
    if (wheel_size_ != 0) {
      const std::uint32_t head = buckets_[wheel_front()].head;
      const Slot& s = slots_[head];
      f = Front{s.at, s.seq, head, true};
      if (heap_.empty() || earlier(s.at, s.seq, heap_.front())) return f;
    }
    if (!heap_.empty()) f = Front{heap_.front().at, heap_.front().seq, heap_.front().slot, false};
    return f;
  }

  /// Time of the earliest live event; kNever when empty.
  Tick next_time() const { return peek().at; }

  /// Pops and runs the event `front`, which must be what peek() returned
  /// with no schedule or cancel in between — one front lookup per pop.
  void run(const Front& front);

  /// Pops and runs the earliest event. Returns its time.
  /// Precondition: !empty().
  Tick run_next();

  std::uint64_t total_scheduled() const { return next_seq_; }

  /// Pool high-water mark (slots ever created). Test/bench introspection:
  /// steady state means this stops growing.
  std::size_t pool_capacity() const { return slots_.size(); }

  /// Events currently in the far tier (the heap). Test introspection.
  std::size_t far_size() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint64_t kWheelMask = static_cast<std::uint64_t>(kWheelSpan) - 1;
  static constexpr std::size_t kWords = static_cast<std::size_t>(kWheelSpan) / 64;
  static_assert((kWheelSpan & (kWheelSpan - 1)) == 0, "the wheel span must be a power of two");
  static_assert(kWords >= 1 && kWords <= 64, "one summary word covers at most 64 bitmap words");

  enum class Tier : std::uint8_t { kFree, kWheel, kHeap };

  struct HeapItem {
    Tick at = 0;
    std::uint64_t seq = 0;    ///< monotonic schedule order; same-tick tie-break
    std::uint32_t slot = 0;
  };

  /// One pooled event: exactly one cache line, owning nothing.
  struct alignas(64) Slot {
    EventPayload payload;
    Tick at = 0;               ///< wheel only; heap events keep it in HeapItem
    std::uint64_t seq = 0;     ///< wheel only
    std::uint32_t next = kNil; ///< wheel: next slot in the bucket FIFO
    std::uint32_t prev = kNil; ///< wheel: previous slot in the bucket FIFO
    std::uint32_t heap_pos = 0;
    std::uint32_t gen = 0;     ///< bumped on reclaim; validates EventIds
    EventKind kind = EventKind::kHook;
    Tier tier = Tier::kFree;
  };
  static_assert(sizeof(Slot) <= 64, "an event slot must fit one cache line");

  /// One tick's intrusive FIFO of slot indices, in sequence order.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool earlier(const HeapItem& x, const HeapItem& y) { return earlier(x.at, x.seq, y); }
  static bool earlier(Tick at, std::uint64_t seq, const HeapItem& y) {
    if (at != y.at) return at < y.at;
    return seq < y.seq;
  }

  static std::uint32_t bucket_of(Tick at) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(at) & kWheelMask);
  }

  /// The first non-empty bucket in time order, scanning from the last popped
  /// tick and wrapping once. Precondition: wheel_size_ != 0.
  std::uint32_t wheel_front() const {
    const std::uint32_t cur = bucket_of(last_pop_time_);
    const std::uint32_t w = cur >> 6;
    const std::uint64_t here = bits_[w] & (~std::uint64_t{0} << (cur & 63));
    if (here != 0) return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(here));
    // Words after w hold later ticks; if none is set, wrap to the lowest set
    // word (which may be w itself, holding ticks past the wrap point).
    std::uint64_t words = summary_ & (~std::uint64_t{1} << w);
    if (words == 0) words = summary_;
    const auto fw = static_cast<std::uint32_t>(std::countr_zero(words));
    return (fw << 6) | static_cast<std::uint32_t>(std::countr_zero(bits_[fw]));
  }

  std::uint32_t acquire_slot();
  void reclaim_slot(std::uint32_t slot);
  EventId push(Tick at, std::uint32_t slot);
  void wheel_push(Tick at, std::uint64_t seq, std::uint32_t slot);
  void wheel_unlink(std::uint32_t slot);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);

  std::vector<Bucket> buckets_;       ///< kWheelSpan buckets; index = at mod span
  std::array<std::uint64_t, kWords> bits_{};  ///< bit b set iff bucket b is non-empty
  std::uint64_t summary_ = 0;         ///< bit w set iff bits_[w] != 0
  std::size_t wheel_size_ = 0;
  std::vector<HeapItem> heap_;        ///< far tier: 4-ary min-heap on (at, seq)
  std::vector<Slot> slots_;           ///< pooled event storage
  std::vector<std::uint32_t> free_;   ///< reclaimed slot indices
  std::array<EventHandler, kNumEventKinds> handlers_{};
  std::uint64_t next_seq_ = 0;
  // The last popped (time, seq): the wheel's base, and the invariant-audit
  // state that machine-checks the monotonic-time + stable-tie-break guarantee.
  Tick last_pop_time_ = 0;
  std::uint64_t last_pop_seq_ = 0;
  bool has_popped_ = false;

 public:
  /// Bytes per pooled event; the one-cache-line bound is pinned above and in
  /// the tests.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
};

// The per-event path — schedule, pop, dispatch — is defined here so every
// scheduling site and the simulator's run loop inline it.

inline std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void EventQueue::reclaim_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.tier = Tier::kFree;
  ++s.gen;  // invalidate outstanding EventIds for this slot
  free_.push_back(slot);
}

inline EventId EventQueue::push(Tick at, std::uint32_t slot) {
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
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

inline void EventQueue::wheel_push(Tick at, std::uint64_t seq, std::uint32_t slot) {
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

inline void EventQueue::wheel_unlink(std::uint32_t slot) {
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

inline EventId EventQueue::schedule_event(Tick at, EventKind kind, const EventPayload& payload) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = kind;
  s.payload = payload;
  return push(at, slot);
}

inline void EventQueue::run(const Front& top) {
  VEDR_ASSERT(top.at != kNever && top.at == peek().at && top.seq == peek().seq,
              "run() needs the current front");
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

  if (top.from_wheel) {
    wheel_unlink(top.slot);
  } else {
    heap_remove(0);
  }
  const Slot& s = slots_[top.slot];
  const EventKind kind = s.kind;
  const EventPayload payload = s.payload;
  // Reclaim before dispatch so work scheduled by the handler reuses slots.
  reclaim_slot(top.slot);

  const EventHandler h = handlers_[index_of(kind)];
  VEDR_CHECK(h != nullptr, "no handler registered for event kind ", to_string(kind));
  h(payload);
}

}  // namespace vedr::sim
