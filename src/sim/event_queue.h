#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

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
///     events only, and the slot (including any stored closure) is
///     reclaimed immediately, not when a tombstone would have surfaced;
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
/// Two scheduling paths share the pool:
///   - schedule_event(): a typed event — EventKind plus a POD payload,
///     dispatched through the kind's registered handler. The steady-state
///     data plane uses only this path and performs zero heap allocations
///     once the pool and heap have grown to the workload's high-water mark.
///   - schedule_callback(): the cold-path escape hatch storing an arbitrary
///     std::function in the slot (tests, injector glue, report delivery).
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

  EventId schedule_event(Tick at, EventKind kind, const EventPayload& payload);
  EventId schedule_callback(Tick at, std::function<void()> fn);

  /// Removes the event if it has not fired yet; reclaims its slot (and any
  /// closure) immediately. Returns true when an event was actually cancelled.
  bool cancel(EventId id);

  /// Registers the dispatch handler for a typed kind. Idempotent for the
  /// same function; a conflicting re-registration is a wiring bug and fails
  /// a check. kCallback needs no handler.
  void set_handler(EventKind kind, EventHandler fn);
  EventHandler handler(EventKind kind) const { return handlers_[index_of(kind)]; }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() + wheel_size_; }

  /// Time of the earliest live event; kNever when empty.
  Tick next_time() const {
    Tick t = heap_.empty() ? kNever : heap_.front().at;
    if (wheel_size_ != 0) {
      const Tick w = slots_[buckets_[wheel_front()].head].at;
      if (t == kNever || w < t) t = w;
    }
    return t;
  }

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

  struct Slot {
    EventPayload payload;
    std::function<void()> fn;  ///< kCallback only; cleared on reclaim
    Tick at = 0;               ///< wheel only; heap events keep it in HeapItem
    std::uint64_t seq = 0;     ///< wheel only
    std::uint32_t next = kNil; ///< wheel: next slot in the bucket FIFO
    std::uint32_t prev = kNil; ///< wheel: previous slot in the bucket FIFO
    std::uint32_t heap_pos = 0;
    std::uint32_t gen = 0;     ///< bumped on reclaim; validates EventIds
    EventKind kind = EventKind::kCallback;
    Tier tier = Tier::kFree;
  };

  /// One tick's intrusive FIFO of slot indices, in sequence order.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool earlier(const HeapItem& x, const HeapItem& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.seq < y.seq;
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
};

}  // namespace vedr::sim
