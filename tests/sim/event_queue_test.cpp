#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "support/hooks.h"

namespace vedr::sim {
namespace {

using test_support::Hooks;

// A pooled event is one cache line and owns no closure.
static_assert(EventQueue::kSlotBytes <= 64, "an event slot must fit one cache line");

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  Hooks h(q);
  std::vector<int> order;
  h.at(30, [&] { order.push_back(3); });
  h.at(10, [&] { order.push_back(1); });
  h.at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickRunsInScheduleOrder) {
  EventQueue q;
  Hooks h(q);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) h.at(42, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  Hooks h(q);
  EXPECT_EQ(q.next_time(), kNever);
  h.at(100, [] {});
  h.at(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  Hooks h(q);
  h.at(77, [] {});
  EXPECT_EQ(q.run_next(), 77);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  Hooks h(q);
  bool ran = false;
  const EventId id = h.at(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  Hooks h(q);
  const EventId id = h.at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunReturnsFalse) {
  EventQueue q;
  Hooks h(q);
  const EventId id = h.at(10, [] {});
  q.run_next();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  Hooks h(q);
  std::vector<int> order;
  h.at(10, [&] { order.push_back(1); });
  const EventId id = h.at(20, [&] { order.push_back(2); });
  h.at(30, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  Hooks h(q);
  const EventId a = h.at(1, [] {});
  h.at(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  Hooks h(q);
  int count = 0;
  h.at(10, [&] {
    ++count;
    h.at(20, [&] { ++count; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunNextOnEmptyQueueFiresCheck) {
  EventQueue q;
  Hooks h(q);
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.run_next(), common::CheckFailure);
}

TEST(EventQueue, SameTickTieBreakSurvivesInterleavedScheduling) {
  // Schedule same-tick events both up front and from inside a running event;
  // the (time, id) tie-break must still replay exact schedule order — this is
  // the property that keeps whole-simulation runs bit-reproducible.
  EventQueue q;
  Hooks h(q);
  std::vector<int> order;
  h.at(5, [&] {
    order.push_back(0);
    h.at(5, [&] { order.push_back(3); });
    h.at(5, [&] { order.push_back(4); });
  });
  h.at(5, [&] { order.push_back(1); });
  h.at(5, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FarEventBeatsSameTickWheelEventScheduledLater) {
  // An event scheduled while its tick was beyond the wheel sits in the heap;
  // once the clock moves closer, a later event at the same tick goes to the
  // wheel. The older (far) event must still fire first.
  constexpr Tick kAt = EventQueue::kWheelSpan + 10;
  EventQueue q;
  Hooks h(q);
  std::vector<int> order;
  h.at(kAt, [&] { order.push_back(0); });
  EXPECT_EQ(q.far_size(), 1u);
  h.at(20, [&] {
    h.at(kAt, [&] { order.push_back(1); });
    h.at(kAt, [&] { order.push_back(2); });
  });
  q.run_next();
  EXPECT_EQ(q.far_size(), 1u) << "the same-tick events scheduled at t=20 belong in the wheel";
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), kAt);
  while (!q.empty()) EXPECT_EQ(q.run_next(), kAt);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelInEitherTierThenReuseTheSlot) {
  for (const Tick at : {Tick{7}, 3 * EventQueue::kWheelSpan}) {
    SCOPED_TRACE(at);
    EventQueue q;
    Hooks h(q);
    const bool far = at >= EventQueue::kWheelSpan;
    const EventId id = h.at(at, [] { FAIL() << "cancelled event ran"; });
    EXPECT_EQ(q.far_size(), far ? 1u : 0u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.far_size(), 0u);
    EXPECT_EQ(q.next_time(), kNever);

    // The freed slot is reused, in the same tier or the other one; the stale
    // handle must not reach the new occupant.
    const std::size_t pool = q.pool_capacity();
    int ran = 0;
    const EventId near_id = h.at(5, [&] { ++ran; });
    EXPECT_EQ(q.pool_capacity(), pool);
    EXPECT_FALSE(q.cancel(id));
    h.at(2 * EventQueue::kWheelSpan, [&] { ran += 10; });
    EXPECT_EQ(q.far_size(), 1u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.next_time(), 5);
    EXPECT_TRUE(q.cancel(near_id));
    EXPECT_EQ(q.next_time(), 2 * EventQueue::kWheelSpan);
    while (!q.empty()) q.run_next();
    EXPECT_EQ(ran, 10);
  }
}

TEST(EventQueue, ScheduleBeforeLastPopFiresCheck) {
  // A time before the last pop would land in a wheel bucket that now stands
  // for a later tick and fire out of order, so it is refused outright.
  EventQueue q;
  Hooks h(q);
  h.at(100, [] {});
  q.run_next();
  h.at(100, [] {});  // the popped tick itself is fine
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(h.at(99, [] {}), common::CheckFailure);
  EXPECT_THROW(q.schedule_event(0, EventKind::kStepPoll, {}), common::CheckFailure);
}

TEST(EventQueue, IdenticalSchedulesReplayIdentically) {
  auto run_once = [] {
    EventQueue q;
    Hooks h(q);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) h.at((i * 13) % 8, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.run_next();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, SizeAndEmptyCountLiveEventsOnly) {
  // Regression companion: with true removal there are no tombstones, so
  // size()/empty() always reflect live events — even after heavy churn.
  EventQueue q;
  Hooks h(q);
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(h.at(i, [] {}));
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(q.size(), 50u);
  std::size_t ran = 0;
  while (!q.empty()) {
    q.run_next();
    ++ran;
  }
  EXPECT_EQ(ran, 50u);
}

TEST(EventQueue, SlotPoolStopsGrowingUnderChurn) {
  // Steady state must reuse slots: with at most 2 events outstanding, the
  // pool never needs more than 2 slots no matter how many events flow.
  EventQueue q;
  Hooks h(q);
  h.at(0, [] {});
  q.run_next();
  const std::size_t warm = q.pool_capacity();
  for (int i = 1; i <= 10000; ++i) {
    h.at(i, [] {});
    q.run_next();
  }
  EXPECT_EQ(q.pool_capacity(), warm);
}

int g_typed_fired = 0;
std::vector<std::uint64_t> g_typed_payloads;

void typed_test_handler(const EventPayload& p) {
  ++g_typed_fired;
  g_typed_payloads.push_back(p.a);
}

TEST(EventQueue, TypedEventsDispatchThroughHandler) {
  EventQueue q;
  Hooks h(q);
  g_typed_fired = 0;
  g_typed_payloads.clear();
  q.set_handler(EventKind::kStepPoll, &typed_test_handler);
  q.schedule_event(10, EventKind::kStepPoll, {nullptr, 7, 0});
  q.schedule_event(20, EventKind::kStepPoll, {nullptr, 9, 0});
  while (!q.empty()) q.run_next();
  EXPECT_EQ(g_typed_fired, 2);
  EXPECT_EQ(g_typed_payloads, (std::vector<std::uint64_t>{7, 9}));
}

TEST(EventQueue, SameTickOrderSpansTypedAndCallbackPaths) {
  // Every kind shares one sequence counter, so same-tick typed events and
  // hook closures interleave in global schedule order.
  EventQueue q;
  Hooks h(q);
  static std::vector<int>* order_sink = nullptr;
  std::vector<int> order;
  order_sink = &order;
  q.set_handler(EventKind::kPollSweep,
                [](const EventPayload& p) { order_sink->push_back(static_cast<int>(p.a)); });
  q.schedule_event(5, EventKind::kPollSweep, {nullptr, 0, 0});
  h.at(5, [&] { order.push_back(1); });
  q.schedule_event(5, EventKind::kPollSweep, {nullptr, 2, 0});
  h.at(5, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, CancelTypedEvent) {
  EventQueue q;
  Hooks h(q);
  g_typed_fired = 0;
  g_typed_payloads.clear();
  q.set_handler(EventKind::kStepPoll, &typed_test_handler);
  const EventId id = q.schedule_event(10, EventKind::kStepPoll, {nullptr, 1, 0});
  q.schedule_event(20, EventKind::kStepPoll, {nullptr, 2, 0});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(g_typed_payloads, (std::vector<std::uint64_t>{2}));
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  // After a slot is reclaimed and reused, an old EventId for it must not
  // cancel the new occupant (generation validation).
  EventQueue q;
  Hooks h(q);
  const EventId stale = h.at(1, [] {});
  q.run_next();  // slot reclaimed
  bool ran = false;
  h.at(2, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(stale));
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, ConflictingHandlerRegistrationFiresCheck) {
  EventQueue q;
  Hooks h(q);
  q.set_handler(EventKind::kCollectiveStart, &typed_test_handler);
  q.set_handler(EventKind::kCollectiveStart, &typed_test_handler);  // idempotent: OK
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.set_handler(EventKind::kCollectiveStart,
                             [](const EventPayload&) {}),
               common::CheckFailure);
}

TEST(EventQueue, UnregisteredTypedKindFiresCheck) {
  EventQueue q;
  Hooks h(q);
  q.schedule_event(1, EventKind::kHostWakeup, {nullptr, 0, 0});
  common::ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(q.run_next(), common::CheckFailure);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  Hooks h(q);
  Tick last = -1;
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const Tick t = (i * 7919) % 1000;  // pseudo-shuffled times
    h.at(t, [&, t] {
      if (t < last) ordered = false;
      last = t;
    });
  }
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace vedr::sim
