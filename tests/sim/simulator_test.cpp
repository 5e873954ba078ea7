#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "support/hooks.h"

namespace vedr::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  test_support::Hooks h(s);
  EXPECT_EQ(s.now(), 0);
  Tick seen = -1;
  h.in(500, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  test_support::Hooks h(s);
  Tick second = -1;
  h.in(100, [&] { h.in(50, [&] { second = s.now(); }); });
  s.run();
  EXPECT_EQ(second, 150);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator s;
  test_support::Hooks h(s);
  Tick seen = -1;
  h.at(1234, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 1234);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator s;
  test_support::Hooks h(s);
  Tick seen = -1;
  h.in(100, [&] {
    h.at(10, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  test_support::Hooks h(s);
  Tick seen = -1;
  h.in(-5, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 0);
}

TEST(Simulator, RunUntilBoundsExecution) {
  Simulator s;
  test_support::Hooks h(s);
  int count = 0;
  for (Tick t = 100; t <= 1000; t += 100) h.at(t, [&] { ++count; });
  const auto executed = s.run(500);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(count, 10);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepExecutesOne) {
  Simulator s;
  test_support::Hooks h(s);
  int count = 0;
  h.in(1, [&] { ++count; });
  h.in(2, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator s;
  test_support::Hooks h(s);
  bool ran = false;
  const auto id = h.in(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator s;
  test_support::Hooks h(s);
  for (int i = 0; i < 7; ++i) h.in(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(TimeHelpers, TransmissionDelay) {
  // 1500 bytes at 100 Gbps = 120 ns.
  EXPECT_EQ(transmission_delay(1500, 100.0), 120);
  // 1 KB at 1 Gbps = 8192 ns.
  EXPECT_EQ(transmission_delay(1024, 1.0), 8192);
  EXPECT_EQ(transmission_delay(0, 100.0), 0);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_s(3 * kSecond), 3.0);
}

}  // namespace
}  // namespace vedr::sim
