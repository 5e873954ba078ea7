// Steady-state allocation audit: once the engine's pools (event slots,
// packet slab, ring queues, telemetry maps) have grown to a workload's
// high-water mark, continuing that workload must perform ZERO heap
// allocations. Verified by overriding global operator new/delete with
// counting wrappers and running a congestion-heavy DCQCN scenario — data
// flows, ECN marking, CNPs, rate timers — through a warm-up phase and then a
// measured window.
//
// Under sanitizers the interposed allocator changes what "an allocation" is
// (ASan's quarantine, TSan's shadow) and the engine deliberately trades this
// guarantee away; the assertion is skipped there but the scenario still runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "collective/plan.h"
#include "collective/runner.h"
#include "core/monitor.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

// The override must not exist under sanitizers: their runtimes interpose the
// allocator themselves, and GCC's -Wmismatched-new-delete flags our
// free()-backed delete against their new.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VEDR_ALLOC_OVERRIDE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VEDR_ALLOC_OVERRIDE 0
#else
#define VEDR_ALLOC_OVERRIDE 1
#endif
#else
#define VEDR_ALLOC_OVERRIDE 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
constexpr bool kSanitized = VEDR_ALLOC_OVERRIDE == 0;

}  // namespace

#if VEDR_ALLOC_OVERRIDE
// Counting global allocator. Only the counter is added; allocation behavior
// is unchanged (malloc/free underneath, as libstdc++ does by default).
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// Over-aligned types (the event queue's cache-line slots) allocate through
// the align_val_t overloads; count those too.
void* operator new(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }

// GCC pairs these malloc-backed deletes with its own notion of the
// replaced operator new and reports a mismatch; the pair here is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // VEDR_ALLOC_OVERRIDE

namespace vedr {
namespace {

TEST(SteadyStateAlloc, CongestedDcqcnWorkloadAllocatesNothing) {
  sim::Simulator sim;
  // A 2-tier fat-tree with an incast-prone ring AllGather: enough ECN
  // marking and CNP traffic to keep every hot path (host tx, switch queues,
  // PFC accounting, DCQCN timers, ACK/CNP control packets) exercised.
  net::NetConfig cfg;
  const net::Topology topo = net::make_fat_tree(4, cfg);
  net::Network network(sim, topo, cfg);

  const auto hosts = network.hosts();
  ASSERT_GE(hosts.size(), 8u);

  // Ring AllGather over 8 participants; repeated steps give the run a long
  // steady phase after the first few steps have warmed every pool.
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 8);
  collective::CollectivePlan plan = collective::CollectivePlan::ring(
      0, collective::OpType::kAllGather, participants, 64 << 20);
  collective::CollectiveRunner runner(network, std::move(plan));
  runner.start(0);

  // Warm-up: run the first stretch, letting pools/rings/maps reach their
  // high-water marks.
  sim.run(2 * sim::kMillisecond);
  ASSERT_FALSE(sim.idle()) << "warm-up consumed the whole collective; shrink the window";

  // Measured window: steady-state forwarding must not allocate.
  g_allocs.store(0);
  g_counting.store(true);
  const std::uint64_t executed_before = sim.events_executed();
  sim.run(4 * sim::kMillisecond);
  g_counting.store(false);
  const std::uint64_t executed = sim.events_executed() - executed_before;

  ASSERT_GT(executed, 10'000u) << "window too small to call this steady state";
  if (kSanitized) {
    GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  }
  EXPECT_EQ(g_allocs.load(), 0u)
      << "steady-state hot path allocated (" << g_allocs.load() << " allocations over "
      << executed << " events)";
}

void noop_handler(const sim::EventPayload&) {}

TEST(SteadyStateAlloc, EventQueueChurnAcrossBothTiersAllocatesNothing) {
  // Typed schedule/cancel/pop churn with delays inside the wheel, at its edge
  // and far past it: once the slot pool, free list and far-tier heap have
  // reached their high-water marks, neither tier may allocate.
  constexpr sim::Tick kSpan = sim::EventQueue::kWheelSpan;
  constexpr sim::Tick kDelays[] = {0, 1, 700, kSpan - 1, kSpan, kSpan + 1, 40 * kSpan};
  sim::EventQueue q;
  q.set_handler(sim::EventKind::kPollSweep, &noop_handler);
  std::vector<sim::EventId> pending(64, 0);
  sim::Tick now = 0;
  std::size_t far_seen = 0;
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const sim::Tick at = now + kDelays[k % std::size(kDelays)];
      q.cancel(pending[k % pending.size()]);  // stale or live: both are fine
      pending[k % pending.size()] = q.schedule_event(at, sim::EventKind::kPollSweep, {});
      if (q.far_size() > far_seen) far_seen = q.far_size();
      if (i % 3 == 0) now = q.run_next();
    }
  };
  churn(20'000);  // warm-up: grow every pool to its high-water mark
  ASSERT_GT(far_seen, 0u) << "the churn never reached the far tier";
  ASSERT_GT(now, 20 * kSpan) << "the churn never lapped the wheel many times";

  g_allocs.store(0);
  g_counting.store(true);
  churn(20'000);
  g_counting.store(false);
  if (kSanitized) {
    GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  }
  EXPECT_EQ(g_allocs.load(), 0u) << "warm event-queue churn allocated";
}

class NullIngest final : public core::IngestSink {
 public:
  void add_step_record(const collective::StepRecord&) override {}
  void register_poll(std::uint64_t, int, int) override {}
};

TEST(SteadyStateAlloc, MonitorRttSamplesAllocateNothing) {
  // Every ACK reaches the host's Monitor; counting it must not allocate (a
  // keyed stats counter with an over-SSO name would, once per ACK).
  sim::Simulator sim;
  net::NetConfig cfg;
  net::Network network(sim, net::make_fat_tree(4, cfg), cfg);
  const auto hosts = network.hosts();
  std::vector<net::NodeId> participants(hosts.begin(), hosts.begin() + 4);
  collective::CollectiveRunner runner(
      network, collective::CollectivePlan::ring(0, collective::OpType::kAllGather, participants,
                                                1 << 20));
  NullIngest ingest;
  core::Monitor monitor(network, runner.plan(), ingest, participants[0], core::DetectionConfig{});
  const collective::StepRecord& step = runner.record(monitor.flow_index(), 0);
  monitor.on_step_start(step);
  const net::FlowKey other{step.key.src, step.key.dst,
                           static_cast<std::uint16_t>(step.key.sport + 1000), step.key.dport};
  // RTTs far below the step threshold: the monitored flow's samples update
  // its trigger state without firing a poll; the other flow's are counted only.
  auto samples = [&](int n) {
    for (int i = 0; i < n; ++i) {
      monitor.on_rtt_sample(step.key, 1 + i % 3, static_cast<std::uint32_t>(i));
      monitor.on_rtt_sample(other, 2, static_cast<std::uint32_t>(i));
    }
  };
  samples(100);  // warm-up

  g_allocs.store(0);
  g_counting.store(true);
  samples(10'000);
  g_counting.store(false);
  EXPECT_EQ(network.stats().counter("monitor.rtt_samples"), 2 * 10'100);
  EXPECT_EQ(monitor.polls_sent(), 0);
  if (kSanitized) {
    GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
  }
  EXPECT_EQ(g_allocs.load(), 0u) << "warm per-ACK monitor path allocated";
}

}  // namespace
}  // namespace vedr
