// The interned ExactStore against the map-based reference it replaced
// (reference_exact_store.h): seeded random enqueue / dequeue / prune /
// snapshot sequences must produce identical snapshots and identical
// state_bytes() after every operation, and retention prunes must keep the
// interned id space bounded however many flows pass through.
#include "telemetry/exact_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>

#include "telemetry/reference_exact_store.h"

namespace vedr::telemetry {
namespace {

FlowKey flow(int i) {
  return FlowKey{i % 13, 100 + i % 7, static_cast<std::uint16_t>(i), 9};
}

std::string describe(const PortReport& r) {
  std::string s;
  for (const FlowEntry& f : r.flows) {
    s += f.flow.str() + " pkts=" + std::to_string(f.pkts) + " bytes=" + std::to_string(f.bytes) +
         " first=" + std::to_string(f.first_seen) + " last=" + std::to_string(f.last_seen) +
         "\n";
  }
  for (const WaitEntry& w : r.waits)
    s += w.waiter.str() + " behind " + w.ahead.str() + " w=" + std::to_string(w.weight) + "\n";
  return s;
}

PortReport snapshot(const TelemetryStore& store, Tick now, Tick since) {
  PortReport r;
  store.fill_snapshot(r, now, since);
  return r;
}

class ExactStoreEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactStoreEquivalence, MatchesTheMapBasedReference) {
  std::mt19937_64 rng(GetParam());
  ExactStore store;
  refimpl::ReferenceExactStore ref;
  std::deque<FlowKey> fifo;  // the switch queue the events mirror
  const int num_flows = 2 + static_cast<int>(rng() % 40);
  Tick now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<Tick>(rng() % 50);
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 45) {
      const FlowKey f = flow(static_cast<int>(rng() % static_cast<std::uint64_t>(num_flows)));
      const std::int64_t bytes = 64 + static_cast<std::int64_t>(rng() % 4096);
      store.on_enqueue(f, bytes, now);
      ref.on_enqueue(f, bytes, now);
      fifo.push_back(f);
    } else if (dice < 85) {
      // Mostly FIFO order; sometimes a flow that may not be queued at all.
      FlowKey f = flow(static_cast<int>(rng() % static_cast<std::uint64_t>(num_flows + 3)));
      if (!fifo.empty() && dice < 80) {
        f = fifo.front();
        fifo.pop_front();
      }
      store.on_dequeue(f, 100);
      ref.on_dequeue(f, 100);
    } else if (dice < 92) {
      const Tick retention = static_cast<Tick>(rng() % 2000);
      store.prune(now, retention);
      ref.prune(now, retention);
    } else {
      const Tick since = now - static_cast<Tick>(rng() % 3000);
      const PortReport got = snapshot(store, now, since);
      const PortReport want = snapshot(ref, now, since);
      ASSERT_EQ(describe(got), describe(want)) << "op " << op << " since " << since;
    }
    ASSERT_EQ(store.state_bytes(), ref.state_bytes()) << "op " << op;
  }
  EXPECT_EQ(describe(snapshot(store, now, 0)), describe(snapshot(ref, now, 0)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactStoreEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u, 0xfeedu, 777777u));

TEST(ExactStore, PruneKeepsTheInternedIdSpaceBounded) {
  // Eight fresh flows per epoch, each epoch one retention period after the
  // last: without compaction the id space would grow by 8 per epoch.
  constexpr Tick kRetention = 1000;
  ExactStore store;
  std::size_t peak_ids = 0;
  std::int64_t peak_bytes = 0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    const Tick t0 = static_cast<Tick>(epoch) * kRetention;
    for (int i = 0; i < 8; ++i) store.on_enqueue(flow(epoch * 8 + i), 100, t0 + i);
    for (int i = 0; i < 8; ++i) store.on_dequeue(flow(epoch * 8 + i), 100);
    store.prune(t0 + 10, kRetention);
    peak_ids = std::max(peak_ids, store.interned_flows());
    peak_bytes = std::max(peak_bytes, store.state_bytes());
  }
  EXPECT_LE(peak_ids, 16u) << "retention must compact ids, not just hide them";
  EXPECT_LE(peak_bytes, 16 * StateCosts::kFlowState + 8 * StateCosts::kQueueState +
                            16 * 16 * StateCosts::kWaitState);

  // Past the retention horizon everything idle goes, ids included.
  store.prune(500 * kRetention + 10 * kRetention, kRetention);
  EXPECT_EQ(store.interned_flows(), 0u);
  EXPECT_EQ(store.state_bytes(), 0);
}

TEST(ExactStore, PairOutlivingItsAheadFlowKeepsThatFlowsId) {
  // f0 sits in the queue (paused) from t=0; f1 enqueues behind it at t=900.
  // Once f0 drains and its row ages out, the (f1, f0) pair is still inside
  // the window and must keep reporting f0's key.
  ExactStore store;
  store.on_enqueue(flow(0), 100, 0);
  store.on_enqueue(flow(1), 100, 900);
  store.on_dequeue(flow(0), 100);
  store.on_dequeue(flow(1), 100);
  store.prune(1000, 500);  // cutoff 500: f0's row goes, f1's row and the pair stay
  const PortReport r = snapshot(store, 1000, 500);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_EQ(r.flows[0].flow, flow(1));
  ASSERT_EQ(r.waits.size(), 1u);
  EXPECT_EQ(r.waits[0].waiter, flow(1));
  EXPECT_EQ(r.waits[0].ahead, flow(0));
  EXPECT_EQ(store.interned_flows(), 2u);

  // f0 comes back: a fresh row (first_seen = now), not the pruned one.
  store.on_enqueue(flow(0), 100, 1200);
  const PortReport again = snapshot(store, 1200, 0);
  ASSERT_EQ(again.flows.size(), 2u);
  EXPECT_EQ(again.flows[0].flow, flow(0));
  EXPECT_EQ(again.flows[0].first_seen, 1200);
  EXPECT_EQ(again.flows[0].pkts, 1);
}

}  // namespace
}  // namespace vedr::telemetry
