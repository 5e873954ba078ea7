#pragma once

// Reference implementation of the exact telemetry store as it existed before
// the interned rewrite: node-based unordered_maps keyed by FlowKey, a nested
// map for the pairwise wait matrix and a parallel one for its last-update
// ticks. Kept verbatim (modulo inlining) as the behavioural oracle for the
// randomized equivalence test in exact_store_test.cpp. Do not "optimize"
// this file — its value is that it computes the answers the slow,
// obviously-correct way.

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "telemetry/store.h"

namespace vedr::refimpl {

using net::FlowKey;
using sim::Tick;
using telemetry::FlowEntry;
using telemetry::PortReport;
using telemetry::StateCosts;
using telemetry::TelemetryBackend;
using telemetry::WaitEntry;

class ReferenceExactStore final : public telemetry::TelemetryStore {
 public:
  void on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) override;
  void on_dequeue(const FlowKey& flow, std::int64_t bytes) override;
  void fill_snapshot(PortReport& r, Tick now, Tick since) const override;
  void prune(Tick now, Tick retention) override;
  std::int64_t state_bytes() const override;
  TelemetryBackend backend() const override { return TelemetryBackend::kExact; }

 private:
  std::unordered_map<FlowKey, FlowEntry, net::FlowKeyHash> flows_;
  // Live per-flow packet counts in the queue (for queue-ahead accounting).
  std::unordered_map<FlowKey, std::int64_t, net::FlowKeyHash> in_queue_;
  // wait_[f_i][f_j] = w(f_i, f_j)
  std::unordered_map<FlowKey, std::unordered_map<FlowKey, std::int64_t, net::FlowKeyHash>,
                     net::FlowKeyHash>
      wait_;
  // Pair of (f_i, f_j) -> last time f_i enqueued behind f_j, for windowing.
  std::unordered_map<FlowKey, std::unordered_map<FlowKey, Tick, net::FlowKeyHash>,
                     net::FlowKeyHash>
      wait_last_;
};

inline void ReferenceExactStore::on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) {
  auto& fe = flows_[flow];
  if (fe.pkts == 0) {
    fe.flow = flow;
    fe.first_seen = now;
  }
  fe.pkts += 1;
  fe.bytes += bytes;
  fe.last_seen = now;

  // Queue-ahead accounting: every packet of another flow currently queued is
  // a packet this flow's packet waits behind.
  for (const auto& [other, cnt] : in_queue_) {  // vedr-lint: allow(unordered-iter): commutative += into maps keyed by (flow, other)
    if (other == flow || cnt == 0) continue;
    wait_[flow][other] += cnt;
    wait_last_[flow][other] = now;
  }

  in_queue_[flow] += 1;
}

inline void ReferenceExactStore::on_dequeue(const FlowKey& flow, std::int64_t bytes) {
  (void)bytes;
  auto it = in_queue_.find(flow);
  // Drained flows keep their (zero) entry: erasing would free the hash node
  // just to reallocate it on the flow's next packet, and the queue-ahead
  // loop in on_enqueue already skips cnt == 0. prune() reclaims them.
  if (it != in_queue_.end() && it->second > 0) it->second -= 1;
}

inline void ReferenceExactStore::fill_snapshot(PortReport& r, Tick now, Tick since) const {
  (void)now;
  for (const auto& [key, fe] : flows_) {  // vedr-lint: allow(unordered-iter): r.flows is sorted before return below
    if (fe.last_seen >= since) r.flows.push_back(fe);
  }
  for (const auto& [waiter, row] : wait_) {  // vedr-lint: allow(unordered-iter): r.waits is sorted before return below
    auto last_row = wait_last_.find(waiter);
    for (const auto& [ahead, w] : row) {
      Tick last = sim::kNever;
      if (last_row != wait_last_.end()) {
        auto it = last_row->second.find(ahead);
        if (it != last_row->second.end()) last = it->second;
      }
      if (last >= since && w > 0) r.waits.push_back(WaitEntry{waiter, ahead, w});
    }
  }
  // Reports are assembled from unordered_maps; canonicalize their order so a
  // snapshot's content never depends on hash-table iteration (which would
  // leak into downstream graphs, findings, and the determinism digest).
  std::sort(r.flows.begin(), r.flows.end(),
            [](const FlowEntry& a, const FlowEntry& b) { return a.flow < b.flow; });
  std::sort(r.waits.begin(), r.waits.end(), [](const WaitEntry& a, const WaitEntry& b) {
    if (a.waiter != b.waiter) return a.waiter < b.waiter;
    return a.ahead < b.ahead;
  });
}

inline void ReferenceExactStore::prune(Tick now, Tick retention) {
  const Tick cutoff = now - retention;
  // Drained queue entries carry no observable state (on_enqueue skips
  // cnt == 0), so reclaiming them can never change a snapshot.
  for (auto it = in_queue_.begin(); it != in_queue_.end();) {  // vedr-lint: allow(unordered-iter): per-entry predicate, erasures commute
    it = it->second == 0 ? in_queue_.erase(it) : std::next(it);
  }
  // Flow rows idle since before the cutoff fail fill_snapshot's
  // `last_seen >= since` filter for every window starting at or after the
  // cutoff, so dropping them is invisible to those readers. Rows for flows
  // still resident in the queue are kept regardless of age: their counters
  // must keep accumulating if the queue ever drains (e.g. across a long
  // pause).
  for (auto it = flows_.begin(); it != flows_.end();) {  // vedr-lint: allow(unordered-iter): per-entry predicate, erasures commute
    if (it->second.last_seen < cutoff && in_queue_.find(it->first) == in_queue_.end()) {
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  // Wait pairs idle since before the cutoff fail the `last >= since` filter
  // of every snapshot whose window starts at or after the cutoff; dropping
  // them is invisible to those. Full-history (since = 0) readers would see
  // the loss, which is why the default retention sits far beyond any
  // evaluation horizon (NetConfig::telemetry_retention).
  for (auto wit = wait_last_.begin(); wit != wait_last_.end();) {  // vedr-lint: allow(unordered-iter): per-entry predicate, erasures commute
    auto wrow = wait_.find(wit->first);
    for (auto pit = wit->second.begin(); pit != wit->second.end();) {  // vedr-lint: allow(unordered-iter): per-entry predicate, erasures commute
      if (pit->second < cutoff) {
        if (wrow != wait_.end()) wrow->second.erase(pit->first);
        pit = wit->second.erase(pit);
      } else {
        ++pit;
      }
    }
    if (wit->second.empty()) {
      if (wrow != wait_.end() && wrow->second.empty()) wait_.erase(wrow);
      wit = wait_last_.erase(wit);
    } else {
      ++wit;
    }
  }
}

inline std::int64_t ReferenceExactStore::state_bytes() const {
  std::int64_t pairs = 0;
  for (const auto& [waiter, row] : wait_)  // vedr-lint: allow(unordered-iter): commutative sum
    pairs += static_cast<std::int64_t>(row.size());
  return static_cast<std::int64_t>(flows_.size()) * StateCosts::kFlowState +
         static_cast<std::int64_t>(in_queue_.size()) * StateCosts::kQueueState +
         pairs * StateCosts::kWaitState;
}

}  // namespace vedr::refimpl
