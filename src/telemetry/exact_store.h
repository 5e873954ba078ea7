#pragma once

#include <cstdint>
#include <vector>

#include "common/dense_map.h"
#include "common/intern.h"
#include "telemetry/store.h"

namespace vedr::telemetry {

/// The ground-truth backend: exact per-flow counters plus the full pairwise
/// queue-ahead matrix w(f_i, f_j). State is O(active flows) + O(co-resident
/// flow pairs); prune() bounds "active" to the retention horizon so
/// long-running sessions stop leaking idle-flow entries.
///
/// Flows are interned to dense per-port ids at first enqueue, so the per-hop
/// work is one intern probe plus flat per-id counters; the queue-ahead loop
/// walks only the flows currently resident in the queue, and each
/// (waiter, ahead) pair is one dense record, found through one
/// open-addressing index, holding both its weight and its last update tick
/// (DESIGN.md §13).
class ExactStore final : public TelemetryStore {
 public:
  void on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) override;
  void on_dequeue(const FlowKey& flow, std::int64_t bytes) override;
  void fill_snapshot(PortReport& r, Tick now, Tick since) const override;
  void prune(Tick now, Tick retention) override;
  std::int64_t state_bytes() const override {
    return num_flows_ * StateCosts::kFlowState + num_queued_ * StateCosts::kQueueState +
           static_cast<std::int64_t>(pairs_.size()) * StateCosts::kWaitState;
  }
  TelemetryBackend backend() const override { return TelemetryBackend::kExact; }

  /// Flow ids currently interned: live flows plus flows a live wait pair
  /// still names. prune() compacts the id space back to exactly these.
  std::size_t interned_flows() const { return ids_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Per-id state. A flow row exists iff `fe.pkts > 0` (every row has seen a
  /// packet); a queue entry exists iff `queued >= 0` (drained entries stay at
  /// 0 until prune reclaims them).
  struct Flow {
    FlowEntry fe;
    std::int64_t queued = -1;
    std::uint32_t resident_pos = kNone;  ///< index in resident_ while queued > 0
  };

  /// One queue-ahead pair w(waiter, ahead) with its last update tick.
  struct Pair {
    std::uint32_t waiter = 0;
    std::uint32_t ahead = 0;
    std::int64_t weight = 0;
    Tick last = 0;
  };

  void set_resident(std::uint32_t id);
  void clear_resident(std::uint32_t id);

  common::Interner<FlowKey, net::FlowKeyHash> ids_;
  std::vector<Flow> flows_;              ///< by id
  std::vector<std::uint32_t> resident_;  ///< ids with packets queued now
  std::vector<Pair> pairs_;
  common::DenseMap64 pair_index_;  ///< pack(waiter, ahead) -> index in pairs_
  std::int64_t num_flows_ = 0;   ///< ids with a flow row
  std::int64_t num_queued_ = 0;  ///< ids with a queue entry
};

}  // namespace vedr::telemetry
