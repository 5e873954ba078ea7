#include "telemetry/exact_store.h"

#include <algorithm>

namespace vedr::telemetry {

void ExactStore::set_resident(std::uint32_t id) {
  flows_[id].resident_pos = static_cast<std::uint32_t>(resident_.size());
  resident_.push_back(id);
}

void ExactStore::clear_resident(std::uint32_t id) {
  const std::uint32_t pos = flows_[id].resident_pos;
  const std::uint32_t moved = resident_.back();
  resident_[pos] = moved;
  flows_[moved].resident_pos = pos;
  resident_.pop_back();
  flows_[id].resident_pos = kNone;
}

void ExactStore::on_enqueue(const FlowKey& flow, std::int64_t bytes, Tick now) {
  const std::uint32_t id = ids_.intern(flow);
  if (id == flows_.size()) flows_.emplace_back();
  Flow& f = flows_[id];
  if (f.fe.pkts == 0) {
    f.fe.flow = flow;
    f.fe.first_seen = now;
    ++num_flows_;
  }
  f.fe.pkts += 1;
  f.fe.bytes += bytes;
  f.fe.last_seen = now;

  // Queue-ahead accounting: every packet of another flow currently queued is
  // a packet this flow's packet waits behind. Each pair's update commutes,
  // so the resident list's order never shows.
  for (const std::uint32_t other : resident_) {
    if (other == id) continue;
    const std::uint64_t next = pairs_.size();
    const std::uint64_t at = pair_index_.insert_or_get(common::pack_u32_pair(id, other), next);
    if (at == next) pairs_.push_back(Pair{id, other, 0, 0});
    Pair& p = pairs_[at];
    p.weight += flows_[other].queued;
    p.last = now;
  }

  if (f.queued < 0) {
    f.queued = 0;
    ++num_queued_;
  }
  if (++f.queued == 1) set_resident(id);
}

void ExactStore::on_dequeue(const FlowKey& flow, std::int64_t bytes) {
  (void)bytes;
  const std::uint32_t id = ids_.find(flow);
  if (id == kNone) return;
  // A drained flow keeps its (zero) queue entry until prune reclaims it.
  Flow& f = flows_[id];
  if (f.queued > 0 && --f.queued == 0) clear_resident(id);
}

void ExactStore::fill_snapshot(PortReport& r, Tick now, Tick since) const {
  (void)now;
  for (const Flow& f : flows_) {
    if (f.fe.pkts > 0 && f.fe.last_seen >= since) r.flows.push_back(f.fe);
  }
  for (const Pair& p : pairs_) {
    if (p.last >= since && p.weight > 0)
      r.waits.push_back(WaitEntry{ids_.key_of(p.waiter), ids_.key_of(p.ahead), p.weight});
  }
  // Ids and pairs follow first-seen order: sort both into the canonical order
  // so a snapshot never depends on it (which would leak into downstream
  // graphs, findings, and the determinism digest).
  std::sort(r.flows.begin(), r.flows.end(),
            [](const FlowEntry& a, const FlowEntry& b) { return a.flow < b.flow; });
  std::sort(r.waits.begin(), r.waits.end(), [](const WaitEntry& a, const WaitEntry& b) {
    if (a.waiter != b.waiter) return a.waiter < b.waiter;
    return a.ahead < b.ahead;
  });
}

void ExactStore::prune(Tick now, Tick retention) {
  const Tick cutoff = now - retention;
  // Only dropped rows and pairs can leave an id unnamed: a flow with a queue
  // entry always has a row, so reclaiming the entry alone frees no id.
  bool dropped = false;
  for (Flow& f : flows_) {
    // Drained queue entries carry no observable state (the queue-ahead loop
    // only walks resident flows), so reclaiming them never changes a snapshot.
    if (f.queued == 0) {
      f.queued = -1;
      --num_queued_;
    }
    // Flow rows idle since before the cutoff fail fill_snapshot's
    // `last_seen >= since` filter for every window starting at or after the
    // cutoff, so dropping them is invisible to those readers. Rows for flows
    // still resident in the queue are kept regardless of age: their counters
    // must keep accumulating if the queue ever drains (e.g. across a long
    // pause).
    if (f.fe.pkts > 0 && f.fe.last_seen < cutoff && f.queued < 0) {
      f.fe = FlowEntry{};
      --num_flows_;
      dropped = true;
    }
  }
  // Wait pairs idle since before the cutoff fail the `last >= since` filter
  // of every snapshot whose window starts at or after the cutoff; dropping
  // them is invisible to those. Full-history (since = 0) readers would see
  // the loss, which is why the default retention sits far beyond any
  // evaluation horizon (NetConfig::telemetry_retention).
  for (const Pair& p : pairs_) {
    if (p.last < cutoff) dropped = true;
  }
  if (!dropped) return;

  // Compact: an id survives while it has a flow row, a queue entry, or a
  // surviving pair names it (a pair can outlive its ahead flow's row).
  std::vector<std::uint8_t> keep(flows_.size(), 0);
  for (std::size_t id = 0; id < flows_.size(); ++id)
    keep[id] = flows_[id].fe.pkts > 0 || flows_[id].queued >= 0;
  for (const Pair& p : pairs_) {
    if (p.last < cutoff) continue;
    keep[p.waiter] = 1;
    keep[p.ahead] = 1;
  }
  std::vector<std::uint32_t> remap;
  ids_.compact([&keep](std::uint32_t id) { return keep[id] != 0; }, remap);
  std::size_t live = 0;
  for (std::size_t id = 0; id < flows_.size(); ++id) {
    if (remap[id] != kNone) flows_[live++] = flows_[id];
  }
  flows_.resize(live);
  for (std::uint32_t& id : resident_) id = remap[id];
  std::size_t kept = 0;
  pair_index_.clear();
  for (const Pair& p : pairs_) {
    if (p.last < cutoff) continue;
    pairs_[kept] = Pair{remap[p.waiter], remap[p.ahead], p.weight, p.last};
    pair_index_.insert_or_get(common::pack_u32_pair(pairs_[kept].waiter, pairs_[kept].ahead),
                              kept);
    ++kept;
  }
  pairs_.resize(kept);
}

}  // namespace vedr::telemetry
