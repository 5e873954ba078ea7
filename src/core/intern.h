#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/intern.h"
#include "net/types.h"

namespace vedr::core {

/// The analyzer's intern tables: dense ids shared across every per-step
/// provenance graph, the global graph, and the contributor-rating pass. Ids
/// are never recycled here — they survive Analyzer::reset() so warmed
/// buffers stay valid across cases.
using common::Interner;

using FlowInterner = Interner<net::FlowKey, net::FlowKeyHash>;
using PortInterner = Interner<net::PortRef, net::PortRefHash>;

/// The shared tables threaded through the diagnosis core. Owned by the
/// Analyzer; standalone graphs (tests, ad-hoc tooling) own a private copy.
struct InternTables {
  FlowInterner flows;
  PortInterner ports;
};

/// Membership test for "is this a collective-communication flow" resolved to
/// a dense bit per interned flow id. Keys that never reached the intern
/// tables (e.g. the reversed ACK direction of a dropped flow) fall back to
/// the original key set, preserving exact set semantics.
class FlowIdSet {
 public:
  void build(const FlowInterner& interner,
             const std::unordered_set<net::FlowKey, net::FlowKeyHash>& keys) {
    keys_ = &keys;
    bits_.assign(interner.size(), 0);
    for (const net::FlowKey& k : keys) {  // vedr-lint: allow(unordered-iter): sets idempotent bits; order-insensitive
      const std::uint32_t id = interner.find(k);
      if (id != FlowInterner::kNone) bits_[id] = 1;
    }
  }

  bool contains(std::uint32_t flow_id) const {
    return flow_id < bits_.size() && bits_[flow_id] != 0;
  }
  bool contains_key(const net::FlowKey& k) const {
    return keys_ != nullptr && keys_->count(k) > 0;
  }

 private:
  const std::unordered_set<net::FlowKey, net::FlowKeyHash>* keys_ = nullptr;
  std::vector<std::uint8_t> bits_;
};

}  // namespace vedr::core
