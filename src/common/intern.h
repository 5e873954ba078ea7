#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace vedr::common {

/// Dense-ID intern table: maps composite keys (FlowKey 5-tuples, PortRef
/// pairs) to u32 ids assigned in first-seen order, so a key is hashed once
/// and every interior structure indexes by id. The diagnosis core shares one
/// table per key type across its graphs (ids never recycled there); each
/// exact telemetry store keeps one per egress port and compacts it when
/// retention drops flows (compact()).
///
/// Open addressing with linear probing over a power-of-two slot table; the
/// slot stores id+1 (0 = empty) and collisions are resolved by comparing the
/// full key, so hash collisions merely lengthen a probe run.
template <typename Key, typename Hash>
class Interner {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Id for `k`, interning it when unseen. Ids are dense: 0, 1, 2, ...
  std::uint32_t intern(const Key& k) {
    if (slots_.empty() || (keys_.size() + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.empty() ? 32 : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = probe(k) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        VEDR_CHECK(keys_.size() < kNone, "intern table overflow");
        keys_.push_back(k);
        slots_[i] = static_cast<std::uint32_t>(keys_.size());  // id + 1
        return static_cast<std::uint32_t>(keys_.size() - 1);
      }
      if (keys_[slots_[i] - 1] == k) return slots_[i] - 1;
    }
  }

  /// Id for `k` when already interned, kNone otherwise. Never inserts.
  std::uint32_t find(const Key& k) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = probe(k) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) return kNone;
      if (keys_[slots_[i] - 1] == k) return slots_[i] - 1;
    }
  }

  const Key& key_of(std::uint32_t id) const { return keys_[id]; }
  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  void reserve(std::size_t n) {
    keys_.reserve(n);
    std::size_t want = 32;
    while (want * 7 / 8 < n) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  /// Drops every id for which `keep(id)` is false and renumbers the
  /// survivors densely, preserving their relative order. On return
  /// `remap[old id]` is the new id, or kNone for a dropped one.
  template <typename Keep>
  void compact(Keep&& keep, std::vector<std::uint32_t>& remap) {
    remap.assign(keys_.size(), kNone);
    std::uint32_t next = 0;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      if (!keep(id)) continue;
      remap[id] = next;
      keys_[next++] = keys_[id];
    }
    keys_.resize(next);
    rehash(slots_.size());
  }

 private:
  /// Finalizes the user hash: PortRefHash is an identity hash over a packed
  /// pair, whose low bits (the port number) would cluster a masked table.
  static std::size_t probe(const Key& k) {
    std::uint64_t x = Hash{}(k);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  void rehash(std::size_t new_cap) {
    slots_.assign(new_cap, 0);
    const std::size_t mask = new_cap - 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t i = probe(keys_[id]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::vector<Key> keys_;            // id -> key
  std::vector<std::uint32_t> slots_; // probe table, id + 1 (0 = empty)
};

}  // namespace vedr::common
