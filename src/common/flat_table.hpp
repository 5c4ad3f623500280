// Open-addressing hash containers for the frame path.
//
// std::unordered_map costs one pointer chase per node plus a heap
// allocation per insert; on the simulator's per-frame lookups (switch
// forwarding tables, reliable-channel reassembly, pending-access
// tokens) that dominates the match itself.  FlatHashMap keeps slots in
// one contiguous array with linear probing, a power-of-two capacity,
// and backward-shift deletion (no tombstones), so a hit costs one
// hash, one mask, and on average ~1 probe over cache-resident memory.
//
// Contracts (identical to the unordered_map they replace):
//   - iteration order is UNSPECIFIED and hash/layout dependent — any
//     iteration feeding wire output must go through a sorted view, the
//     same rule fablint's `hash-fanout` enforces for unordered_map;
//   - pointers/references/iterators into the table are invalidated by
//     insert (rehash) and erase (backshift) — look up again after
//     mutating, exactly as the call sites already do via tokens/keys;
//   - K and V must be default-constructible and movable (slots are
//     stored by value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace objrpc {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    full_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow until n fits under the 7/8 load ceiling.
    while (cap * 7 < n * 8) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  V* find(const K& key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const V* find(const K& key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  bool contains(const K& key) const { return find_index(key) != kNpos; }

  /// Insert-or-find, unordered_map::try_emplace style: returns the
  /// value slot and whether it was newly inserted.
  std::pair<V*, bool> try_emplace(const K& key, V value = V{}) {
    grow_if_needed();
    std::size_t i = probe_start(key);
    while (full_[i]) {
      if (eq_(slots_[i].key, key)) return {&slots_[i].value, false};
      i = (i + 1) & mask();
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    full_[i] = 1;
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Insert-or-assign; returns true when the key was new.
  bool insert_or_assign(const K& key, V value) {
    auto [slot, inserted] = try_emplace(key);
    *slot = std::move(value);
    return inserted;
  }

  bool erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return false;
    erase_at(i);
    return true;
  }

  /// Visit every entry as (const K&, V&).  Order is hash order —
  /// callers feeding wire output must collect and sort.
  template <typename F>
  void for_each(F&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Collect every key (for erase-while-iterating patterns: backshift
  /// deletion moves entries, so erase via keys collected up front).
  std::vector<K> keys() const {
    std::vector<K> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (full_[i]) out.push_back(slots_[i].key);
    }
    return out;
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }

  /// Finalizing mix so power-of-two masking survives weak std::hash
  /// (libstdc++'s integer hash is the identity).
  std::size_t probe_start(const K& key) const {
    std::uint64_t x = static_cast<std::uint64_t>(hash_(key));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x) & mask();
  }

  std::size_t find_index(const K& key) const {
    if (size_ == 0) return kNpos;
    std::size_t i = probe_start(key);
    while (full_[i]) {
      if (eq_(slots_[i].key, key)) return i;
      i = (i + 1) & mask();
    }
    return kNpos;
  }

  std::size_t probe_distance(std::size_t home, std::size_t pos) const {
    return (pos - home) & mask();
  }

  void erase_at(std::size_t hole) {
    // Backward-shift deletion: scan the contiguous run after the hole
    // and pull back the first element allowed to occupy it, repeating
    // until the run ends.  An element may move to the hole only if its
    // home is cyclically at or before the hole — i.e. its displacement
    // covers the distance — otherwise it would land BEFORE its probe
    // path and become unreachable; such elements are skipped, not a
    // stopping point (a movable element may well follow them).
    std::size_t next = (hole + 1) & mask();
    while (full_[next]) {
      const std::size_t home = probe_start(slots_[next].key);
      if (probe_distance(home, next) >= probe_distance(hole, next)) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask();
    }
    slots_[hole] = Slot{};  // release the entry's owned memory
    full_[hole] = 0;
    --size_;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    slots_.clear();
    slots_.resize(new_cap);  // resize, not assign: V need not be copyable
    full_.assign(new_cap, 0);
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_full[i]) continue;
      std::size_t j = probe_start(old_slots[i].key);
      while (full_[j]) j = (j + 1) & mask();
      slots_[j] = std::move(old_slots[i]);
      full_[j] = 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> full_;
  std::size_t size_ = 0;
  Hash hash_{};
  Eq eq_{};
};

/// Open-addressing set over the same machinery.
template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// Returns true when the key was newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  bool contains(const K& key) const { return map_.contains(key); }
  std::size_t count(const K& key) const { return map_.contains(key) ? 1 : 0; }
  bool erase(const K& key) { return map_.erase(key); }

  std::vector<K> keys() const { return map_.keys(); }

 private:
  FlatHashMap<K, std::uint8_t, Hash, Eq> map_;
};

}  // namespace objrpc
