// P4-style exact-match match-action tables with a Tofino-like capacity
// model (§3.2).
//
// The paper prototyped identifier routing with Packet Subscriptions
// compiled onto an Intel Tofino and reports the key feasibility numbers:
// with 64-bit ID fields the switch stores ~1.8M exact-match entries, and
// with full 128-bit IDs ~850K.  We model the table as fixed SRAM-slot
// budget consumed per entry, calibrated so those two published points are
// reproduced exactly (see `tofino_exact_capacity`); CLAIM-SWITCH sweeps
// the model.
#pragma once

#include <cstdint>
#include <optional>

#include "common/flat_table.hpp"
#include "common/result.hpp"
#include "common/u128.hpp"
#include "sim/packet.hpp"

namespace objrpc {

/// What a matched (or defaulted) entry does with a frame.
enum class ActionKind : std::uint8_t {
  forward,  // emit on a specific port
  flood,    // emit on every port except the ingress
  drop,
  punt,  // send to the control plane port
};

struct Action {
  ActionKind kind = ActionKind::drop;
  PortId port = kInvalidPort;  // for forward

  static Action forward_to(PortId p) { return {ActionKind::forward, p}; }
  static Action flood() { return {ActionKind::flood, kInvalidPort}; }
  static Action drop() { return {ActionKind::drop, kInvalidPort}; }
  static Action punt() { return {ActionKind::punt, kInvalidPort}; }

  friend bool operator==(const Action&, const Action&) = default;
};

/// Entry capacity of a Tofino-like exact-match stage for a given key
/// width, under a fixed SRAM budget.  Calibrated to the paper's reported
/// points: 64-bit keys -> 1,800,000 entries; 128-bit keys -> 850,000
/// (multi-slot entries pack into hash ways ~5.6% less efficiently).
std::uint64_t tofino_exact_capacity(std::uint32_t key_bits);

/// An exact-match table over U128 keys with bounded capacity.
class MatchActionTable {
 public:
  /// `capacity == 0` derives capacity from `tofino_exact_capacity(key_bits)`.
  explicit MatchActionTable(std::uint32_t key_bits = 128,
                            std::uint64_t capacity = 0);

  std::uint32_t key_bits() const { return key_bits_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }

  /// Insert or update.  Fails with `capacity_exceeded` when full (updates
  /// to existing keys always succeed).
  Status insert(const U128& key, Action action);
  Status erase(const U128& key);
  /// Lookup; also bumps hit/miss counters (data-plane path).
  std::optional<Action> lookup(const U128& key);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t key_bits_;
  std::uint64_t capacity_;
  /// Open addressing (common/flat_table.hpp): the per-frame lookup is
  /// the dataplane's hottest map, and a miss must stay one cache line.
  FlatHashMap<U128, Action> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace objrpc
