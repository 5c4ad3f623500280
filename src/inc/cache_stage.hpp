// The in-network object cache (INC): switches that serve object reads.
//
// Once the fabric routes on data identity (§3.2), a switch is no longer
// just a forwarder — it sits on every read path and can answer the hot
// ones itself.  An IncCacheStage attaches to a SwitchNode and composes
// with its match-action program through the pre-match hook (the same
// composition `SyncOffload` uses for atomics): chunk_req frames for
// object images the switch holds in SRAM are answered in the pipeline,
// cutting the read path from a host round-trip to a hop round-trip.
//
// Three disciplines keep this honest:
//
//   admission — SRAM is the pipeline's scarcest resource, so only keys
//     seen >= K times inside a sliding window (HotKeyTracker) are
//     admitted, only if their byte image fits the per-switch budget, and
//     colder entries LRU-evict to make room.
//
//   coherence — the cache agent has a protocol address
//     (`inc_cache_addr`) and fills by issuing its own chunk_reqs, which
//     enrolls it in the home's copyset like any other cacher.  The home
//     invalidates switches BEFORE host replicas; the switch drops its
//     entry, forwards the invalidate to every client it served (the home
//     never saw those reads), and acks.  Served-reader obligations
//     survive LRU eviction and privilege revocation.
//
//   versioning — every entry records the image's mutation counter, every
//     invalidate raises a per-object floor, and fills below the floor
//     are rejected.  A fill response that left the home before a write
//     can therefore never resurrect the pre-write image, and a stale
//     switch can never serve an old version it was told to drop.
//
// The privilege itself is controller-managed: ControllerNode installs
// routes to the cache agent and sends ctrl_cache_grant / _revoke frames
// in-band (or tests call grant()/revoke() directly under the E2E
// scheme).
#pragma once

#include <algorithm>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inc/hotkey.hpp"
#include "net/objnet.hpp"
#include "sim/switch_node.hpp"

namespace objrpc {

class IncCacheStage {
 public:
  /// Attach to `sw`; composes with the switch's existing pre-match hook
  /// (the base program runs first, then the cache).
  explicit IncCacheStage(SwitchNode& sw);

  /// Protocol address of this switch's cache agent.
  HostAddr addr() const { return inc_cache_addr(switch_.id()); }

  /// Management plane.  Usually exercised in-band by the controller
  /// (ctrl_cache_grant / ctrl_cache_revoke); direct calls serve the E2E
  /// scheme and tests.  revoke() drops every entry but keeps coherence
  /// obligations: invalidates for already-served readers still forward.
  void grant(CacheGrant grant);
  void revoke();
  bool enabled() const { return grant_.has_value(); }
  const std::optional<CacheGrant>& privilege() const { return grant_; }

  bool contains(ObjectId id) const { return entries_.count(id) != 0; }
  std::optional<std::uint64_t> entry_version(ObjectId id) const;
  std::size_t entry_count() const { return entries_.size(); }
  std::uint64_t bytes_cached() const { return bytes_cached_; }

  struct Counters {
    std::uint64_t admissions = 0;
    std::uint64_t hits = 0;    // chunk_reqs answered from SRAM
    std::uint64_t misses = 0;  // chunk_reqs seen without an entry
    std::uint64_t invalidations = 0;
    std::uint64_t invalidates_forwarded = 0;  // to served readers
    std::uint64_t evictions = 0;              // LRU + revoke drops
    std::uint64_t stale_rejects = 0;  // fills below the version floor
    std::uint64_t fills_started = 0;
    std::uint64_t fills_aborted = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Observation hook for the invariant checker: fires when a fill is
  /// admitted into SRAM, with the image version it carried.  Must not
  /// mutate the stage.
  using AdmitObserver = std::function<void(ObjectId, std::uint64_t version)>;
  void set_admit_observer(AdmitObserver o) { admit_observer_ = std::move(o); }

  /// Fills in flight (invariant checker: a fill left pending at quiesce
  /// is stuck — nothing will ever complete or abort it).
  std::size_t pending_fill_count() const { return fills_.size(); }
  /// Objects with a fill in flight, sorted (deterministic reporting).
  std::vector<ObjectId> pending_fill_objects() const {
    std::vector<ObjectId> ids;
    ids.reserve(fills_.size());
    for (const auto& [id, fill] : fills_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  struct Entry {
    Bytes image;
    std::uint64_t version = 0;
    std::list<ObjectId>::iterator lru_pos;
  };
  struct Fill {
    std::uint64_t stat_seq = 0;
    std::uint64_t data_seq = 0;
    std::uint64_t size = 0;
    bool data_requested = false;
  };

  bool handle(SwitchNode& sw, PortId in_port, const Packet& pkt);
  /// chunk_req addressed to the cache agent itself (a requester that
  /// locked onto us after a served stat): answer or say not-here.
  void on_direct_req(const Frame& req, PortId in_port);
  void serve(const Frame& req, PortId in_port, Entry& entry);
  void maybe_start_fill(const Frame& req, PortId in_port);
  void on_fill_resp(const Frame& f, PortId in_port);
  void on_invalidate(const Frame& f, PortId in_port);
  void admit(ObjectId id, Bytes image, std::uint64_t version);
  void drop_entry(ObjectId id);
  void abort_fill(ObjectId id);

  /// SRAM charged per entry beyond the image itself (key, version,
  /// valid bit, bookkeeping) — models the match + register stage cost.
  static constexpr std::uint64_t kEntryOverheadBytes = 64;
  static std::uint64_t entry_cost(std::uint64_t image_bytes) {
    return image_bytes + kEntryOverheadBytes;
  }
  std::uint64_t floor_of(ObjectId id) const {
    auto it = floors_.find(id);
    return it == floors_.end() ? 0 : it->second;
  }
  void raise_floor(ObjectId id, std::uint64_t version);

  SwitchNode& switch_;
  SwitchNode::PreMatchHook next_hook_;
  std::optional<CacheGrant> grant_;
  HotKeyTracker hotkeys_;
  std::unordered_map<ObjectId, Entry> entries_;
  std::list<ObjectId> lru_;  // front = most recently used
  std::unordered_map<ObjectId, Fill> fills_;
  /// Minimum admissible version per object (raised by invalidates).
  std::unordered_map<ObjectId, std::uint64_t> floors_;
  /// Clients served from SRAM, per object: the coherence obligation the
  /// home does not know about.  Outlives the entry (eviction / revoke).
  std::unordered_map<ObjectId, std::unordered_set<HostAddr>> readers_;
  std::uint64_t bytes_cached_ = 0;
  std::uint64_t next_seq_ = 1;
  AdmitObserver admit_observer_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
