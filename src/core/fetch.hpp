// On-demand object movement and caching.
//
// §3.1: "Once the code starts executing, we can then move data on demand
// instead of having to move the entire object" — and §3 promises the
// infrastructure, not the application, owns "caching, prefetching, and
// manual data movement".  The fetcher is that infrastructure:
//
//   client side — pull a remote object's byte image in MTU-sized chunks
//     (chunk_req/chunk_resp), reassemble, adopt it into the local store
//     as a CACHED replica, then let the prefetch policy pull what the
//     new object references.
//   server side — serve chunk requests for resident objects and record
//     each requester in the object's copyset.
//   coherence-lite — when the home observes a write it sends invalidate
//     to the copyset; cachers evict their replica and re-fetch on next
//     use (exactly the re-implemented-at-every-layer pattern §5 wants
//     hoisted into one place).  The replication layer above owns the
//     host's write observer and invalidate handler (epoch fencing
//     first) and calls down into invalidate_copyset / accept_invalidate.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/prefetch.hpp"
#include "net/service.hpp"

namespace objrpc {

using FetchCallback = std::function<void(Status)>;

class ObjectFetcher {
 public:
  /// Per-attempt deadline of a pull.
  static constexpr SimDuration kTimeout = 20 * kMillisecond;
  /// Attempts a pull makes before it fails with a timeout.
  static constexpr int kMaxAttempts = 4;

  explicit ObjectFetcher(ObjNetService& service);

  /// Make `id` locally resident (no-op if it already is).  On success
  /// the object is in the host's store, marked as a cached replica.
  void fetch(ObjectId id, FetchCallback cb);

  /// Is `id` resident here only as a cached replica?
  bool is_cached_replica(ObjectId id) const { return cached_.count(id) != 0; }
  /// Drop a cached replica (local decision; no traffic).
  void evict(ObjectId id);

  void set_prefetcher(std::shared_ptr<Prefetcher> p) {
    prefetcher_ = std::move(p);
  }
  Prefetcher* prefetcher() { return prefetcher_.get(); }

  struct Counters {
    std::uint64_t fetches_started = 0;
    std::uint64_t fetches_completed = 0;
    std::uint64_t fetches_failed = 0;
    std::uint64_t already_local = 0;
    std::uint64_t chunks_requested = 0;
    std::uint64_t chunks_served = 0;
    std::uint64_t bytes_pulled = 0;
    std::uint64_t prefetches_issued = 0;
    std::uint64_t invalidates_sent = 0;
    std::uint64_t invalidates_received = 0;
    std::uint64_t evictions = 0;
    /// Responses ignored by the version guards: stats below the floor a
    /// mid-fetch invalidate raised, or data chunks from a different
    /// image version than the stat locked onto (torn read).
    std::uint64_t stale_rejects = 0;
    /// Pull attempts that timed out against an unresponsive source and
    /// reported it stale before re-resolving (crash rediscovery).
    std::uint64_t timeout_rediscoveries = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Copyset size the home tracks for `id` (tests / introspection).
  std::size_t copyset_size(ObjectId id) const;

  /// Register a holder in `id`'s copyset explicitly (the replication
  /// layer does this when it pushes a replica, so the replica receives
  /// the same invalidations cached copies do).
  void add_copyset_member(ObjectId id, HostAddr member) {
    copysets_[id].insert(member);
  }

  /// Home side: a local write obsoleted `id`'s replicas.  Invalidate
  /// every copyset member (switch caches first), stamped with the home's
  /// `epoch` (0 when the object has never been replicated), and forget
  /// the copyset.
  void invalidate_copyset(ObjectId id, std::uint32_t epoch);

  /// Holder side: apply an invalidate the coherence layer admitted.
  /// Evicts a cached replica, raises the floor of a pull in flight and
  /// restarts it, and acks the sender.
  void accept_invalidate(const Frame& f);

  /// Observation hook for the invariant checker: fires when a completed
  /// pull is adopted into the local store, with the image version the
  /// pull locked onto.  Must not mutate the fetcher.
  using AdoptObserver = std::function<void(ObjectId, std::uint64_t version)>;
  void set_adopt_observer(AdoptObserver o) { adopt_observer_ = std::move(o); }

  /// In-flight introspection (invariant checker / tests).
  std::size_t pending_fetch_count() const { return pending_.size(); }
  /// Pull deadlines, keyed by object.
  const DeadlineTimer<ObjectId>& deadline_timer() const { return timer_; }
  /// Objects with a pull in flight, sorted (deterministic reporting).
  std::vector<ObjectId> pending_objects() const {
    std::vector<ObjectId> ids;
    ids.reserve(pending_.size());
    for (const auto& [id, pf] : pending_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  struct PendingFetch {
    std::vector<FetchCallback> waiters;
    std::uint64_t total_size = 0;
    Bytes buffer;
    std::unordered_set<std::uint64_t> outstanding_chunks;  // offsets
    int attempts = 0;
    /// Guards the attempt's resolve callback: a restart supersedes it.
    std::uint64_t generation = 0;
    HostAddr source = kUnspecifiedHost;
    /// Version of the image this pull locked onto (from the stat reply);
    /// every data chunk must carry the same version or it is torn.
    std::uint64_t version = 0;
    /// Minimum version this fetch may adopt.  An invalidate arriving
    /// mid-fetch raises it past the invalidated version, so an in-flight
    /// chunk_resp can never resurrect the stale replica.
    std::uint64_t version_floor = 0;
    /// Root causal context of this fetch: trace id + root span id.
    /// Every chunk_req carries it, every hop span and the home's serve
    /// events parent under it, and replies echo it back — one fetch is
    /// one span tree (ids minted unconditionally; see obs/trace.hpp).
    obs::TraceContext trace;
  };

  void start(ObjectId id);
  /// The locked-on source went quiet: report it stale and retry.
  void on_deadline(ObjectId id);
  /// Ask pf.source for [offset, offset + length) of `id` (0 bytes: stat).
  void send_chunk_req(ObjectId id, const PendingFetch& pf,
                      std::uint64_t offset, std::uint32_t length);
  void on_chunk_req(const Frame& f);
  void on_chunk_resp(const Frame& f);
  void on_invalidate_ack(const Frame& f);
  void complete(ObjectId id, Status s);
  void run_prefetch(const Object& fetched);

  /// Chunk payload size for pulls.
  static constexpr std::uint32_t kChunkBytes = 1400;

  ObjNetService& service_;
  std::shared_ptr<Prefetcher> prefetcher_ = std::make_shared<NoPrefetcher>();
  std::unordered_map<ObjectId, PendingFetch> pending_;
  std::unordered_set<ObjectId> cached_;
  /// Home-side: who holds cached replicas of our objects.
  std::unordered_map<ObjectId, std::unordered_set<HostAddr>> copysets_;
  std::uint64_t next_seq_ = 1;
  DeadlineTimer<ObjectId> timer_;
  AdoptObserver adopt_observer_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
