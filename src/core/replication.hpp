// Read replication with write-through and epoch-fenced failover (§5,
// Limitations and Challenges).
//
// "Masking failures via replication gives rise to concerns about
// consistency" — this layer implements the pragmatic point in that
// space the paper gestures at: objects keep ONE writable home, but the
// home can push byte-exact READ replicas to other hosts.  Replicas:
//
//   * answer broadcast discovery (E2E scheme), so readers reach the
//     nearest copy;
//   * redirect writes to the home (write-through), preserving a single
//     write order;
//   * are registered in the home's copyset, so a write invalidates them
//     exactly like cached copies — readers re-discover and the system
//     re-replicates if asked.
//
// Failover (Farsite-style epoch fencing): every home carries an epoch,
// starting at 1 and stamped into each replica push.  The FIRST replica
// pushed is the designated successor.  When a replica's write-through
// bounce goes unanswered it probes the home (epoch_probe); if the probe
// times out the designated successor promotes itself — it becomes the
// writable home under epoch+1, invalidates its sibling replicas (they
// still point writes at the corpse) and re-advertises.  Under the
// controller scheme the controller's liveness feed short-circuits the
// suspicion: it sends promote_req straight to the designated replica.
// A crashed home that comes back keeps its (durable) store but starts
// RECOVERING: it serves nothing and probes its old members; a reply
// carrying a higher epoch demotes it (store entry dropped — the
// promoted lineage owns history now), while silence for
// kRecoveryTimeout means no promotion happened and it resumes.
// Stale-epoch invalidates from a not-yet-recovered old home are
// rejected and answered with an epoch_reply fence.
//
// Everything rides the primitives the object space already has: replica
// installation is a byte copy over the reliable channel, and coherence
// is the fetcher's invalidation protocol.
#pragma once

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/fetch.hpp"

namespace objrpc {

class ReplicaManager {
 public:
  /// How long a liveness probe to the home may go unanswered before the
  /// prober declares it dead (designated replica: promotes itself).
  static constexpr SimDuration kProbeTimeout = 5 * kMillisecond;
  /// How long a revived home waits for a higher-epoch fence from its old
  /// members before resuming authority.
  static constexpr SimDuration kRecoveryTimeout = 10 * kMillisecond;

  ReplicaManager(ObjNetService& service, ObjectFetcher& fetcher);

  /// Called on the HOME host: push a read replica of `id` to `dst`.
  /// Completes when the replica host has installed it.  The first
  /// replica pushed (since the last invalidation) is the designated
  /// failover successor.
  void replicate(ObjectId id, HostAddr dst,
                 std::function<void(Status)> cb);

  /// Is `id` held here as a read replica?
  bool is_replica(ObjectId id) const { return primaries_.count(id) != 0; }
  /// The home host of a replica held here.
  Result<HostAddr> primary_of(ObjectId id) const;
  std::size_t replica_count() const { return primaries_.size(); }

  /// Is `id` homed here (writable authority, possibly after promotion)?
  bool is_home(ObjectId id) const { return homes_.count(id) != 0; }
  /// The current epoch of an object homed here (0 = not homed here).
  std::uint32_t home_epoch(ObjectId id) const {
    auto it = homes_.find(id);
    return it == homes_.end() ? 0 : it->second.epoch;
  }
  /// Is this host a replica designated to take over `id` on home death?
  bool is_designated(ObjectId id) const {
    auto it = primaries_.find(id);
    return it != primaries_.end() && it->second.designated;
  }
  /// Is a revived home still quarantined for `id`?
  bool is_recovering(ObjectId id) const {
    return recovery_timer_.armed(id);
  }

  /// Promote the local replica of `id` to writable home under a bumped
  /// epoch.  Normally triggered by probe timeout (E2E) or promote_req
  /// (controller); public for tests and manual failover.
  void promote(ObjectId id);

  /// Lifecycle events surfaced to the invariant checker.
  enum class Event : std::uint8_t { promoted, demoted, resumed };
  using EventObserver =
      std::function<void(Event, ObjectId, std::uint32_t epoch)>;
  void set_event_observer(EventObserver o) { event_observer_ = std::move(o); }

  /// In-flight / at-rest introspection (invariant checker / tests).
  std::size_t probing_count() const { return probe_timer_.armed_count(); }
  /// Home-liveness probe deadlines, keyed by object.
  const DeadlineTimer<ObjectId>& probe_timer() const { return probe_timer_; }
  /// Objects homed here, sorted (deterministic reporting).
  std::vector<ObjectId> homed_objects() const {
    std::vector<ObjectId> ids;
    ids.reserve(homes_.size());
    for (const auto& [id, info] : homes_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  struct Counters {
    std::uint64_t replicas_pushed = 0;
    std::uint64_t replicas_installed = 0;
    std::uint64_t writes_redirected = 0;
    std::uint64_t replicas_invalidated = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t promotions = 0;
    /// Revived homes that learned of a higher epoch and stepped down.
    std::uint64_t demotions = 0;
    /// Recoveries that finished with authority resumed (no promotion
    /// had happened while the home was down).
    std::uint64_t recoveries_resumed = 0;
    /// Stale-epoch invalidates bounced by the invalidate admission.
    std::uint64_t stale_epoch_rejects = 0;
    /// Replicas dropped because their home vanished and this host was
    /// not the designated successor.
    std::uint64_t replicas_dropped = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  /// Replica-side knowledge about an object held as a replica.
  struct ReplicaInfo {
    HostAddr home = kUnspecifiedHost;
    std::uint32_t epoch = 1;
    bool designated = false;
    /// Fellow replica holders at push time (kept current on the
    /// designated replica via member_update).
    std::vector<HostAddr> siblings;
  };
  /// Home-side replication state for an object homed here.
  struct HomeInfo {
    std::uint32_t epoch = 1;
    /// Replicas pushed and still live (front = designated successor).
    std::vector<HostAddr> members;
  };

  /// The host's write observer: invalidate the copyset under the home
  /// epoch, then reset the replica membership.
  void on_local_write(ObjectId id);
  /// The service's write redirector: a replica points writers at its
  /// home (and suspects the home while doing so).
  std::optional<HostAddr> redirect_write(ObjectId id);
  /// The host's invalidate handler: admit by epoch (or fence the stale
  /// sender), drop a read replica, then let the fetcher evict and ack.
  void on_invalidate(const Frame& f);
  void on_replica_message(ObjectId object, Bytes payload);
  void on_member_update(HostAddr src, ObjectId object, Bytes payload);
  void on_epoch_probe(const Frame& f);
  void on_epoch_reply(const Frame& f);
  void on_promote_req(const Frame& f);
  /// A write bounced off this replica toward `home`; verify the home is
  /// still breathing, and take over (designated) or step aside if not.
  void suspect_home(ObjectId id);
  /// The probe went unanswered: the designated replica promotes itself,
  /// any other replica steps aside.
  void on_probe_timeout(ObjectId id);
  /// Step down as home for `id`: a higher epoch owns history now.
  void demote(ObjectId id, std::uint32_t seen_epoch);
  /// Revival recovery: quarantine every homed object that had replicas
  /// out and probe the old members for a higher epoch.
  void on_revival();
  /// No higher epoch surfaced while recovering: resume serving `id`.
  void on_recovery_timeout(ObjectId id);
  void send_epoch_reply(HostAddr dst, ObjectId id, std::uint32_t epoch,
                        HostAddr believed_home);

  ObjNetService& service_;
  ObjectFetcher& fetcher_;
  /// Replica side: object -> home/epoch/successor knowledge.
  std::unordered_map<ObjectId, ReplicaInfo> primaries_;
  /// Home side: object -> epoch + pushed replica membership.
  std::unordered_map<ObjectId, HomeInfo> homes_;
  /// Sibling lists that arrived (member_update) before the replica
  /// image itself finished installing.
  std::unordered_map<ObjectId, std::vector<HostAddr>> pending_siblings_;
  /// Home-liveness probes in flight, by object.
  DeadlineTimer<ObjectId> probe_timer_;
  /// Revived-home quarantine: recoveries in flight, by object.
  DeadlineTimer<ObjectId> recovery_timer_;
  EventObserver event_observer_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
