// ObjNetService: the host-side object networking runtime.
//
// Binds a host's object store to the wire: it answers memory operations
// (read/write) for resident objects, answers broadcast discovery, moves
// whole objects over the reliable channel, and issues outbound accesses
// addressed through a pluggable discovery strategy.  The figure
// experiments drive exactly this service.
#pragma once

#include <functional>
#include <memory>
#include <variant>

#include "common/flat_table.hpp"
#include "net/discovery.hpp"
#include "net/host_node.hpp"
#include "net/reliable.hpp"

namespace objrpc {

/// Per-access accounting surfaced to callers (and to the figure benches:
/// `rtts` and `used_broadcast` are the series the paper plots).
struct AccessStats {
  int rtts = 0;
  int nacks = 0;
  int attempts = 0;
  bool used_broadcast = false;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  SimDuration elapsed() const { return finished_at - started_at; }
};

struct AccessOptions {
  int max_attempts = 4;
  SimDuration timeout = 20 * kMillisecond;
  /// Tenant tag stamped on every frame this access emits (0 =
  /// infrastructure / untagged).  Responders echo the requester's tag,
  /// so both legs of the operation are attributed — and fair-queued —
  /// to the tenant that caused them (DESIGN.md §13).
  std::uint32_t tenant = 0;
};

using ReadCallback =
    std::function<void(Result<Bytes>, const AccessStats&)>;
using WriteAckCallback = std::function<void(Status, const AccessStats&)>;
using MoveCallback = std::function<void(Status)>;
using AtomicCallback =
    std::function<void(Result<AtomicResponse>, const AccessStats&)>;

class ObjNetService {
 public:
  ObjNetService(HostNode& host, std::unique_ptr<DiscoveryStrategy> discovery,
                ReliableConfig reliable_cfg = {});

  HostNode& host() { return host_; }
  DiscoveryStrategy& discovery() { return *discovery_; }
  ReliableChannel& reliable() { return reliable_; }

  /// Create a local object and announce it (advertise / none, scheme-
  /// dependent).
  Result<ObjectPtr> create_object(std::uint64_t size);
  /// Create with a caller-chosen id (tests need stable ids).
  Result<ObjectPtr> create_object_with_id(ObjectId id, std::uint64_t size);

  /// Read `length` bytes at `ptr` from wherever the object lives.
  void read(GlobalPtr ptr, std::uint32_t length, ReadCallback cb,
            AccessOptions opts = {});
  /// Write bytes at `ptr` on the object's home host.
  void write(GlobalPtr ptr, Bytes data, WriteAckCallback cb,
             AccessOptions opts = {});

  /// Atomic fetch-and-add on the u64 word at `ptr` (executed at the
  /// home, or intercepted in-network by a sync-offload switch — §5's
  /// "offloading some synchronization and arbitration concerns to the
  /// programmable network").  Yields the previous value.
  void atomic_fetch_add(GlobalPtr ptr, std::uint64_t delta,
                        AtomicCallback cb, AccessOptions opts = {});
  /// Atomic compare-and-swap on the u64 word at `ptr`.
  void atomic_cas(GlobalPtr ptr, std::uint64_t expected,
                  std::uint64_t desired, AtomicCallback cb,
                  AccessOptions opts = {});

  /// Ship the whole object to `dst` (byte-level copy over the reliable
  /// channel); the local replica is dropped once the move completes.
  void move_object(ObjectId id, HostAddr dst, MoveCallback cb);

  /// Authority predicate: does this host hold `id` as its HOME (not as
  /// a cached replica)?  Only authoritative holders answer broadcast
  /// discovery and accept writes — otherwise a cache holder could be
  /// discovered and mutated, splitting the object's history.  Installed
  /// by the replication layer; defaults to "any resident object".
  using AuthorityFilter = std::function<bool(ObjectId)>;
  void set_authority_filter(AuthorityFilter f) {
    authority_filter_ = std::move(f);
  }
  bool is_authoritative(ObjectId id) const {
    return host_.store().contains(id) &&
           (!authority_filter_ || authority_filter_(id));
  }

  /// Redirect for writes that land on a non-home holder (e.g. a read
  /// replica): maps the object to the host that should take the write.
  /// Checked before the authority NACK; the holder NACKs the request
  /// `moved` with that host as the hint, and the requester retries
  /// there.
  using WriteRedirector = std::function<std::optional<HostAddr>(ObjectId)>;
  void set_write_redirector(WriteRedirector r) {
    write_redirector_ = std::move(r);
  }

  /// Observer fired whenever a write or atomic mutates a local object:
  /// the coherence layer invalidates remote replicas here.
  using WriteObserver = std::function<void(ObjectId)>;
  void set_write_observer(WriteObserver o) { write_observer_ = std::move(o); }

  /// Gate on serving remote reads, chunk pulls and the local read fast
  /// path: the replication layer denies while a revived home is still
  /// verifying it was not deposed, so possibly-stale bytes are never
  /// surfaced.
  using ReadGuard = std::function<bool(ObjectId)>;
  void set_read_guard(ReadGuard g) { read_guard_ = std::move(g); }
  bool may_serve_read(ObjectId id) const {
    return !read_guard_ || read_guard_(id);
  }

  // fablint:allow(raw-counter) read via counters() by tests and perfbench
  struct Counters {
    std::uint64_t reads_served = 0;
    std::uint64_t writes_served = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t discover_replies_sent = 0;
    std::uint64_t objects_adopted = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t atomics_issued = 0;
    std::uint64_t atomics_served = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Outstanding read/write/atomic accesses (invariant checker: a
  /// non-empty count at quiesce means an access got stuck with no timer
  /// left to finish it).
  std::size_t pending_access_count() const { return pending_.size(); }
  /// Attempt deadlines, keyed by access token.
  const DeadlineTimer<std::uint64_t>& deadline_timer() const { return timer_; }

 private:
  /// One outstanding access, from begin to finish.  The starters fill
  /// it with designated initializers; every field they may omit has a
  /// default member initializer (-Wmissing-field-initializers).
  struct Pending {
    MsgType kind;  // read_req, write_req, or atomic_req
    GlobalPtr ptr;
    std::uint32_t length = 0;
    Bytes data{};  // for writes; encoded AtomicRequest for atomics
    /// The caller's callback; its alternative matches `kind`.
    std::variant<ReadCallback, WriteAckCallback, AtomicCallback> cb;
    AccessOptions opts;
    AccessStats stats{};
    /// Where the last attempt was sent; a timeout reports it stale so
    /// discovery stops steering retries at a dead host.
    HostAddr last_dst = kUnspecifiedHost;
  };

  /// Start an access: assign its token, stamp its start, make the
  /// first attempt.
  void begin(Pending p);
  /// Make the next attempt (local fast path or discovery + send), or
  /// finish with a timeout once the attempts are spent.
  void start_attempt(std::uint64_t token);
  /// Complete an access: the one place a caller's callback fires.  On
  /// success `result` holds the response payload: a read's bytes, a
  /// write's (ignored) payload, an atomic's encoded AtomicResponse.
  void finish(std::uint64_t token, Result<Bytes> result);
  /// An attempt's deadline passed: retry, or give up (start_attempt).
  void on_deadline(std::uint64_t token);

  /// What `serve` answers: the response payload, or the error to
  /// report.  `home` names the home when the error is `moved`.
  struct Served {
    Result<Bytes> result;
    HostAddr home = kUnspecifiedHost;
  };
  /// The one access step, for remote requests and the local fast path
  /// alike: apply a read, write or atomic (`kind` is its request type)
  /// to `object` as this host holds it.  Answers `not_found` when the
  /// object is not held here or this host may not serve the access (the
  /// read guard denies, a mutation lacks authority), `moved` when a
  /// replica redirects a mutation to the home, and otherwise the
  /// object's own error or the response payload.
  Served serve(MsgType kind, ObjectId object, std::uint64_t offset,
               std::uint32_t length, ByteSpan payload);

  // Inbound handlers.
  /// A read_req, write_req or atomic_req: serve it, then reply or NACK.
  void on_access_req(const Frame& f);
  void on_response(const Frame& f);
  void on_nack(const Frame& f);
  void on_discover_req(const Frame& f);
  void on_object_adopt(ObjectId object, Bytes payload);
  void send_nack(const Frame& cause, Errc code,
                 HostAddr hint = kUnspecifiedHost);

  void notify_write(ObjectId id) {
    if (write_observer_) write_observer_(id);
  }

  HostNode& host_;
  std::unique_ptr<DiscoveryStrategy> discovery_;
  ReliableChannel reliable_;
  WriteObserver write_observer_;
  ReadGuard read_guard_;
  AuthorityFilter authority_filter_;
  WriteRedirector write_redirector_;
  /// Token-keyed lookups only (never iterated): open addressing keeps
  /// the per-response completion path allocation- and chase-free.
  FlatHashMap<std::uint64_t, Pending> pending_;
  std::uint64_t next_token_ = 1;
  DeadlineTimer<std::uint64_t> timer_;
  Counters counters_;
};

}  // namespace objrpc
