// The simulated network fabric: nodes, links, delivery, statistics.
//
// This is the Mininet substitute (DESIGN.md §7): a graph of nodes joined
// by full-duplex links with propagation delay, finite bandwidth, optional
// drop-tail queues, and optional loss.  All behaviour is deterministic in
// the seed — and independent of the shard count (DESIGN.md §16): every
// id a frame carries (frame, trace and span ids) is minted per source
// node, the loss RNG is per direction, and delivery is keyed by the
// canonical event order, so a 1-shard and an 8-shard run produce
// byte-identical wire traffic and the same frame ids.  The per-lane
// state (traffic counters, digest sums, handoffs, payload pool,
// observer journal) has one lane per shard plus the control lane.  A
// delivery to another shard's node sent inside a concurrent epoch is
// the same stamped event a direct insert would schedule; it waits in
// the sending lane's handoff vector until the barrier lands it
// (merge_epoch_logs).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/exec_lane.hpp"
#include "common/flat_table.hpp"
#include "common/per_lane.hpp"
#include "common/pool.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/shard_profiler.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/packet.hpp"

namespace objrpc {

class Network;
class ShardRunner;
struct ShardPlan;

/// Base class for anything attached to the fabric (hosts, switches,
/// controllers).  Subclasses react to frames in `on_packet` (or in
/// `receive`, if they have a receive residence) and emit frames with
/// `send`.
class NetworkNode {
 public:
  NetworkNode(Network& net, NodeId id, std::string name)
      : net_(net), id_(id), name_(std::move(name)) {}
  virtual ~NetworkNode() = default;
  NetworkNode(const NetworkNode&) = delete;
  NetworkNode& operator=(const NetworkNode&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t port_count() const;

  /// Fixed receive residence: the time between a frame's arrival and
  /// this node acting on it (a switch's pipeline, a host's software
  /// stack).  The network folds it into the delivery event: receive()
  /// runs once, at arrival + residence (DESIGN.md §7).  Read once, when
  /// a link to this node is connected.
  virtual SimDuration receive_residence() const { return 0; }

  /// Called by the network at `arrived` + receive_residence(), after
  /// the delivery's liveness check, stats, digest and taps, all of
  /// which are judged at `arrived`.  Default: on_packet.
  virtual void receive(PortId in_port, Packet pkt, SimTime arrived) {
    (void)arrived;
    on_packet(in_port, std::move(pkt));
  }

  /// A frame arriving now.  For nodes with no residence this is the
  /// network's delivery callback; nodes with one get it only for a
  /// frame handed straight to them, and receive() it at once.
  virtual void on_packet(PortId in_port, Packet pkt) = 0;

  /// Called by the network when this node crashes or revives (see
  /// Network::set_node_up).  Default: no reaction.
  virtual void on_node_state_change(bool up) { (void)up; }

 protected:
  /// Transmit out of `port`.  Frames to unconnected ports are dropped.
  HOT_PATH void send(PortId port, Packet pkt);
  Network& net() { return net_; }
  const Network& net() const { return net_; }
  EventLoop& loop();

 private:
  Network& net_;
  NodeId id_;
  std::string name_;
};

/// Aggregate traffic counters, exposed per network and per link.
struct TrafficStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_loss = 0;
  std::uint64_t frames_dropped_ttl = 0;
  std::uint64_t frames_dropped_down = 0;
  /// Frames dropped because an endpoint node was crashed (fail-stop).
  std::uint64_t frames_dropped_dead = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

/// The fabric: owns the event loop, the nodes, and the links.
class Network {
 public:
  explicit Network(std::uint64_t seed);
  ~Network();

  EventLoop& loop() { return loop_; }
  SimTime now() const { return loop_.now(); }
  /// Setup-time randomness (workload forks, table salts, topology
  /// shuffles).  Nothing draws from it per frame: the only runtime
  /// consumer — the loss draw — forks one substream per link direction
  /// at connect time, so draw order is per-direction frame order and
  /// therefore shard-count-independent.
  Rng& rng() { return rng_; }

  /// The simulation-wide metrics registry (src/obs): every component
  /// attached to this fabric registers its counters here.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The causal tracer (src/obs).  Id allocation is always live (the
  /// wire carries trace/span ids whether or not anyone records them);
  /// span recording is armed explicitly (OBS_TRACE_FILE / cluster
  /// config) and is purely passive.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Construct a node of type T in place.  T's constructor must take
  /// (Network&, NodeId, ...) — the id is assigned here.
  template <typename T, typename... Args>
  CROSS_SHARD T& add_node(Args&&... args) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    auto node = std::make_unique<T>(*this, id, std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    ports_.emplace_back();
    node_up_.push_back(true);
    node_flips_.emplace_back();
    loop_.register_source(id);
    tracer_.set_process_name(id, ref.name());
    return ref;
  }

  /// Join two nodes with a full-duplex link; each side gains one port.
  /// Rejects self-links and a second link between the same node pair
  /// (which would silently shadow the first in every forwarding table
  /// built from peer identities).  Returns {port on a, port on b}.
  Result<std::pair<PortId, PortId>> try_connect(NodeId a, NodeId b,
                                                LinkParams params = {});
  /// try_connect for topology code that has already validated the pair;
  /// aborts on a rejected link rather than returning the error.
  std::pair<PortId, PortId> connect(NodeId a, NodeId b,
                                    LinkParams params = {});

  NetworkNode& node(NodeId id) { return *nodes_.at(id); }
  const NetworkNode& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t port_count(NodeId id) const { return ports_.at(id).size(); }

  /// The node on the far side of (node, port); kInvalidNode if unbound.
  NodeId peer_of(NodeId id, PortId port) const;

  /// Shaping parameters of the outgoing direction at (node, port) — the
  /// egress fair-queueing scheduler paces dequeues at the link rate.
  const LinkParams& link_params(NodeId id, PortId port) const {
    return ports_.at(id).at(port).params;
  }

  /// Fail or restore both directions of the link at (node, port).
  /// Frames sent into a down link are dropped (and counted); frames
  /// already in flight still arrive (they left before the cut).
  /// CROSS_SHARD: a link's two directions live on both endpoints, which
  /// the sharded loop may place in different subtrees; transitions run
  /// on the control lane with the shards parked.
  CROSS_SHARD void set_link_up(NodeId id, PortId port, bool up);
  bool link_up(NodeId id, PortId port) const;

  /// Fail-stop crash / revival of a whole node.  While down, every frame
  /// the node emits is dropped at its NIC and every frame addressed to it
  /// is dropped on arrival (even ones already in flight — a dead host
  /// receives nothing).  Node memory (stores, protocol state) survives,
  /// modelling a durable object store: revival is a reboot, not a wipe.
  /// Transitions invoke NetworkNode::on_node_state_change and the
  /// observer (the management plane's failure detector).  Control-plane
  /// only: under strict mode (CHECK_INVARIANTS=1) calling this from a
  /// node callback aborts — route fault schedules through
  /// schedule_crash/schedule_revive, which run on the control lane.
  CROSS_SHARD void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return node_up_.at(id); }

  /// Deterministic fault schedule: crash / revive `id` at absolute
  /// simulated time `at` (a control-lane event in every mode).
  void schedule_crash(NodeId id, SimTime at);
  void schedule_revive(NodeId id, SimTime at);

  /// Schedule `fn` to run AS node `id` at time `at`: on id's shard, in
  /// id's lane, stamped from id's seq counter.  Callable from setup or
  /// control-lane code.  Open-loop load injection uses this instead of
  /// loop().schedule_at so a parallel run's control lane stays empty
  /// (every control event is a fleet-wide barrier).
  void schedule_on(NodeId id, SimTime at, EventLoop::Callback&& fn) {
    loop_.schedule_on_source(id, at, std::move(fn));
  }

  /// Management-plane hook: sees every node up/down transition (the SDN
  /// controller registers here; the simulator plays the role of its
  /// out-of-band liveness feed).
  using NodeObserver = std::function<void(NodeId, bool up)>;
  void set_node_observer(NodeObserver obs) { node_observer_ = std::move(obs); }

  /// Enqueue a frame for transmission (called via NetworkNode::send).
  /// HOT_PATH: one call per frame per hop.  CROSS_SHARD: the delivery
  /// lands on the destination's shard — same-shard (or serialized) as a
  /// direct wheel insert, cross-shard in a concurrent epoch through
  /// hand_off.
  HOT_PATH CROSS_SHARD void transmit(NodeId from, PortId port, Packet pkt);

  /// Recycled payload buffers (DESIGN.md §14).  The fabric releases the
  /// payload of every frame it drops; nodes that copy or retire frames
  /// (switch floods, sinks) acquire/release here so steady-state frame
  /// traffic stops touching the allocator.
  BufferPool& payload_pool() { return payload_pool_; }

  /// Lane-merged traffic counters (by value; the lanes are written
  /// concurrently in parallel runs, so read at quiesce or barriers).
  TrafficStats stats() const {
    TrafficStats s;
    for (const Lane& lane : lanes_) {
      const TrafficStats& l = lane.stats;
      s.frames_sent += l.frames_sent;
      s.frames_delivered += l.frames_delivered;
      s.frames_dropped_queue += l.frames_dropped_queue;
      s.frames_dropped_loss += l.frames_dropped_loss;
      s.frames_dropped_ttl += l.frames_dropped_ttl;
      s.frames_dropped_down += l.frames_dropped_down;
      s.frames_dropped_dead += l.frames_dropped_dead;
      s.bytes_sent += l.bytes_sent;
      s.bytes_delivered += l.bytes_delivered;
    }
    return s;
  }

  /// Observation taps: each sees every delivered frame, in registration
  /// order; they must not mutate the simulation.  Under the concurrent
  /// driver taps run at barrier replay in canonical order
  /// (observer_journal() below), so attaching one never serializes the
  /// run.
  using PacketTap =
      std::function<void(NodeId from, NodeId to, const Packet&)>;
  void add_tap(PacketTap tap) { taps_.push_back(std::move(tap)); }

  // --- sharding (DESIGN.md §16) --------------------------------------

  /// Partition the fabric per `plan` (see sim/shard.hpp).  Reconfigures
  /// the event loop's wheels, gives every SHARD_LANED structure one lane
  /// per shard plus the control lane (size_lanes), and (for >1 shard)
  /// spins up the parallel runner.  Setup-time only, at most once.
  /// Returns the shard count actually applied (1 if the plan was
  /// rejected, e.g. zero-latency cross-shard links).
  ///
  /// Observers — taps (the invariant checker attaches as one), the node
  /// observer, an armed tracer — never stop the runner: they see
  /// fabric-global event order via the observer journal, which defers
  /// their callbacks during an epoch and replays them at the barrier in
  /// canonical key order (DESIGN.md §17).  OBJRPC_SHARDS_SERIAL=1 is the
  /// one kill switch: the partition and its laned state stay, no
  /// runner (and no worker thread) is built, and the loop's key-merge
  /// runs every window on the calling thread.
  std::uint32_t enable_sharding(const ShardPlan& plan);
  /// enable_sharding from the OBJRPC_SHARDS environment toggle, using
  /// the generic switch-group planner.  No-op (returns 1) when unset.
  std::uint32_t maybe_shard_from_env();
  std::uint32_t shard_count() const { return loop_.shard_count(); }
  /// The parallel runner: null with one shard or under the kill switch.
  ShardRunner* runner() { return runner_.get(); }

  /// The shard-safe observer plane (DESIGN.md §17): concurrent epochs
  /// journal observer callbacks per lane; the coordinator replays them
  /// in canonical order at each barrier.  Components with their own
  /// observer hooks (the invariant checker) route through here.
  obs::ShardJournal& observer_journal() { return journal_; }

  /// Host-time profiler for the parallel driver (arm before
  /// enable_sharding, or via OBJRPC_SHARD_PROFILE=1).  Metrics land
  /// under `shard/*`; the trace export gains host-time lane tracks.
  obs::ShardProfiler& shard_profiler() { return shard_profiler_; }
  void arm_shard_profiler() { shard_profile_requested_ = true; }

  /// Runs at the end of every BSP barrier (workers parked, journals
  /// replayed, clocks merged) — the safe point for mid-run snapshots of
  /// SHARD_LANED state (MetricsRegistry::snapshot, stats()).
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Arm the wire digest: a hash over every delivery (time, endpoints,
  /// size, full payload bytes), keyed by its place in the canonical
  /// event order (DESIGN.md §11).  This is the simulator's one
  /// determinism witness: the shard tests, the bench sweep and
  /// tools/determinism_audit compare it across runs and shard counts.
  /// The invariant checker arms it and folds its own facts in through
  /// fold_digest().
  void arm_wire_digest() { wire_digest_armed_ = true; }
  bool wire_digest_armed() const { return wire_digest_armed_; }
  /// Fold one fact (a delivery hash, a scheduler decision, a quiesce
  /// count) into the wire digest: add its hash, keyed by the executing
  /// event's canonical key and the fact's position within that event,
  /// into the executing lane's sum.  The sum does not depend on which
  /// lane folds what, nor in which order.  Arm the digest first.
  HOT_PATH CROSS_SHARD void fold_digest(std::uint64_t h);
  /// Digest and number of facts folded (deliveries plus observer
  /// facts) so far: the lanes' sums.  Read with the workers parked (at
  /// quiesce or a barrier).
  std::uint64_t wire_digest() const { return digest_total().sum; }
  std::uint64_t wire_digest_events() const { return digest_total().count; }

 private:
  friend class ShardRunner;

  struct Direction {
    NodeId dst = kInvalidNode;
    PortId dst_port = kInvalidPort;
    /// dst's receive_residence(): a delivery executes this long after
    /// the frame arrives.
    SimDuration dst_residence = 0;
    LinkParams params;
    /// Time the transmitter is busy until (models serialization delay).
    SimTime busy_until = 0;
    /// Bytes currently queued awaiting transmission (running sum over
    /// `inflight` entries that have not yet reached their arrive time).
    std::uint64_t queued_bytes = 0;
    /// Administrative / failure state.
    bool up = true;
    /// Per-direction loss substream, forked from the fabric seed and
    /// the endpoint pair at connect time.  Draw order is frame order on
    /// this direction — shard-count-independent by construction.
    Rng loss_rng{0};
    /// FIFO of (arrive time, wire size) for frames occupying the queue;
    /// head index advances lazily (see prune_inflight).  Replaces the
    /// old per-frame decrement EVENT, which would have been a write to
    /// the sender's state from the receiver's shard.
    std::vector<std::pair<SimTime, std::uint32_t>> inflight;
    std::size_t inflight_head = 0;
    /// Cumulative wire bytes ever sent into this direction.  The tracer
    /// samples this (not the lane-merged global total, which would
    /// depend on worker interleaving and shard count) so armed
    /// concurrent traces are byte-identical to serial ones.
    std::uint64_t bytes_sent_total = 0;
    /// Cached tracer counter-track names (built on first armed sample;
    /// avoids two string constructions per frame).
    std::string txq_track, link_track;
  };

  /// Drop inflight entries whose frames have fully arrived by `now`,
  /// releasing their bytes from the drop-tail budget.  Exactly the old
  /// decrement-at-arrive semantics, evaluated lazily at the next send.
  HOT_PATH void prune_inflight(Direction& dir, SimTime now) {
    auto& q = dir.inflight;
    std::size_t h = dir.inflight_head;
    while (h < q.size() && q[h].first <= now) {
      dir.queued_bytes -= q[h].second;
      ++h;
    }
    dir.inflight_head = h;
    if (h == q.size()) {
      q.clear();
      dir.inflight_head = 0;
    } else if (h > 64 && h * 2 > q.size()) {
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(h));
      dir.inflight_head = 0;
    }
  }

  /// Execute a delivery (receiver context, at `arrived` + dst's
  /// residence): liveness check, stats, digest fold and taps, all as of
  /// `arrived`; then receive().
  HOT_PATH void deliver_now(NodeId from, NodeId dst, PortId dst_port,
                            SimTime arrived, Packet&& pkt);
  /// Was `id` up at time `t` (<= now)?  node_up_ is the state now; each
  /// transition after `t` flips it back.
  bool node_up_at(NodeId id, SimTime t) const {
    bool up = node_up_[id];
    if (last_flip_at_ <= t) return up;  // nothing has moved since `t`
    const std::vector<SimTime>& flips = node_flips_[id];
    for (auto it = flips.rbegin(); it != flips.rend() && *it > t; ++it) {
      up = !up;
    }
    return up;
  }
  /// Hash one delivery (arrived at `arrived`) and fold it through
  /// fold_digest.
  HOT_PATH void fold_wire_digest(NodeId from, NodeId dst, SimTime arrived,
                                 const Packet& pkt);
  /// Park a cross-shard delivery sent inside a concurrent epoch, under
  /// the routed key its sender stamped, in the executing lane's handoff
  /// vector.  Out of line so transmit's direct-insert path stays tight.
  HOT_PATH CROSS_SHARD MAY_ALLOC void hand_off(const EventKey& key,
                                               NodeId dst,
                                               EventLoop::Callback&& fn);
  /// Barrier work, runner-only (workers parked): land every lane's
  /// handoffs with their stamped keys, then replay the observer journal
  /// in canonical key order.  Returns the number of handoffs landed.
  std::uint64_t merge_epoch_logs();
  /// Give every SHARD_LANED structure (lanes_, the payload pool, the
  /// observer journal) one lane per shard plus the control lane: the
  /// one place a lane count is set.  Setup-time only.
  void size_lanes();
  TrafficStats& lane_stats() { return lanes_.local().stats; }

  // Shard affinity (DESIGN.md §15/§16): `ports_`/`nodes_` rows belong
  // to the shard that owns the node; SHARD_LANED members are replicated
  // per execution lane; the remaining CROSS_SHARD members are written
  // only on the control lane with the shards parked.
  EventLoop loop_;
  /// Setup-time randomness only (see rng()).
  Rng rng_;
  obs::MetricsRegistry metrics_;
  /// Mints frame, trace and span ids per source node; recording is
  /// armed-only and defers through the observer journal in concurrent
  /// runs (DESIGN.md §17).
  obs::Tracer tracer_;
  /// Per-lane deferred observer records, replayed at barriers.
  obs::ShardJournal journal_;
  obs::ShardProfiler shard_profiler_;
  bool shard_profile_requested_ = false;
  std::function<void()> barrier_hook_;
  std::vector<std::unique_ptr<NetworkNode>> nodes_;
  /// ports_[node][port] -> outgoing direction state.
  std::vector<std::vector<Direction>> ports_;
  /// Connected node pairs (canonical lo<<32|hi), for duplicate-link
  /// rejection in try_connect.
  FlatHashSet<std::uint64_t> adjacency_;
  /// Laned free lists with explicit cross-shard return (common/pool.hpp).
  BufferPool payload_pool_;
  /// Per-node liveness (fail-stop crash state).  CROSS_SHARD: written by
  /// the fault schedule on the control lane (shards parked), read at
  /// delivery on the receiver's shard.
  CROSS_SHARD std::vector<bool> node_up_;
  /// Per-node transition times, ascending (same writer and readers as
  /// node_up_).  A delivery executes up to one residence after its
  /// frame arrived; node_up_at replays these to judge it at arrival.
  CROSS_SHARD std::vector<std::vector<SimTime>> node_flips_;
  /// The latest of all node_flips_ (-1: none yet).
  CROSS_SHARD SimTime last_flip_at_ = -1;
  std::vector<PacketTap> taps_;
  NodeObserver node_observer_;

  /// Wire digest share: the sum of the keyed hashes of the facts
  /// folded, and their count.  The digest is the sum over lanes.
  struct DigestSum {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
  };
  /// One execution lane's state.  Only the thread running the lane
  /// touches it during an epoch (lanes_.local()); stats(), the digest
  /// and the barrier read across lanes with the workers parked.
  struct Lane {
    TrafficStats stats;
    DigestSum digest;
    /// Cross-shard deliveries of the current epoch, each with the
    /// routed key its sender stamped and its receiver as exec_src.
    /// Unordered and growable: the key, not the append order, decides
    /// execution order, so the vector needs no bound.
    std::vector<KeyedEvent> handoff;
  };
  SHARD_LANED PerLane<Lane> lanes_;
  DigestSum digest_total() const {
    DigestSum t;
    for (const Lane& lane : lanes_) {
      t.sum += lane.digest.sum;
      t.count += lane.digest.count;
    }
    return t;
  }
  bool wire_digest_armed_ = false;
  /// Position of the next fact folded outside any event.  Only the
  /// coordinator folds there (quiesce, control-lane code), workers
  /// parked.
  CROSS_SHARD std::uint64_t outside_event_folds_ = 0;

  std::unique_ptr<ShardRunner> runner_;
};

}  // namespace objrpc
