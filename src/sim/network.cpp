#include "sim/network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "sim/shard.hpp"

namespace objrpc {

namespace {

/// Canonical unordered-pair key for the adjacency set.
std::uint64_t pair_key(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

constexpr std::uint64_t kWireDigestSeed = 0x9E3779B97F4A7C15ull;

/// A wire-digest fact's place in the canonical order: the executing
/// event's key and the fact's position `idx` within that event.  Each
/// part gets its own mix64 step, so no two parts can cancel each other
/// out.
std::uint64_t key_hash(const EventKey& key, std::uint64_t idx) {
  std::uint64_t k =
      mix64(kWireDigestSeed ^ static_cast<std::uint64_t>(key.at));
  k = mix64(k ^ key.a);
  k = mix64(k ^ key.b);
  return mix64(k ^ idx);
}

}  // namespace

Network::Network(std::uint64_t seed) : rng_(seed) {
  // Observer plane (DESIGN.md §17): records journaled during a
  // concurrent epoch are stamped with the executing event's delivery
  // time and canonical key, and replayed in key order at the barrier.
  journal_.set_stamp([this] { return loop_.event_key(); });
  size_lanes();
  tracer_.bind_journal(&journal_);
  metrics_.add_source("net/frames_sent",
                      [this] { return stats().frames_sent; });
  metrics_.add_source("net/frames_delivered",
                      [this] { return stats().frames_delivered; });
  metrics_.add_source("net/frames_dropped_queue",
                      [this] { return stats().frames_dropped_queue; });
  metrics_.add_source("net/frames_dropped_loss",
                      [this] { return stats().frames_dropped_loss; });
  metrics_.add_source("net/frames_dropped_ttl",
                      [this] { return stats().frames_dropped_ttl; });
  metrics_.add_source("net/frames_dropped_down",
                      [this] { return stats().frames_dropped_down; });
  metrics_.add_source("net/frames_dropped_dead",
                      [this] { return stats().frames_dropped_dead; });
  metrics_.add_source("net/bytes_sent", [this] { return stats().bytes_sent; });
  metrics_.add_source("net/bytes_delivered",
                      [this] { return stats().bytes_delivered; });
  metrics_.add_source("simcore/clamped_past_schedules",
                      [this] { return loop_.clamped_past_schedules(); });
  metrics_.add_source("simcore/pool_fresh",
                      [this] { return payload_pool_.stats().fresh; });
  metrics_.add_source("simcore/pool_reused",
                      [this] { return payload_pool_.stats().reused; });
}

Network::~Network() = default;

std::size_t NetworkNode::port_count() const { return net_.port_count(id_); }

void NetworkNode::send(PortId port, Packet pkt) {
  net_.transmit(id_, port, std::move(pkt));
}

EventLoop& NetworkNode::loop() { return net_.loop(); }

Result<std::pair<PortId, PortId>> Network::try_connect(NodeId a, NodeId b,
                                                       LinkParams params) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Error(Errc::not_found,
                 "connect: node " + std::to_string(a >= nodes_.size() ? a : b) +
                     " does not exist");
  }
  if (a == b) {
    return Error(Errc::invalid_argument,
                 "connect: self-link on node " + std::to_string(a) + " (" +
                     nodes_[a]->name() + ")");
  }
  if (!adjacency_.insert(pair_key(a, b))) {
    return Error(Errc::invalid_argument,
                 "connect: duplicate link " + nodes_[a]->name() + " <-> " +
                     nodes_[b]->name());
  }
  const auto port_a = static_cast<PortId>(ports_[a].size());
  const auto port_b = static_cast<PortId>(ports_[b].size());
  Direction fwd;
  fwd.dst = b;
  fwd.dst_port = port_b;
  fwd.dst_residence = nodes_[b]->receive_residence();
  fwd.params = params;
  Direction rev;
  rev.dst = a;
  rev.dst_port = port_a;
  rev.dst_residence = nodes_[a]->receive_residence();
  rev.params = params;
  // Per-direction loss substreams: forked (not drawn) from the fabric
  // seed, labelled by the canonical pair plus the side, so each
  // direction owns an independent deterministic stream regardless of
  // connect order or shard count.
  fwd.loss_rng = rng_.fork(pair_key(a, b) * 2 + (a < b ? 0 : 1));
  rev.loss_rng = rng_.fork(pair_key(a, b) * 2 + (a < b ? 1 : 0));
  ports_[a].push_back(std::move(fwd));
  ports_[b].push_back(std::move(rev));
  return std::pair<PortId, PortId>{port_a, port_b};
}

std::pair<PortId, PortId> Network::connect(NodeId a, NodeId b,
                                           LinkParams params) {
  auto r = try_connect(a, b, params);
  if (!r) {
    std::fprintf(stderr, "Network::connect: %s\n",
                 r.error().to_string().c_str());
    std::abort();
  }
  return *r;
}

NodeId Network::peer_of(NodeId id, PortId port) const {
  const auto& plist = ports_.at(id);
  if (port >= plist.size()) return kInvalidNode;
  return plist[port].dst;
}

void Network::set_link_up(NodeId id, PortId port, bool up) {
  auto& dir = ports_.at(id).at(port);
  dir.up = up;
  // The reverse direction lives on the peer.
  if (dir.dst != kInvalidNode) {
    ports_.at(dir.dst).at(dir.dst_port).up = up;
  }
}

bool Network::link_up(NodeId id, PortId port) const {
  return ports_.at(id).at(port).up;
}

void Network::set_node_up(NodeId id, bool up) {
  if (!loop_.in_control_context() && loop_.strict_past_schedules()) {
    std::fprintf(stderr,
                 "Network::set_node_up(%u): called from a node callback; "
                 "crash/revive is control-plane only — use schedule_crash/"
                 "schedule_revive\n",
                 id);
    std::abort();
  }
  if (node_up_.at(id) == up) return;
  node_up_[id] = up;
  last_flip_at_ = loop_.now();
  node_flips_[id].push_back(last_flip_at_);
  Log::debug("net", "%s: node %s", nodes_[id]->name().c_str(),
             up ? "revived" : "crashed");
  // The node's own reaction (timers it arms, frames it emits) executes
  // AS the node: its wheel, its lane, its seq counter — so the reaction
  // is stamped identically in every mode.
  loop_.with_source(id, [&] { nodes_[id]->on_node_state_change(up); });
  if (node_observer_) {
    // Control-lane transitions run inline; a transition inside a
    // concurrent epoch (non-strict runs only) defers to barrier replay
    // so the observer sees canonical order.
    journal_.run_or_defer([this, id, up] { node_observer_(id, up); });
  }
}

void Network::schedule_crash(NodeId id, SimTime at) {
  loop_.schedule_at(at, [this, id] { set_node_up(id, false); });
}

void Network::schedule_revive(NodeId id, SimTime at) {
  loop_.schedule_at(at, [this, id] { set_node_up(id, true); });
}

void Network::transmit(NodeId from, PortId port, Packet pkt) {
  auto& plist = ports_.at(from);
  if (port >= plist.size()) {
    Log::warn("net", "%s: send on unbound port %u",
              nodes_[from]->name().c_str(), port);
    payload_pool_.release(std::move(pkt.data));
    return;
  }
  Direction& dir = plist[port];
  if (!node_up_.at(from)) {
    // A dead node's NIC emits nothing (timers queued before the crash
    // may still fire in its software; their frames die here).
    ++lane_stats().frames_dropped_dead;
    payload_pool_.release(std::move(pkt.data));
    return;
  }
  if (!dir.up) {
    ++lane_stats().frames_dropped_down;
    payload_pool_.release(std::move(pkt.data));
    return;
  }
  if (pkt.frame_id == 0) {
    // First transmit of this emission; copies (switch forwarding,
    // floods) keep the id so duplicate suppression can recognise them.
    pkt.frame_id = tracer_.new_frame_id(from);
  }
  if (pkt.trace_id == 0) {
    // Untraced frame: mint a fresh causal id so per-hop spans of one
    // frame still correlate.  Protocol layers that carry a TraceContext
    // stamp trace_id before the send and skip this.  Minted from the
    // tracer's allocator (under the sending node's slot) so these ids
    // can never collide with a trace some operation is recording spans
    // against.
    pkt.trace_id = tracer_.new_trace_id(from);
  }
  const SimTime send_now = loop_.now();
  if (pkt.hops >= Packet::kMaxHops) {
    ++lane_stats().frames_dropped_ttl;
    payload_pool_.release(std::move(pkt.data));
    return;
  }

  const std::uint64_t size = pkt.wire_size();
  TrafficStats& st = lane_stats();
  ++st.frames_sent;
  st.bytes_sent += size;
  dir.bytes_sent_total += size;

  // Drop-tail queue: bound the bytes waiting for the transmitter.
  // Frames that have reached their arrive time have left the queue;
  // settle them first (the old design did this with one event per
  // frame, which on the receiver's shard would be a cross-shard write).
  prune_inflight(dir, send_now);
  if (dir.params.queue_bytes != 0 &&
      dir.queued_bytes + size > dir.params.queue_bytes) {
    ++st.frames_dropped_queue;
    payload_pool_.release(std::move(pkt.data));
    return;
  }

  // Serialization: the transmitter sends one frame at a time.
  const auto tx_ns = static_cast<SimDuration>(
      static_cast<double>(size) * 8.0 / dir.params.bandwidth_bps * 1e9);
  const SimTime start = std::max(send_now, dir.busy_until);
  const SimTime done = start + std::max<SimDuration>(tx_ns, 1);
  dir.busy_until = done;
  const SimTime arrive = done + dir.params.latency;
  dir.queued_bytes += size;
  dir.inflight.emplace_back(arrive, static_cast<std::uint32_t>(size));

  // Random loss is decided at enqueue from the DIRECTION's substream,
  // so the draw order is this direction's frame order in every mode.
  const bool lost =
      dir.params.loss_rate > 0.0 && dir.loss_rng.next_bool(dir.params.loss_rate);

  const NodeId dst = dir.dst;
  const PortId dst_port = dir.dst_port;
  // One event per receive hop: the delivery executes at the end of dst's
  // fixed residence, keyed under the arrival time (DESIGN.md §7).
  const SimTime at = arrive + dir.dst_residence;
  if (tracer_.armed()) {
    // Passive per-hop attribution: time spent waiting for the
    // transmitter vs. serialization + propagation, plus the link's
    // queue-depth gauge.  Recording only — nothing here feeds back
    // into the simulation.  In a concurrent run the tracer defers
    // these through the observer journal; everything sampled here is
    // sender-shard state, so the values are identical in every mode.
    if (dir.txq_track.empty()) {
      dir.txq_track = "txq_bytes:p" + std::to_string(port);
      dir.link_track = "link_bytes:p" + std::to_string(port);
    }
    if (start > send_now) {
      tracer_.leaf_span(pkt.trace_id, pkt.span_parent, from, "queue",
                        send_now, start);
    }
    tracer_.leaf_span(pkt.trace_id, pkt.span_parent, from, "wire", start,
                      arrive);
    tracer_.counter(from, dir.txq_track, send_now,
                    static_cast<double>(dir.queued_bytes));
    tracer_.counter(from, dir.link_track, send_now,
                    static_cast<double>(dir.bytes_sent_total));
  }
  if (lost) {
    // The frame still consumed its transmitter slot and queue bytes
    // (accounted above, released when its arrive time passes); only the
    // delivery disappears.
    ++st.frames_dropped_loss;
    payload_pool_.release(std::move(pkt.data));
    return;
  }
  auto deliver = [this, from, dst, dst_port, arrive,
                  pkt = std::move(pkt)]() mutable {
    deliver_now(from, dst, dst_port, arrive, std::move(pkt));
  };
  // Stamped by the sender, keyed under the arrival, executed as dst.
  const EventKey key = loop_.routed_key(at, arrive);
  if (journal_.deferring() && loop_.shard_of_source(dst) != ExecLane::idx) {
    // Concurrent epoch and the destination lives on another shard: park
    // the delivery until the barrier (the lookahead bound guarantees
    // that is early enough).
    hand_off(key, dst, std::move(deliver));
    return;
  }
  loop_.land(key, dst, std::move(deliver));
}

[[gnu::noinline]] void Network::hand_off(const EventKey& key, NodeId dst,
                                         EventLoop::Callback&& fn) {
  lanes_.local().handoff.emplace_back(key, dst, std::move(fn));
}

void Network::deliver_now(NodeId from, NodeId dst, PortId dst_port,
                          SimTime arrived, Packet&& pkt) {
  if (!node_up_at(dst, arrived)) {
    // The destination was down when the frame arrived.
    ++lane_stats().frames_dropped_dead;
    payload_pool_.release(std::move(pkt.data));
    return;
  }
  TrafficStats& st = lane_stats();
  ++st.frames_delivered;
  st.bytes_delivered += pkt.wire_size();
  ++pkt.hops;
  if (wire_digest_armed_) fold_wire_digest(from, dst, arrived, pkt);
  if (!taps_.empty()) {
    // Taps read now() as the arrival time, inline or at replay.
    if (journal_.deferring()) {
      // Concurrent epoch: taps replay at the barrier in canonical
      // order, against a pooled copy of the frame (the receiver is
      // about to consume the original).
      Packet copy = pkt.header_copy();
      copy.data = payload_pool_.copy_of(pkt.data);
      journal_.defer(SmallFn(
          [this, from, dst, arrived, copy = std::move(copy)]() mutable {
            loop_.at_time(arrived, [&] {
              for (auto& t : taps_) t(from, dst, copy);
            });
            payload_pool_.release(std::move(copy.data));
          }));
    } else {
      loop_.at_time(arrived, [&] {
        for (auto& t : taps_) t(from, dst, pkt);
      });
    }
  }
  nodes_[dst]->receive(dst_port, std::move(pkt), arrived);
}

void Network::fold_wire_digest(NodeId from, NodeId dst, SimTime arrived,
                               const Packet& pkt) {
  std::uint64_t h = kWireDigestSeed;
  h = mix64(h ^ static_cast<std::uint64_t>(arrived));
  h = mix64(h ^ ((static_cast<std::uint64_t>(from) << 32) | dst));
  h = mix64(h ^ pkt.wire_size());
  h = mix64(h ^ ((static_cast<std::uint64_t>(pkt.tenant) << 32) | pkt.hops));
  // Full payload bytes: 8-byte words plus tail, so any payload
  // divergence — not just size — breaks the digest.  Words take the
  // cheap multiply-rotate step; the finalizer below does the avalanche.
  const Bytes& d = pkt.data;
  std::size_t i = 0;
  for (; i + 8 <= d.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(d[i + b]) << (8 * b);
    }
    h = fold_word(h, w);
  }
  std::uint64_t tail = 0;
  for (std::size_t b = 0; i + b < d.size(); ++b) {
    tail |= static_cast<std::uint64_t>(d[i + b]) << (8 * b);
  }
  fold_digest(mix64(h ^ tail ^ (static_cast<std::uint64_t>(d.size()) << 48)));
}

void Network::fold_digest(std::uint64_t h) {
  // A multiset hash (DESIGN.md §11): the digest is the sum of one keyed
  // hash per fact, so it is the same whichever lane folds a fact and in
  // whatever order the lanes run.  Outside any event (key b is 0 only
  // there) the fact's position counts the coordinator's out-of-event
  // folds instead.
  const EventKey key = loop_.event_key();
  const std::uint64_t idx = key.b != 0 ? EventLoop::next_in_event()
                                       : outside_event_folds_++;
  DigestSum& digest = lanes_.local().digest;
  digest.sum += mix64(h ^ key_hash(key, idx));
  ++digest.count;
}

std::uint64_t Network::merge_epoch_logs() {
  // Land the epoch's cross-shard deliveries first (only shard lanes
  // park any: the control lane runs no epoch work).  Landing order
  // across lanes is irrelevant: the stamped key decides execution
  // order.  A key behind dst's wheel clock can only mean the horizon
  // exceeded the lookahead proof; the wheel aborts on it under strict
  // mode ("lookahead violation").
  std::uint64_t landed = 0;
  for (std::uint32_t lane = 0; lane < loop_.shard_count(); ++lane) {
    std::vector<KeyedEvent>& parked = lanes_[lane].handoff;
    shard_profiler_.sample_handoffs(lane, parked.size());
    for (KeyedEvent& h : parked) {
      loop_.land(h.key, h.exec_src, std::move(h.fn));
    }
    landed += parked.size();
    parked.clear();
  }
  shard_profiler_.end_land();
  if (!journal_.empty()) {
    // Replay on the coordinator thread disguised as the control lane:
    // observers read now() as each record's delivery time, and pooled
    // payload copies released by tap records land on the control
    // lane's free list (an explicit cross-shard return, see
    // common/pool.hpp).
    EventLoop::ObserverReplayScope scope(loop_);
    journal_.replay([&scope](SimTime at) { scope.advance(at); });
  }
  shard_profiler_.end_replay();
  return landed;
}

std::uint32_t Network::enable_sharding(const ShardPlan& plan) {
  std::uint32_t shards = plan.shards;
  if (shards < 1) shards = 1;
  if (shards > 1 && plan.lookahead < 1) {
    Log::warn("net",
              "shard plan rejected: cross-shard lookahead %lld < 1ns "
              "(zero-latency cross-shard link); running single-shard",
              static_cast<long long>(plan.lookahead));
    shards = 1;
  }
  if (shards > 1 && plan.shard_of.size() < nodes_.size()) {
    Log::warn("net",
              "shard plan rejected: covers %zu of %zu nodes; running "
              "single-shard",
              plan.shard_of.size(), nodes_.size());
    shards = 1;
  }
  loop_.configure_shards(shards, plan.shard_of);
  // The tracer's ids (frame, trace, span) are per source node, so they
  // need nothing here.  The lanes only grow, and every laned sum (the
  // counters, the digest) reads the same over more lanes.
  size_lanes();
  loop_.set_parallel_driver(nullptr);
  runner_.reset();
  if (shards > 1) {
    if (!env_truthy("OBJRPC_SHARDS_SERIAL")) {
      runner_ = std::make_unique<ShardRunner>(*this, plan.lookahead, shards);
      loop_.set_parallel_driver(runner_.get());
    }
    if (shard_profile_requested_ || env_truthy("OBJRPC_SHARD_PROFILE")) {
      shard_profiler_.arm(metrics_, shards);
      metrics_.add_source("shard/epochs", [this] {
        return runner_ != nullptr ? runner_->epochs() : 0;
      });
      metrics_.add_source("shard/cross_frames", [this] {
        return runner_ != nullptr ? runner_->cross_frames() : 0;
      });
      tracer_.set_aux_chrome_source(
          [this] { return shard_profiler_.chrome_events(); });
    }
  }
  return shards;
}

void Network::size_lanes() {
  const std::uint32_t lanes = loop_.shard_count() + 1;  // + control lane
  lanes_.configure(lanes);
  payload_pool_.configure_lanes(lanes);
  journal_.configure_lanes(lanes);
}

std::uint32_t Network::maybe_shard_from_env() {
  const char* v = std::getenv("OBJRPC_SHARDS");
  if (v == nullptr || v[0] == '\0') return 1;
  const long n = std::strtol(v, nullptr, 10);
  if (n <= 1) return 1;
  auto plan = ShardPlan::by_switch_groups(*this, static_cast<std::uint32_t>(n));
  return enable_sharding(plan);
}

}  // namespace objrpc
