#include "sim/shard.hpp"

#include <algorithm>

#include "common/exec_lane.hpp"
#include "common/log.hpp"
#include "sim/network.hpp"

namespace objrpc {

namespace {

/// A multi-shard window runs on the workers only when the previous one
/// executed at least this many events; smaller windows cost less run
/// serially on the coordinator than one worker round.  Measured on a
/// 4-vCPU VM (perfbench, objmix-4shard-armed with every multi-shard
/// window on the workers): a round costs ~12 us of coordinator time
/// (barrier wait p50 9.1 us, drain 3.2 us mean) for windows whose ~9
/// events take a lane 1.1 us.  Host ops/s is flat from 16 to 256 on
/// both objmix-4shard-armed and fabric-forward; at 8 and below the
/// object workload loses 39-86 %, at 4096 and above fabric-forward
/// loses 17-42 % (DESIGN.md §16).
constexpr std::uint64_t kMinParallelEvents = 64;

/// Default per-lane handoff ring: sized so steady-state cross-shard
/// traffic of one epoch (bounded by lookahead * per-link rate) stays on
/// the lock-free path; bursts beyond it degrade to the spill mutex.
constexpr std::size_t kDefaultRingCapacity = 4096;

}  // namespace

// --- ShardPlan -------------------------------------------------------

ShardPlan ShardPlan::single() { return ShardPlan{}; }

SimDuration ShardPlan::min_cross_latency(
    Network& net, const std::vector<std::uint32_t>& shard_of) {
  SimDuration best = 0;
  bool any = false;
  const auto n = static_cast<NodeId>(net.node_count());
  for (NodeId id = 0; id < n; ++id) {
    const auto ports = static_cast<PortId>(net.port_count(id));
    for (PortId p = 0; p < ports; ++p) {
      const NodeId peer = net.peer_of(id, p);
      if (peer == kInvalidNode) continue;
      if (shard_of[id] == shard_of[peer]) continue;
      const SimDuration lat = net.link_params(id, p).latency;
      if (!any || lat < best) {
        best = lat;
        any = true;
      }
    }
  }
  return any ? best : 0;
}

ShardPlan ShardPlan::leaf_spine(Network& net, const LeafSpineTopology& topo,
                                std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  plan.shard_of.assign(net.node_count(), 0);
  if (plan.shards == 1) return plan;
  for (std::size_t s = 0; s < topo.spines.size(); ++s) {
    plan.shard_of[topo.spines[s]] =
        static_cast<std::uint32_t>(s) % plan.shards;
  }
  const std::uint32_t hpl = topo.params.hosts_per_leaf;
  for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
    const std::uint32_t s = static_cast<std::uint32_t>(l) % plan.shards;
    plan.shard_of[topo.leaves[l]] = s;
    for (std::uint32_t h = 0; h < hpl; ++h) {
      plan.shard_of[topo.hosts[l * hpl + h]] = s;
    }
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

ShardPlan ShardPlan::fat_tree(Network& net, const FatTreeTopology& topo,
                              std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  plan.shard_of.assign(net.node_count(), 0);
  if (plan.shards == 1) return plan;
  const std::uint32_t m = topo.params.k / 2;
  for (std::size_t c = 0; c < topo.cores.size(); ++c) {
    plan.shard_of[topo.cores[c]] = static_cast<std::uint32_t>(c) % plan.shards;
  }
  for (std::uint32_t p = 0; p < topo.params.k; ++p) {
    const std::uint32_t s = p % plan.shards;
    for (std::uint32_t a = 0; a < m; ++a) {
      plan.shard_of[topo.aggs[p * m + a]] = s;
      plan.shard_of[topo.edges[p * m + a]] = s;
    }
    for (std::uint32_t e = 0; e < m; ++e) {
      for (std::uint32_t h = 0; h < m; ++h) {
        plan.shard_of[topo.hosts[(p * m + e) * m + h]] = s;
      }
    }
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

ShardPlan ShardPlan::by_switch_groups(Network& net, std::uint32_t shards) {
  ShardPlan plan;
  plan.shards = shards < 1 ? 1 : shards;
  const auto n = static_cast<NodeId>(net.node_count());
  plan.shard_of.assign(n, 0);
  if (plan.shards == 1) return plan;
  // Pass 1: multi-port nodes are subtree anchors, dealt round-robin.
  std::vector<bool> anchored(n, false);
  std::uint32_t next = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (net.port_count(id) >= 2) {
      plan.shard_of[id] = next++ % plan.shards;
      anchored[id] = true;
    }
  }
  // Pass 2: single-port nodes (hosts) follow their only peer, keeping
  // the host<->switch link intra-shard.
  for (NodeId id = 0; id < n; ++id) {
    if (anchored[id] || net.port_count(id) == 0) continue;
    const NodeId peer = net.peer_of(id, 0);
    if (peer != kInvalidNode && anchored[peer]) {
      plan.shard_of[id] = plan.shard_of[peer];
      anchored[id] = true;
    }
  }
  // Pass 3: whatever is left (isolated nodes, point-to-point pairs with
  // no switch) is dealt round-robin.
  for (NodeId id = 0; id < n; ++id) {
    if (!anchored[id]) plan.shard_of[id] = next++ % plan.shards;
  }
  plan.lookahead = min_cross_latency(net, plan.shard_of);
  return plan;
}

// --- ShardRunner -----------------------------------------------------

ShardRunner::ShardRunner(Network& net, SimDuration lookahead,
                         std::uint32_t shards)
    : net_(net),
      lookahead_(lookahead < 1 ? 1 : lookahead),
      shards_(shards),
      rings_(shards),
      ring_capacity_(kDefaultRingCapacity),
      next_at_(shards, kNoEventTime) {
  for (Ring& r : rings_) r.buf.reserve(ring_capacity_);
  threads_.reserve(shards_);
  for (std::uint32_t i = 0; i < shards_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardRunner::~ShardRunner() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ShardRunner::run_window(SimTime limit) {
  EventLoop& loop = net_.loop_;
  // M: the earliest pending shard event.  next_time's min_bound fast
  // path makes this scan cheap for idle wheels.
  SimTime ms = kNoEventTime;
  for (std::uint32_t i = 0; i < shards_; ++i) {
    const SimTime t = loop.wheels_[i]->next_time(limit);
    next_at_[i] = t;
    if (t != kNoEventTime && (ms == kNoEventTime || t < ms)) ms = t;
  }
  if (ms == kNoEventTime) return false;
  // Conservative horizon: every shard may run events in [M, M + L)
  // without receiving behind its clock — a cross-shard frame sent at
  // t >= M arrives at t + serialization + L > M + L.  The override
  // hook widens L past the proof for the violation-abort test.
  const SimDuration la =
      horizon_override_ > 0 ? horizon_override_ : lookahead_;
  SimTime run_to = ms + la - 1;  // inclusive epoch limit
  if (run_to < ms) run_to = limit;  // SimTime overflow (limit near max)
  if (run_to > limit) run_to = limit;
  // Shards with work inside the window.  With one, nothing can reach
  // it inside the window, so waking the workers buys nothing; with
  // several, the workers pay off only once windows carry enough work.
  std::uint32_t active = 0;
  for (std::uint32_t i = 0; i < shards_; ++i) {
    if (next_at_[i] != kNoEventTime && next_at_[i] <= run_to) ++active;
  }
  const std::uint64_t events_before = loop.events_executed();
  if (!force_workers_ &&
      (active == 1 || last_window_events_ < kMinParallelEvents)) {
    // The loop's own key-merge, on this thread: with the journal not
    // deferring nothing is logged — observers and the wire digest run
    // inline (every earlier window was replayed at its barrier) and
    // cross-shard frames insert straight into their destination wheels.
    loop.merge_run(run_to);
    ++coordinator_windows_;
    if (active > 1) {
      last_window_events_ = loop.events_executed() - events_before;
    }
  } else {
    obs::ShardProfiler& prof = net_.shard_profiler_;
    if (prof.armed()) prof.begin_epoch(epoch_seq_ + 1);
    run_epoch(run_to);
    last_window_events_ = loop.events_executed() - events_before;
    // Barrier work, workers parked: land cross-shard frames (keys
    // intact), fold the digest log, and replay journaled observer
    // records — both in canonical order.
    if (prof.armed()) {
      prof.end_epoch();
      for (std::uint32_t i = 0; i < shards_; ++i) {
        prof.sample_ring(i, rings_[i].buf.size());
      }
      prof.begin_drain();
    }
    drain_rings();
    net_.merge_epoch_logs();
    for (auto& w : loop.wheels_) {
      if (w->now() > loop.global_now_) loop.global_now_ = w->now();
    }
    if (prof.armed()) {
      prof.end_drain(cross_frames_,
                     overflow_count_.load(std::memory_order_relaxed));
    }
  }
  if (net_.barrier_hook_) net_.barrier_hook_();
  return true;
}

void ShardRunner::run_epoch(SimTime limit) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch_limit_ = limit;
    // The one epoch flag: during the epoch digest folds and observer
    // callbacks go to their lane logs and cross-shard frames to the
    // rings; everywhere else (control events, serial segments) they run
    // inline.
    net_.journal_.set_deferring(true);
    running_ = shards_;
    ++epoch_seq_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return running_ == 0; });
    net_.journal_.set_deferring(false);
  }
  ++epochs_;
}

void ShardRunner::worker_main(std::uint32_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime limit;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_seq_ != seen; });
      if (stop_) return;
      seen = epoch_seq_;
      limit = epoch_limit_;
    }
    ExecLane::idx = lane;
    obs::ShardProfiler& prof = net_.shard_profiler_;
    if (prof.armed()) prof.begin_exec(lane);
    TimingWheel& w = net_.loop_.wheel(lane);
    {
      ShardGuard guard(w.shard());
      w.run_until(limit);
    }
    if (prof.armed()) prof.end_exec(lane);
    bool last = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      last = --running_ == 0;
    }
    if (last) cv_done_.notify_all();
  }
}

bool ShardRunner::offer_cross(NodeId from, NodeId dst, PortId dst_port,
                              SimTime arrive, SimTime at, Packet&& pkt) {
  if (!net_.journal_.deferring()) return false;
  const std::uint32_t lane = ExecLane::idx;
  if (lane >= shards_) return false;  // control/coordinator context
  if (net_.loop_.shard_of_source(dst) == lane) return false;  // own wheel
  CrossFrame cf;
  cf.at = at;
  cf.arrive = arrive;
  cf.from = from;
  cf.dst = dst;
  cf.dst_port = dst_port;
  cf.pkt = std::move(pkt);
  net_.loop_.stamp_routed(arrive, cf.key_a, cf.key_b);
  Ring& r = rings_[lane];
  if (r.buf.size() < ring_capacity_) {
    r.buf.push_back(std::move(cf));
  } else {
    spill_cross(std::move(cf));
  }
  return true;
}

void ShardRunner::spill_cross(CrossFrame&& cf) {
  std::lock_guard<std::mutex> lk(spill_mu_);
  spill_.push_back(std::move(cf));
  overflow_count_.fetch_add(1, std::memory_order_relaxed);
}

void ShardRunner::drain_rings() {
  for (Ring& r : rings_) {
    for (CrossFrame& cf : r.buf) deliver_cross(std::move(cf));
    cross_frames_ += r.buf.size();
    r.buf.clear();
  }
  // The spill lock is uncontended here (workers parked); held for the
  // drain anyway so TSan sees the pairing.
  std::lock_guard<std::mutex> lk(spill_mu_);
  cross_frames_ += spill_.size();
  for (CrossFrame& cf : spill_) deliver_cross(std::move(cf));
  spill_.clear();
}

void ShardRunner::deliver_cross(CrossFrame&& cf) {
  Network* net = &net_;
  const NodeId from = cf.from;
  const NodeId dst = cf.dst;
  const PortId dst_port = cf.dst_port;
  const SimTime arrive = cf.arrive;
  // Insertion order across rings is irrelevant: the stamped key decides
  // execution order.  An `at` behind dst's wheel clock can only mean
  // the horizon exceeded the lookahead proof; the wheel aborts on it
  // under strict mode ("lookahead violation").
  net_.loop_.schedule_stamped(
      dst, cf.at, cf.key_a, cf.key_b,
      [net, from, dst, dst_port, arrive, pkt = std::move(cf.pkt)]() mutable {
        net->deliver_now(from, dst, dst_port, arrive, std::move(pkt));
      });
}

void ShardRunner::set_ring_capacity_for_test(std::size_t cap) {
  ring_capacity_ = cap < 1 ? 1 : cap;
}

}  // namespace objrpc
