#include "sim/shard.hpp"

#include <sys/resource.h>

#include "common/exec_lane.hpp"
#include "sim/network.hpp"

namespace objrpc {

namespace {

/// A multi-shard window runs on the workers only when the previous one
/// executed at least this many events; smaller windows cost less run
/// serially on the coordinator than one worker round.  Measured on a
/// 4-vCPU VM (perfbench, objmix-4shard-armed traced, with every
/// multi-shard window on the workers): a round costs ~6 us of
/// coordinator time (barrier wait p50 2.5-3.1 us, drain 3.1-4.7 us
/// mean) for windows whose few events take a lane 0.65-0.84 us (p50);
/// the condvar-only barrier took ~12 us (wait 9.1 us).  Even so, every
/// window on the workers runs objmix-4shard-armed at 38-74K host ops/s
/// against 166-250K at 16 or 64, and fabric-forward is flat from 0 to
/// 64; the earlier sweep found 16 to 256 flat on both and 4096 and
/// above 17-42 % slower on fabric-forward (DESIGN.md §16).
constexpr std::uint64_t kMinParallelEvents = 64;

/// Pause instructions a barrier thread polls before it parks: ~0.45 ms
/// at the ~22 ns a pause takes on a 4-vCPU Xeon VM.  That covers the
/// gap between back-to-back fabric-forward epochs (the coordinator's
/// barrier work, ~0.1 ms) and a lane's finish skew, so a steady run
/// parks on ~2 % of its waits, while a worker left idle by a
/// coordinator-only stretch parks within half a millisecond.
constexpr std::uint32_t kSpinPauses = 20'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Barrier waits in a row a thread must go unpreempted before it spins
/// again.
constexpr std::uint32_t kCalmWaits = 32;

/// Involuntary context switches of the calling thread so far (0 where
/// the platform cannot tell).
std::uint64_t preemptions() {
#ifdef RUSAGE_THREAD
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nivcsw);
#else
  return 0;
#endif
}

/// The calling thread's spin bound for its next barrier wait: `max`
/// once it has gone kCalmWaits waits without being preempted, else 0.
/// A preemption means some other thread wanted this CPU; spinning then
/// takes the CPU from the very lane or barrier work being waited for.
/// With two busy-loop threads beside a 4-shard run on 4 vCPUs, an
/// ungated spin parked on ~70 % of waits anyway and halved
/// fabric-forward's host ops/s against the condvar-only barrier.
std::uint32_t spin_budget(std::uint32_t max) {
  if (max == 0) return 0;
  struct Gate {
    std::uint64_t seen = preemptions();
    std::uint32_t calm = kCalmWaits;
  };
  thread_local Gate gate;
  const std::uint64_t now = preemptions();
  if (now != gate.seen) {
    gate.seen = now;
    gate.calm = 0;
  } else if (gate.calm < kCalmWaits) {
    ++gate.calm;
  }
  return gate.calm >= kCalmWaits ? max : 0;
}

/// Poll `done` for at most `pauses` pause instructions; whether it held.
template <typename Pred>
bool spin_until(std::uint32_t pauses, Pred done) {
  for (std::uint32_t i = 0; i < pauses; ++i) {
    if (done()) return true;
    cpu_relax();
  }
  return done();
}

}  // namespace

// --- ShardPlan -------------------------------------------------------

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
      // The delivery executes one receive residence after the arrival.
      const SimDuration lat =
          net.link_params(id, p).latency + net.node(peer).receive_residence();
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
      spin_pauses_(shards <= std::thread::hardware_concurrency()
                       ? kSpinPauses
                       : 0),
      next_at_(shards, kNoEventTime) {
  threads_.reserve(shards_ - 1);
  for (std::uint32_t i = 1; i < shards_; ++i) {
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
  // t >= M is delivered at t + serialization + latency + residence
  // >= M + L.  The override hook widens L past the proof for the
  // violation-abort test.
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
    // deferring nothing is logged — observers run inline (every earlier
    // window was replayed at its barrier) and cross-shard frames insert
    // straight into their destination wheels.
    loop.merge_run(run_to);
    ++coordinator_windows_;
    back_to_back_ = false;
    if (active > 1) {
      last_window_events_ = loop.events_executed() - events_before;
    }
  } else {
    obs::ShardProfiler& prof = net_.shard_profiler_;
    if (prof.armed()) prof.begin_epoch(epochs_ + 1);
    run_epoch(run_to);
    last_window_events_ = loop.events_executed() - events_before;
    // Barrier work, workers parked: land cross-shard deliveries (keys
    // intact), then replay journaled observer records in canonical
    // order.
    if (prof.armed()) {
      prof.end_epoch();
      prof.begin_drain();
    }
    cross_frames_ += net_.merge_epoch_logs();
    for (auto& w : loop.wheels_) {
      if (w->now() > loop.global_now_) loop.global_now_ = w->now();
    }
    if (prof.armed()) prof.end_drain();
  }
  if (net_.barrier_hook_) net_.barrier_hook_();
  return true;
}

void ShardRunner::run_epoch(SimTime limit) {
  epoch_limit_ = limit;
  // Spin at this epoch's barrier only when it follows the last epoch
  // directly: a lone epoch (the first, or one after a coordinator
  // window) gives no sign that the next comes soon.
  spin_ = back_to_back_;
  back_to_back_ = true;
  // The one epoch flag: during the epoch observer callbacks and
  // cross-shard deliveries go to their lanes' journal and handoff
  // vectors; everywhere else (control events, serial segments) they run
  // inline.
  net_.journal_.set_deferring(true);
  running_.store(shards_ - 1, std::memory_order_relaxed);
  epoch_seq_.fetch_add(1);
  if (sleepers_.load() != 0) {
    // A worker checks epoch_seq_ under mu_ before it waits: taking mu_
    // here orders this notify after that check.
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_work_.notify_all();
  }
  run_lane(0, limit);
  if (!spin_until(spin_bound(spin_), [this] {
        return running_.load(std::memory_order_acquire) == 0;
      })) {
    std::unique_lock<std::mutex> lk(mu_);
    coordinator_parked_ = true;
    cv_done_.wait(lk, [this] { return running_.load() == 0; });
    coordinator_parked_ = false;
  }
  net_.journal_.set_deferring(false);
  ++epochs_;
}

std::uint32_t ShardRunner::spin_bound(bool back_to_back) const {
  if (!back_to_back) return 0;
  return spin_gated_ ? spin_budget(spin_pauses_) : spin_pauses_;
}

void ShardRunner::run_lane(std::uint32_t lane, SimTime limit) {
  obs::ShardProfiler& prof = net_.shard_profiler_;
  if (prof.armed()) prof.begin_exec(lane);
  TimingWheel& w = net_.loop_.wheel(lane);
  {
    // run_until saves and restores the thread's scheduling context and
    // lane, so the coordinator leaves lane 0 as the control lane.
    ShardGuard guard(w.shard());
    w.run_until(limit);
  }
  if (prof.armed()) prof.end_exec(lane);
}

void ShardRunner::worker_main(std::uint32_t lane) {
  ExecLane::idx = lane;
  std::uint64_t seen = 0;
  bool spin = false;  // never before the first epoch
  const auto released = [&] {
    return stop_.load(std::memory_order_acquire) ||
           epoch_seq_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!spin_until(spin_bound(spin), released)) {
      std::unique_lock<std::mutex> lk(mu_);
      ++sleepers_;
      cv_work_.wait(lk, [&] {
        return stop_.load() || epoch_seq_.load() != seen;
      });
      --sleepers_;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_seq_.load(std::memory_order_acquire);
    spin = spin_;  // read before the decrement lets the next epoch start
    run_lane(lane, epoch_limit_);
    if (running_.fetch_sub(1) == 1 && coordinator_parked_.load()) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_one();
    }
  }
}

}  // namespace objrpc
