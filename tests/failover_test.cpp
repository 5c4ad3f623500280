// Chaos harness: host crashes, home failover, and epoch fencing.
//
// Crashes here are fail-stop with durable memory: a dead node drops
// every frame (Network::set_node_up) but keeps its object store, so a
// revival models a reboot — the revived home must re-establish its
// authority (or discover it was deposed) before serving anything.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/cluster.hpp"
#include "inc/cache_stage.hpp"

namespace objrpc {
namespace {

ClusterConfig chaos_cluster(DiscoveryScheme scheme, std::uint64_t seed,
                            std::size_t hosts = 3) {
  ClusterConfig cfg;
  cfg.fabric.scheme = scheme;
  cfg.fabric.seed = seed;
  cfg.fabric.num_hosts = hosts;
  return cfg;
}

Bytes u64_bytes(std::uint64_t v) {
  BufWriter w(8);
  w.put_u64(v);
  return std::move(w).take();
}

std::uint64_t bytes_u64(const Bytes& b) {
  BufReader r(b);
  return r.get_u64();
}

/// A 3-host world: the object lives on host 1 with a replica pushed to
/// host 2 (the designated successor); host 0 is the client.
struct FailoverWorld {
  std::unique_ptr<Cluster> cluster;
  ObjectId id;

  explicit FailoverWorld(DiscoveryScheme scheme = DiscoveryScheme::e2e,
                         std::uint64_t size = 4096, std::uint64_t seed = 7,
                         std::size_t hosts = 3) {
    cluster = Cluster::build(chaos_cluster(scheme, seed, hosts));
    auto obj = cluster->create_object(/*host=*/1, size);
    EXPECT_TRUE(obj);
    id = (*obj)->id();
    EXPECT_TRUE((*obj)->write_u64(Object::kDataStart, 0x5EED));
    cluster->settle();
    Status pushed{Errc::unavailable};
    cluster->replicate_object(id, 1, 2, [&](Status s) { pushed = s; });
    cluster->settle();
    EXPECT_TRUE(pushed.is_ok());
    EXPECT_TRUE(cluster->replicas(2).is_designated(id));
  }

  Network& net() { return cluster->fabric().network(); }
  void crash(std::size_t host) {
    net().set_node_up(cluster->host(host).id(), false);
  }
  void revive(std::size_t host) {
    net().set_node_up(cluster->host(host).id(), true);
  }

  Result<std::uint64_t> read_from(std::size_t host,
                                  AccessOptions opts = {}) {
    Result<std::uint64_t> out{Errc::unavailable};
    cluster->service(host).read(
        GlobalPtr{id, Object::kDataStart}, 8,
        [&](Result<Bytes> r, const AccessStats&) {
          if (r) {
            out = bytes_u64(*r);
          } else {
            out = r.error();
          }
        },
        opts);
    cluster->settle();
    return out;
  }

  Status write_from(std::size_t host, std::uint64_t value,
                    AccessOptions opts = {}) {
    Status out{Errc::unavailable};
    cluster->service(host).write(
        GlobalPtr{id, Object::kDataStart}, u64_bytes(value),
        [&](Status s, const AccessStats&) { out = s; }, opts);
    cluster->settle();
    return out;
  }
};

// --- crash plumbing ---------------------------------------------------------

TEST(Crash, DeadNodeDropsAllFrames) {
  FailoverWorld w;
  w.crash(1);
  const std::uint64_t before = w.net().stats().frames_dropped_dead;
  // A write aimed straight at the dead home must die in the network,
  // then fail over (host2 promotes once its probe times out).
  ASSERT_TRUE(w.write_from(0, 42).is_ok());
  EXPECT_GT(w.net().stats().frames_dropped_dead, before);
  EXPECT_FALSE(w.cluster->host(1).alive());
  EXPECT_TRUE(w.cluster->host(2).alive());
}

TEST(Crash, ScheduledCrashFiresAtTheAppointedTime) {
  FailoverWorld w;
  EventLoop& loop = w.cluster->loop();
  w.net().schedule_crash(w.cluster->host(1).id(), loop.now() + kMillisecond);
  w.net().schedule_revive(w.cluster->host(1).id(),
                          loop.now() + 2 * kMillisecond);
  EXPECT_TRUE(w.cluster->host(1).alive());
  loop.run_until(loop.now() + kMillisecond + kMicrosecond);
  EXPECT_FALSE(w.cluster->host(1).alive());
  w.cluster->settle();
  EXPECT_TRUE(w.cluster->host(1).alive());
}

// --- failover ---------------------------------------------------------------

TEST(Failover, HomeCrashMidFetchIsServedByReplica) {
  FailoverWorld w(DiscoveryScheme::e2e, /*size=*/64 * 1024);
  auto home_obj = w.cluster->host(1).store().get(w.id);
  ASSERT_TRUE(home_obj);
  ASSERT_TRUE((*home_obj)->write_u64(Object::kDataStart + 48 * 1024, 0xCAFE));
  w.cluster->settle();
  // Refresh the replica so it matches the image under transfer.
  Status pushed{Errc::unavailable};
  w.cluster->replicate_object(w.id, 1, 2, [&](Status s) { pushed = s; });
  w.cluster->settle();
  ASSERT_TRUE(pushed.is_ok());

  // Start pulling the 64KB image from the home and kill it mid-stream.
  Status fetched{Errc::unavailable};
  w.cluster->fetcher(0).fetch(w.id, [&](Status s) { fetched = s; });
  EventLoop& loop = w.cluster->loop();
  w.net().schedule_crash(w.cluster->host(1).id(),
                         loop.now() + 50 * kMicrosecond);
  w.cluster->settle();

  // The stalled fetch re-stats (timeout -> rediscovery) and completes
  // against the replica, byte-exact, never surfacing a torn image.
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_GE(w.cluster->fetcher(0).counters().timeout_rediscoveries, 1u);
  auto local = w.cluster->host(0).store().get(w.id);
  ASSERT_TRUE(local);
  EXPECT_EQ(*(*local)->read_u64(Object::kDataStart), 0x5EEDu);
  EXPECT_EQ(*(*local)->read_u64(Object::kDataStart + 48 * 1024), 0xCAFEu);
}

TEST(Failover, HomeCrashMidWritePromotesDesignated) {
  FailoverWorld w;
  w.crash(1);
  // The write bounces off the replica toward the corpse, the replica's
  // probe goes unanswered, and the designated successor takes over.
  ASSERT_TRUE(w.write_from(0, 77).is_ok());
  EXPECT_TRUE(w.cluster->replicas(2).is_home(w.id));
  EXPECT_EQ(w.cluster->replicas(2).home_epoch(w.id), 2u);
  EXPECT_EQ(w.cluster->replicas(2).counters().promotions, 1u);
  EXPECT_GE(w.cluster->replicas(2).counters().probes_sent, 1u);
  EXPECT_FALSE(w.cluster->replicas(2).is_replica(w.id));
  // The value lives at the new home; a fresh read sees it.
  auto v = w.read_from(0);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 77u);
}

TEST(Failover, RevivedHomeIsFencedAndDemotes) {
  FailoverWorld w;
  w.crash(1);
  ASSERT_TRUE(w.write_from(0, 91).is_ok());  // forces promotion (epoch 2)
  ASSERT_TRUE(w.cluster->replicas(2).is_home(w.id));

  // The old home reboots with its durable (now stale) store.  Its
  // recovery probe finds the higher epoch and it steps down.
  w.revive(1);
  w.cluster->settle();
  EXPECT_FALSE(w.cluster->replicas(1).is_home(w.id));
  EXPECT_EQ(w.cluster->replicas(1).counters().demotions, 1u);
  EXPECT_FALSE(w.cluster->host(1).store().contains(w.id));
  EXPECT_FALSE(w.cluster->replicas(1).is_recovering(w.id));

  // A straggler invalidate stamped with the dead lineage's epoch must
  // bounce off the promoted home without evicting anything.
  Frame stale;
  stale.type = MsgType::invalidate;
  stale.dst_host = w.cluster->addr_of(2);
  stale.object = w.id;
  stale.epoch = 1;
  w.cluster->host(0).send_frame(std::move(stale));
  w.cluster->settle();
  EXPECT_EQ(w.cluster->replicas(2).counters().stale_epoch_rejects, 1u);
  EXPECT_TRUE(w.cluster->host(2).store().contains(w.id));

  // No pre-promotion bytes anywhere: reads still see the epoch-2 write.
  auto v = w.read_from(0);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 91u);
}

TEST(Failover, RecoveryResumesWhenNoPromotionHappened) {
  FailoverWorld w;
  // Bounce the home without any write in between: nobody promoted, so
  // its recovery probes come back clean and it resumes authority.
  w.crash(1);
  w.revive(1);
  w.cluster->settle();
  EXPECT_EQ(w.cluster->replicas(1).counters().recoveries_resumed, 1u);
  EXPECT_EQ(w.cluster->replicas(1).counters().demotions, 0u);
  EXPECT_EQ(w.cluster->replicas(1).home_epoch(w.id), 1u);
  ASSERT_TRUE(w.write_from(0, 5).is_ok());
  auto v = w.read_from(0);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 5u);
}

/// Frames host 0 sends straight at host 1, and what comes back to it:
/// one request of each kind a revived home's quarantine gates.
struct QuarantineProbe {
  FailoverWorld& w;
  std::vector<Frame> replies;

  explicit QuarantineProbe(FailoverWorld& world) : w(world) {
    const NodeId client = w.cluster->host(0).id();
    w.net().add_tap([this, client](NodeId, NodeId to, const Packet& pkt) {
      if (to != client) return;
      if (auto f = Frame::decode(pkt.data)) replies.push_back(std::move(*f));
    });
  }

  void send(MsgType type, std::uint64_t seq, std::uint32_t length = 0,
            Bytes payload = {}) {
    Frame f;
    f.type = type;
    f.dst_host = w.cluster->addr_of(1);
    f.object = w.id;
    f.seq = seq;
    f.offset = type == MsgType::chunk_req ? 0 : Object::kDataStart;
    f.length = length;
    f.payload = std::move(payload);
    w.cluster->host(0).send_frame(std::move(f));
  }
  /// One chunk stat, read, write, atomic and discovery request.
  void send_all() {
    replies.clear();
    send(MsgType::chunk_req, 1);
    send(MsgType::read_req, 2, 8);
    send(MsgType::write_req, 3, 8, u64_bytes(0xABC));
    send(MsgType::atomic_req, 4, 0,
         encode_atomic_request({AtomicOp::fetch_add, 1, 0}));
    send(MsgType::discover_req, 5);
  }
  const Frame* reply(std::uint64_t seq) const {
    for (const Frame& f : replies) {
      if (f.seq == seq) return &f;
    }
    return nullptr;
  }
  Errc nack_code(std::uint64_t seq) const {
    const Frame* f = reply(seq);
    if (f == nullptr || f->type != MsgType::nack) return Errc::ok;
    auto info = decode_nack_payload(f->payload);
    return info ? info->code : Errc::malformed;
  }
};

TEST(Failover, RecoveringHomeServesNothingUntilResumed) {
  FailoverWorld w;
  w.crash(1);
  w.revive(1);
  ReplicaManager& home = w.cluster->replicas(1);
  ASSERT_TRUE(home.is_recovering(w.id));
  const ObjNetService::Counters before = w.cluster->service(1).counters();
  QuarantineProbe probe(w);

  // Inside the recovery window (well short of recovery_timeout).
  probe.send_all();
  EventLoop& loop = w.cluster->loop();
  loop.run_until(loop.now() + 2 * kMillisecond);
  ASSERT_TRUE(home.is_recovering(w.id));
  const Frame* chunk = probe.reply(1);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->type, MsgType::chunk_resp);
  EXPECT_EQ(chunk->offset, kChunkNotHere);
  EXPECT_EQ(probe.nack_code(2), Errc::not_found);
  EXPECT_EQ(probe.nack_code(3), Errc::not_found);
  EXPECT_EQ(probe.nack_code(4), Errc::not_found);
  EXPECT_EQ(probe.reply(5), nullptr);
  const ObjNetService::Counters& during = w.cluster->service(1).counters();
  EXPECT_EQ(during.reads_served, before.reads_served);
  EXPECT_EQ(during.writes_served, before.writes_served);
  EXPECT_EQ(during.atomics_served, before.atomics_served);
  EXPECT_EQ(during.discover_replies_sent, before.discover_replies_sent);
  EXPECT_EQ(*(*w.cluster->host(1).store().get(w.id))
                 ->read_u64(Object::kDataStart),
            0x5EEDu);

  // No higher epoch surfaced: the home resumes and serves all four.
  w.cluster->settle();
  ASSERT_EQ(home.counters().recoveries_resumed, 1u);
  ASSERT_FALSE(home.is_recovering(w.id));
  probe.send_all();
  w.cluster->settle();
  chunk = probe.reply(1);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->type, MsgType::chunk_resp);
  EXPECT_NE(chunk->offset, kChunkNotHere);
  const Frame* read = probe.reply(2);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->type, MsgType::read_resp);
  EXPECT_EQ(bytes_u64(read->payload), 0x5EEDu);
  ASSERT_NE(probe.reply(3), nullptr);
  EXPECT_EQ(probe.reply(3)->type, MsgType::write_resp);
  ASSERT_NE(probe.reply(4), nullptr);
  EXPECT_EQ(probe.reply(4)->type, MsgType::atomic_resp);
  ASSERT_NE(probe.reply(5), nullptr);
  EXPECT_EQ(probe.reply(5)->type, MsgType::discover_reply);
  EXPECT_EQ(*(*w.cluster->host(1).store().get(w.id))
                 ->read_u64(Object::kDataStart),
            0xABDu);
}

TEST(Failover, HigherEpochInvalidateDemotesTheHome) {
  FailoverWorld w;
  ReplicaManager& home = w.cluster->replicas(1);
  ASSERT_TRUE(home.is_home(w.id));
  ASSERT_EQ(home.home_epoch(w.id), 1u);
  std::vector<Frame> acks;
  const NodeId client = w.cluster->host(0).id();
  w.net().add_tap([&](NodeId, NodeId to, const Packet& pkt) {
    if (to != client) return;
    auto f = Frame::decode(pkt.data);
    if (f && f->type == MsgType::invalidate_ack) acks.push_back(*f);
  });

  // An invalidate from a lineage one epoch ahead proves a newer home
  // exists: the receiving home steps down, drops its copy, and acks.
  Frame inv;
  inv.type = MsgType::invalidate;
  inv.dst_host = w.cluster->addr_of(1);
  inv.object = w.id;
  inv.epoch = 2;
  inv.seq = 41;
  w.cluster->host(0).send_frame(std::move(inv));
  w.cluster->settle();

  EXPECT_EQ(home.counters().demotions, 1u);
  EXPECT_EQ(home.counters().stale_epoch_rejects, 0u);
  EXPECT_FALSE(home.is_home(w.id));
  EXPECT_FALSE(w.cluster->host(1).store().contains(w.id));
  EXPECT_EQ(w.cluster->fetcher(1).counters().invalidates_received, 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].seq, 41u);
  EXPECT_EQ(acks[0].object, w.id);
  EXPECT_EQ(acks[0].src_host, w.cluster->addr_of(1));
}

TEST(Failover, ProbeOfDeadHomeTimesOutOnSchedule) {
  FailoverWorld w;
  Cluster& c = *w.cluster;
  ReplicaManager& replica = c.replicas(2);
  const NodeId h2 = c.host(2).id();
  // More objects homed on host 1, each with a replica on host 2.
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) {
    auto obj = c.create_object(1, 4096);
    ASSERT_TRUE(obj);
    ids.push_back((*obj)->id());
    c.replicate_object(ids.back(), 1, 2, nullptr);
  }
  c.settle();
  // A write issued on the replica host bounces toward the home, and the
  // bounce probes it.  A batch of probes, every one answered long
  // before its 5 ms deadline: one timer event stands for all of them.
  const SimTime t0 = c.loop().now();
  c.fabric().network().schedule_on(h2, t0, [&] {
    for (ObjectId id : ids) {
      c.service(2).write(GlobalPtr{id, Object::kDataStart}, u64_bytes(1),
                         nullptr);
    }
  });
  c.loop().run_until(t0 + 2 * kMillisecond);
  EXPECT_EQ(replica.counters().probes_sent, 8u);
  EXPECT_EQ(replica.probing_count(), 0u);
  EXPECT_LE(replica.probe_timer().events_pending(), 1u);
  c.settle();
  EXPECT_EQ(replica.probe_timer().events_pending(), 0u);
  EXPECT_EQ(replica.counters().promotions, 0u);

  // The home is dead: the probe goes unanswered, and the designated
  // replica promotes itself exactly one probe timeout later.
  w.crash(1);
  const SimTime t1 = c.loop().now();
  c.fabric().network().schedule_on(h2, t1, [&] {
    c.service(2).write(GlobalPtr{w.id, Object::kDataStart}, u64_bytes(2),
                       nullptr);
  });
  const SimDuration probe_timeout = ReplicaManager::kProbeTimeout;
  c.loop().run_until(t1 + probe_timeout - 1);
  EXPECT_EQ(replica.probing_count(), 1u);
  EXPECT_FALSE(replica.is_home(w.id));
  c.loop().run_until(t1 + probe_timeout);
  EXPECT_TRUE(replica.is_home(w.id));
  EXPECT_EQ(replica.probing_count(), 0u);
  EXPECT_EQ(replica.counters().promotions, 1u);
  c.settle();
}

TEST(Failover, PromotionInvalidatesSiblingReplicas) {
  FailoverWorld w(DiscoveryScheme::e2e, 4096, /*seed=*/7, /*hosts=*/4);
  // Second replica on host 3; the designated successor (host 2) learns
  // of it via member_update.
  Status pushed{Errc::unavailable};
  w.cluster->replicate_object(w.id, 1, 3, [&](Status s) { pushed = s; });
  w.cluster->settle();
  ASSERT_TRUE(pushed.is_ok());
  ASSERT_TRUE(w.cluster->replicas(3).is_replica(w.id));
  ASSERT_FALSE(w.cluster->replicas(3).is_designated(w.id));

  w.crash(1);
  w.cluster->replicas(2).promote(w.id);
  w.cluster->settle();

  // The sibling was invalidated under the new epoch: it neither serves
  // the old lineage nor redirects writers at the corpse.
  EXPECT_TRUE(w.cluster->replicas(2).is_home(w.id));
  EXPECT_FALSE(w.cluster->replicas(3).is_replica(w.id));
  EXPECT_FALSE(w.cluster->host(3).store().contains(w.id));
  EXPECT_EQ(w.cluster->replicas(3).counters().replicas_invalidated, 1u);
}

TEST(Failover, ControllerRepairsRoutesAndRevokesSwitchCache) {
  // Controller scheme with an in-network cache at host0's switch: the
  // crash must revoke the cached entry (dead lineage) and re-point the
  // object route at the promoted replica.
  auto cluster = Cluster::build(
      chaos_cluster(DiscoveryScheme::controller, /*seed=*/13));
  IncCacheStage cache(cluster->fabric().switch_at(0));
  if (cluster->checker()) cluster->checker()->attach_cache(cache);
  auto obj = cluster->create_object(/*host=*/1, 4096);
  ASSERT_TRUE(obj);
  const ObjectId id = (*obj)->id();
  ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 0xF00D));
  cluster->settle();
  ControllerNode* ctrl = cluster->fabric().controller();
  ASSERT_NE(ctrl, nullptr);
  CacheGrant grant;
  grant.sram_budget_bytes = 64 * 1024;
  grant.max_entry_bytes = 16 * 1024;
  grant.admit_threshold = 1;
  ASSERT_TRUE(ctrl->enable_switch_cache(
      cluster->fabric().switch_at(0).id(), grant).is_ok());
  cluster->settle();

  Status pushed{Errc::unavailable};
  cluster->replicate_object(id, 1, 2, [&](Status s) { pushed = s; });
  cluster->settle();
  ASSERT_TRUE(pushed.is_ok());
  EXPECT_EQ(ctrl->replica_count(id), 1u);  // advertise_replica arrived

  // Warm the switch cache from host 0.
  Status fetched{Errc::unavailable};
  cluster->fetcher(0).fetch(id, [&](Status s) { fetched = s; });
  cluster->settle();
  ASSERT_TRUE(fetched.is_ok());
  ASSERT_TRUE(cache.contains(id));
  cluster->fetcher(0).evict(id);

  // Crash the home: liveness feed -> cache revoke + promote_req.
  cluster->fabric().network().set_node_up(cluster->host(1).id(), false);
  cluster->settle();
  EXPECT_EQ(ctrl->counters().failovers, 1u);
  EXPECT_EQ(ctrl->counters().promote_reqs_sent, 1u);
  EXPECT_GE(ctrl->counters().failover_cache_invalidates, 1u);
  EXPECT_FALSE(cache.contains(id));
  EXPECT_TRUE(cluster->replicas(2).is_home(id));
  auto home = ctrl->locate(id);
  ASSERT_TRUE(home);
  EXPECT_EQ(*home, cluster->addr_of(2));  // route re-pointed

  // And the data plane agrees: a fresh read lands on the new home.
  Result<Bytes> r{Errc::unavailable};
  cluster->service(0).read(GlobalPtr{id, Object::kDataStart}, 8,
                           [&](Result<Bytes> res, const AccessStats&) {
                             r = std::move(res);
                           });
  cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(bytes_u64(*r), 0xF00Du);
}

// --- seeded chaos sweep -----------------------------------------------------

TEST(Chaos, SeededCrashSweepKeepsWritesMonotone) {
  std::vector<std::uint64_t> seeds{11, 23, 37};
  if (const char* env = std::getenv("FAILOVER_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    auto cluster = Cluster::build(chaos_cluster(DiscoveryScheme::e2e, seed));
    auto obj = cluster->create_object(/*host=*/1, 4096);
    ASSERT_TRUE(obj);
    const ObjectId id = (*obj)->id();
    ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 0));
    cluster->settle();

    const GlobalPtr ptr{id, Object::kDataStart};
    const AccessOptions opts{/*max_attempts=*/8, /*timeout=*/5 * kMillisecond};
    std::size_t home = 1;
    std::size_t designated = home;  // last replica target
    const int rounds = 10;
    const int crash_round = 2 + static_cast<int>(rng.next_below(4));
    const int revive_round = crash_round + 2;
    std::size_t crashed = SIZE_MAX;

    auto re_replicate = [&] {
      // The write just invalidated every replica; push a fresh one from
      // the current home to a random other live host.
      std::size_t target = home;
      while (target == home || target == crashed) {
        target = rng.next_below(cluster->host_count());
      }
      Status pushed{Errc::unavailable};
      cluster->replicas(home).replicate(id, cluster->addr_of(target),
                                        [&](Status s) { pushed = s; });
      cluster->settle();
      ASSERT_TRUE(pushed.is_ok());
      designated = target;
    };
    re_replicate();

    for (int round = 1; round <= rounds; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      if (round == crash_round) {
        crashed = home;
        cluster->fabric().network().set_node_up(
            cluster->host(home).id(), false);
        home = designated;  // the successor must take over
      }
      if (round == revive_round && crashed != SIZE_MAX) {
        cluster->fabric().network().set_node_up(
            cluster->host(crashed).id(), true);
        cluster->settle();  // revived home demotes against epoch 2
        crashed = SIZE_MAX;
      }
      // Monotone counter write from host 0, then read-back.
      Status wrote{Errc::unavailable};
      cluster->service(home == 0 ? 2 : 0)
          .write(ptr, u64_bytes(static_cast<std::uint64_t>(round)),
                 [&](Status s, const AccessStats&) { wrote = s; }, opts);
      cluster->settle();
      ASSERT_TRUE(wrote.is_ok());
      ASSERT_TRUE(cluster->replicas(home).is_home(id));
      Result<std::uint64_t> got{Errc::unavailable};
      cluster->service(home == 0 ? 2 : 0)
          .read(ptr, 8,
                [&](Result<Bytes> r, const AccessStats&) {
                  if (r) {
                    got = bytes_u64(*r);
                  } else {
                    got = r.error();
                  }
                },
                opts);
      cluster->settle();
      ASSERT_TRUE(got);
      // Never a regression: each read sees exactly the latest write —
      // stale pre-promotion bytes would surface an older round here.
      EXPECT_EQ(*got, static_cast<std::uint64_t>(round));
      re_replicate();
    }

    // Exactly one promotion across the whole cluster, and the revived
    // host demoted exactly once.
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    for (std::size_t i = 0; i < cluster->host_count(); ++i) {
      promotions += cluster->replicas(i).counters().promotions;
      demotions += cluster->replicas(i).counters().demotions;
    }
    EXPECT_EQ(promotions, 1u);
    EXPECT_EQ(demotions, 1u);
  }
}

}  // namespace
}  // namespace objrpc
