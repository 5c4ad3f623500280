// Negative tests for the invariant checker (src/check): each test
// INJECTS a protocol violation through the public surface — a forged
// frame, a stale image, a double promotion — and asserts the checker
// classifies it correctly.  These are tests of the checker itself, not
// of the protocol: the protocol never produces these frames, which is
// exactly why the checker must catch a build that starts to.
//
// All clusters run with check_invariants=1 and abort-on-violation off,
// so a detection is an inspectable Violation record instead of a crash.
#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.hpp"
#include "inc/cache_stage.hpp"

namespace objrpc {
namespace {

using check::ViolationClass;

ClusterConfig checked_cluster(DiscoveryScheme scheme, std::size_t hosts = 3,
                              std::uint64_t seed = 7) {
  ClusterConfig cfg;
  cfg.fabric.scheme = scheme;
  cfg.fabric.seed = seed;
  cfg.fabric.num_hosts = hosts;
  cfg.check_invariants = 1;
  return cfg;
}

Bytes u64_bytes(std::uint64_t v) {
  BufWriter w(8);
  w.put_u64(v);
  return std::move(w).take();
}

/// Home-side write through the service, so the coherence layer (write
/// observer -> invalidate fan-out) runs like in production.
void write_value(Cluster& cluster, std::size_t host, ObjectId id,
                 std::uint64_t value) {
  bool done = false;
  cluster.service(host).write(GlobalPtr{id, Object::kDataStart},
                              u64_bytes(value),
                              [&](Status s, const AccessStats&) {
                                ASSERT_TRUE(s.is_ok()) << s.error().to_string();
                                done = true;
                              });
  cluster.settle();
  ASSERT_TRUE(done);
}

void fetch_object(Cluster& cluster, std::size_t host, ObjectId id) {
  bool done = false;
  cluster.fetcher(host).fetch(id, [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.error().to_string();
    done = true;
  });
  cluster.settle();
  ASSERT_TRUE(done);
}

/// push_frag/frag_ack sequencing field (ReliableChannel wire format).
std::uint64_t frag_seq(std::uint32_t msg_id, std::uint32_t frag_idx,
                       std::uint32_t frag_count) {
  return (static_cast<std::uint64_t>(msg_id) << 32) |
         (static_cast<std::uint64_t>(frag_idx) << 16) | frag_count;
}

TEST(CheckTest, CleanScenarioHasNoViolations) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  cluster->settle();
  fetch_object(*cluster, 0, id);
  write_value(*cluster, 1, id, 42);
  fetch_object(*cluster, 0, id);

  EXPECT_TRUE(cluster->checker()->clean())
      << cluster->checker()->report();
  EXPECT_GT(cluster->checker()->events_observed(), 0u);
  EXPECT_TRUE(cluster->fabric().network().wire_digest_armed());
  EXPECT_GT(cluster->fabric().network().wire_digest_events(),
            cluster->checker()->events_observed());
}

// A holder that acknowledged an invalidate at version v then serves an
// image below v: the exact write-invalidate race the coherence layer
// exists to prevent, here forged with a hand-built chunk_resp.
TEST(CheckTest, StaleChunkServeDetected) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  cluster->settle();

  // Two fetch+write rounds: host 0 joins the copyset, is invalidated,
  // and acks — after the second round its acked floor is version 2.
  fetch_object(*cluster, 0, id);
  write_value(*cluster, 1, id, 1);  // object version 1
  fetch_object(*cluster, 0, id);
  write_value(*cluster, 1, id, 2);  // object version 2
  ASSERT_TRUE(cluster->checker()->clean())
      << cluster->checker()->report();

  // Host 0 now serves a chunk of the version-1 image it promised to
  // have destroyed.
  Frame stale;
  stale.type = MsgType::chunk_resp;
  stale.dst_host = cluster->addr_of(1);
  stale.object = id;
  stale.seq = 9001;
  stale.offset = 0;
  stale.length = 8;
  stale.obj_version = 1;
  stale.payload = u64_bytes(0xDEAD);
  cluster->host(0).send_frame(std::move(stale));
  cluster->settle();

  EXPECT_EQ(cluster->checker()->count_of(ViolationClass::stale_serve), 1u);
  ASSERT_FALSE(cluster->checker()->violations().empty());
  const auto& v = cluster->checker()->violations().back();
  EXPECT_EQ(v.cls, ViolationClass::stale_serve);
  EXPECT_NE(v.detail.find("below the floor"), std::string::npos) << v.detail;
  EXPECT_FALSE(v.trace.empty());  // report carries the wire context
}

// The in-network variant: a switch cache that was invalidated (and
// acked) serves its old SRAM image anyway.  The real fill/invalidate
// flow establishes the cache's floor; the stale serve is injected by
// replaying an old chunk_resp from the cache's protocol address.
TEST(CheckTest, StaleSwitchCacheFillServeDetected) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::controller));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  cluster->settle();
  write_value(*cluster, 1, id, 1);  // object version 1

  SwitchNode& tor = cluster->fabric().switch_at(0);
  IncCacheStage cache(tor);
  cluster->checker()->attach_cache(cache);
  CacheGrant grant;
  grant.admit_threshold = 1;
  ASSERT_TRUE(cluster->fabric()
                  .controller()
                  ->enable_switch_cache(tor.id(), grant)
                  .is_ok());
  cluster->settle();

  // Warm the cache (it fills at version 1 and joins the copyset), then
  // write: the invalidate reaches the switch first and it acks, so the
  // cache's acked floor is now version 2.
  fetch_object(*cluster, 0, id);
  cluster->fetcher(0).evict(id);
  fetch_object(*cluster, 0, id);
  ASSERT_GT(cache.counters().admissions, 0u);
  write_value(*cluster, 1, id, 2);  // object version 2
  ASSERT_GT(cache.counters().invalidations, 0u);
  ASSERT_TRUE(cluster->checker()->clean())
      << cluster->checker()->report();

  // The "cache" now answers with the version-1 image it acknowledged
  // destroying — injected straight onto the switch's ports.
  Frame stale;
  stale.type = MsgType::chunk_resp;
  stale.src_host = cache.addr();
  stale.dst_host = cluster->addr_of(0);
  stale.object = id;
  stale.seq = 9002;
  stale.offset = 0;
  stale.length = 8;
  stale.obj_version = 1;
  stale.payload = u64_bytes(0xBEEF);
  Packet pkt;
  pkt.data = stale.encode();
  tor.flood(kInvalidPort, pkt);
  cluster->settle();

  EXPECT_EQ(cluster->checker()->count_of(ViolationClass::stale_serve), 1u);
  ASSERT_FALSE(cluster->checker()->violations().empty());
  const auto& v = cluster->checker()->violations().back();
  EXPECT_EQ(v.cls, ViolationClass::stale_serve);
  EXPECT_NE(v.detail.find("inc-cache"), std::string::npos) << v.detail;
}

// An ack for a fragment that was never delivered would falsely complete
// a reliable transfer (data loss reported as success).
TEST(CheckTest, ForgedFragAckDetected) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 256);
  ASSERT_TRUE(obj.has_value());
  cluster->settle();

  Frame forged;
  forged.type = MsgType::frag_ack;
  forged.dst_host = cluster->addr_of(1);
  forged.object = (*obj)->id();
  forged.seq = frag_seq(/*msg_id=*/77, /*frag_idx=*/0, /*frag_count=*/1);
  cluster->host(0).send_frame(std::move(forged));
  cluster->settle();

  EXPECT_EQ(cluster->checker()->count_of(ViolationClass::forged_ack), 1u);
  ASSERT_FALSE(cluster->checker()->violations().empty());
  EXPECT_EQ(cluster->checker()->violations().back().cls,
            ViolationClass::forged_ack);
}

// The checker records each delivery at the frame's ARRIVAL, though the
// delivery event runs a residence later (at the end of the pipeline).
TEST(CheckTest, WireEventsCarryArrivalTime) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 256);
  ASSERT_TRUE(obj.has_value());
  cluster->settle();

  // The forged ack is caught on its first hop, into host 0's switch;
  // that switch's pipeline sees it one pipeline delay after arrival.
  Fabric& fabric = cluster->fabric();
  const NodeId sender = cluster->host(0).id();
  const NodeId first_hop = fabric.network().peer_of(sender, 0);
  SwitchNode* sw = nullptr;
  for (std::size_t i = 0; i < fabric.switch_count(); ++i) {
    if (fabric.switch_at(i).id() == first_hop) sw = &fabric.switch_at(i);
  }
  ASSERT_NE(sw, nullptr);
  SimTime piped_at = -1;
  const SwitchNode::PreMatchHook inner = sw->pre_match_hook();
  sw->set_pre_match_hook(
      [&, inner](SwitchNode& s, PortId in, const Packet& pkt) {
        auto f = Frame::decode(pkt.data);
        if (f && f->type == MsgType::frag_ack) piped_at = s.event_loop().now();
        return inner ? inner(s, in, pkt) : false;
      });

  Frame forged;
  forged.type = MsgType::frag_ack;
  forged.dst_host = cluster->addr_of(1);
  forged.object = (*obj)->id();
  forged.seq = frag_seq(/*msg_id=*/77, /*frag_idx=*/0, /*frag_count=*/1);
  cluster->host(0).send_frame(std::move(forged));
  cluster->settle();

  ASSERT_GE(piped_at, 0);
  const SimTime arrived = piped_at - sw->config().pipeline_delay;
  ASSERT_EQ(cluster->checker()->count_of(ViolationClass::forged_ack), 1u);
  const check::Violation& v = cluster->checker()->violations().back();
  EXPECT_EQ(v.at, arrived);
  ASSERT_FALSE(v.trace.empty());
  const check::WireEvent& ev = v.trace.back();
  EXPECT_EQ(ev.type, MsgType::frag_ack);
  EXPECT_EQ(ev.from, sender);
  EXPECT_EQ(ev.to, first_hop);
  EXPECT_EQ(ev.at, arrived);
}

// Two replicas of the same lineage promoting under the same epoch: the
// split-brain the epoch fence exists to make impossible.  Detected
// twice — at the second promotion (same epoch claimed twice) and again
// by the quiesce scan (two live non-recovering homes).
TEST(CheckTest, DoubleHomePromotionDetected) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e, 3));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  cluster->settle();
  for (std::size_t to : {std::size_t{0}, std::size_t{2}}) {
    bool done = false;
    cluster->replicate_object(id, 1, to, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.error().to_string();
      done = true;
    });
    cluster->settle();
    ASSERT_TRUE(done);
  }
  ASSERT_TRUE(cluster->checker()->clean())
      << cluster->checker()->report();

  // Nobody crashed and nobody was deposed, yet both replicas claim the
  // home role — same base epoch, so the second claim collides.
  cluster->replicas(0).promote(id);
  cluster->replicas(2).promote(id);
  EXPECT_GE(cluster->checker()->count_of(ViolationClass::split_brain), 1u);
  ASSERT_FALSE(cluster->checker()->violations().empty());
  const auto& v = cluster->checker()->violations().front();
  EXPECT_EQ(v.cls, ViolationClass::split_brain);
  EXPECT_FALSE(v.epoch_trail.empty());  // report carries the lineage

  // The quiesce scan independently sees more than one live home.
  cluster->settle();
  EXPECT_GE(cluster->checker()->count_of(ViolationClass::split_brain), 2u);
}

// Invalidation order: switch caches sit on the read path and must be
// invalidated before any host replica, or a re-fetching host can be
// answered by a not-yet-invalidated switch.
TEST(CheckTest, HostBeforeCacheInvalidateOrderDetected) {
  auto cluster = Cluster::build(checked_cluster(DiscoveryScheme::e2e));
  ASSERT_NE(cluster->checker(), nullptr);
  cluster->checker()->set_abort_on_violation(false);

  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  cluster->settle();

  auto send_invalidate = [&](HostAddr dst) {
    Frame inv;
    inv.type = MsgType::invalidate;
    inv.dst_host = dst;
    inv.object = id;
    inv.obj_version = 7;
    cluster->host(1).send_frame(std::move(inv));
    cluster->settle();
  };
  send_invalidate(cluster->addr_of(0));       // host replica first: wrong
  send_invalidate(inc_cache_addr(0));         // ...then the switch cache

  EXPECT_EQ(cluster->checker()->count_of(ViolationClass::invalidate_order),
            1u);
  ASSERT_FALSE(cluster->checker()->violations().empty());
  EXPECT_EQ(cluster->checker()->violations().back().cls,
            ViolationClass::invalidate_order);
}

}  // namespace
}  // namespace objrpc
