// Tests for the atomic memory operations and the in-network
// synchronization offload (§5).
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "net/netsync.hpp"

namespace objrpc {
namespace {

struct AtomicWorld {
  std::unique_ptr<Cluster> cluster;
  GlobalPtr word;

  explicit AtomicWorld(DiscoveryScheme scheme = DiscoveryScheme::controller,
                       std::uint64_t initial = 100) {
    ClusterConfig cfg;
    cfg.fabric.scheme = scheme;
    cfg.fabric.seed = 55;
    cluster = Cluster::build(cfg);
    auto obj = cluster->create_object(1, 4096);
    EXPECT_TRUE(obj);
    auto off = (*obj)->alloc(8);
    EXPECT_TRUE(off);
    EXPECT_TRUE((*obj)->write_u64(*off, initial));
    word = GlobalPtr{(*obj)->id(), *off};
    cluster->settle();
  }

  std::uint64_t current() {
    auto obj = cluster->host(1).store().get(word.object);
    EXPECT_TRUE(obj);
    return *(*obj)->read_u64(word.offset);
  }

  /// Send an atomic_req carrying op byte `op` from host 0 to the word's
  /// home, settle, and return the replies host 0 received for it.
  /// Call at most once per world.
  std::vector<Frame> send_raw_atomic(std::uint8_t op) {
    constexpr std::uint64_t kSeq = 4242;
    const NodeId client = cluster->host(0).id();
    cluster->fabric().network().add_tap(
        [this, client](NodeId, NodeId to, const Packet& pkt) {
          if (to != client) return;
          auto f = Frame::decode(pkt.data);
          if (f && f->seq == kSeq) raw_replies.push_back(*f);
        });
    Frame req;
    req.type = MsgType::atomic_req;
    req.dst_host = cluster->addr_of(1);
    req.object = word.object;
    req.seq = kSeq;
    req.offset = word.offset;
    req.payload =
        encode_atomic_request({static_cast<AtomicOp>(op), 5, 0});
    cluster->host(0).send_frame(std::move(req));
    cluster->settle();
    return raw_replies;
  }
  std::vector<Frame> raw_replies;
};

/// The reply is a nack carrying Errc::malformed.
void expect_malformed_nack(const std::vector<Frame>& replies) {
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MsgType::nack);
  auto info = decode_nack_payload(replies[0].payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->code, Errc::malformed);
}

TEST(Atomics, FetchAddReturnsOldAndApplies) {
  AtomicWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  AccessStats stats;
  w.cluster->service(0).atomic_fetch_add(
      w.word, 5, [&](Result<AtomicResponse> res, const AccessStats& s) {
        r = std::move(res);
        stats = s;
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->old_value, 100u);
  EXPECT_TRUE(r->applied);
  EXPECT_EQ(stats.rtts, 1);
  EXPECT_EQ(w.current(), 105u);
}

TEST(Atomics, CasSucceedsOnMatch) {
  AtomicWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  w.cluster->service(0).atomic_cas(
      w.word, 100, 777,
      [&](Result<AtomicResponse> res, const AccessStats&) {
        r = std::move(res);
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->applied);
  EXPECT_EQ(r->old_value, 100u);
  EXPECT_EQ(w.current(), 777u);
}

TEST(Atomics, CasFailsOnMismatch) {
  AtomicWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  w.cluster->service(0).atomic_cas(
      w.word, 999, 777,
      [&](Result<AtomicResponse> res, const AccessStats&) {
        r = std::move(res);
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->applied);
  EXPECT_EQ(r->old_value, 100u);
  EXPECT_EQ(w.current(), 100u);  // untouched
}

TEST(Atomics, LocalFastPath) {
  AtomicWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  AccessStats stats;
  // Issue from the HOME host: no network round trip.
  w.cluster->service(1).atomic_fetch_add(
      w.word, 1, [&](Result<AtomicResponse> res, const AccessStats& s) {
        r = std::move(res);
        stats = s;
      });
  ASSERT_TRUE(r);
  EXPECT_EQ(stats.rtts, 0);
  EXPECT_EQ(w.current(), 101u);
}

TEST(Atomics, SequentialCountingIsExact) {
  AtomicWorld w(DiscoveryScheme::controller, 0);
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    w.cluster->service(i % 2 == 0 ? 0 : 2)
        .atomic_fetch_add(w.word, 1,
                          [&](Result<AtomicResponse> r, const AccessStats&) {
                            ASSERT_TRUE(r);
                            ++done;
                          });
  }
  w.cluster->settle();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(w.current(), 20u);  // no lost updates
}

TEST(Atomics, InvalidatesCachedCopies) {
  AtomicWorld w;
  // Host 0 caches the object, then host 2 bumps the counter.
  Status fetched{Errc::unavailable};
  w.cluster->fetcher(0).fetch(w.word.object, [&](Status s) { fetched = s; });
  w.cluster->settle();
  ASSERT_TRUE(fetched.is_ok());
  w.cluster->service(2).atomic_fetch_add(
      w.word, 1, [](Result<AtomicResponse>, const AccessStats&) {});
  w.cluster->settle();
  EXPECT_FALSE(w.cluster->host(0).store().contains(w.word.object));
}

TEST(Atomics, UnknownOpIsNackedAndNotApplied) {
  // An op outside {fetch_add, compare_swap} must not be answered
  // "applied", counted, or invalidate the copyset.
  AtomicWorld w;
  expect_malformed_nack(w.send_raw_atomic(2));
  EXPECT_EQ(w.cluster->service(1).counters().atomics_served, 0u);
  EXPECT_EQ(w.current(), 100u);
  EXPECT_FALSE(decode_atomic_request(encode_atomic_request(
                   {static_cast<AtomicOp>(2), 0, 0}))
                   .has_value());
}

TEST(Atomics, AtomicPayloadCodecsRoundTrip) {
  const AtomicRequest req{AtomicOp::compare_swap, 42, 7};
  auto back = decode_atomic_request(encode_atomic_request(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, AtomicOp::compare_swap);
  EXPECT_EQ(back->operand, 42u);
  EXPECT_EQ(back->expected, 7u);
  EXPECT_FALSE(decode_atomic_request(Bytes{1}).has_value());

  const AtomicResponse resp{9, false};
  auto rback = decode_atomic_response(encode_atomic_response(resp));
  ASSERT_TRUE(rback.has_value());
  EXPECT_EQ(rback->old_value, 9u);
  EXPECT_FALSE(rback->applied);
}

// --- in-network offload ---------------------------------------------------------

struct OffloadWorld : AtomicWorld {
  std::unique_ptr<SyncOffload> offload;

  OffloadWorld() : AtomicWorld(DiscoveryScheme::controller, 0) {
    // Claim the word on host0's access switch (switch 0).
    offload = std::make_unique<SyncOffload>(cluster->fabric().switch_at(0));
    offload->claim(word.object, word.offset, 0);
  }
};

TEST(SyncOffload, ServesAtomicsFromTheSwitch) {
  OffloadWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  AccessStats stats;
  w.cluster->service(0).atomic_fetch_add(
      w.word, 3, [&](Result<AtomicResponse> res, const AccessStats& s) {
        r = std::move(res);
        stats = s;
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->old_value, 0u);
  EXPECT_EQ(w.offload->counters().served, 1u);
  EXPECT_EQ(*w.offload->peek(w.word.object, w.word.offset), 3u);
  // The home host never saw the request.
  EXPECT_EQ(w.cluster->service(1).counters().atomics_served, 0u);
}

TEST(SyncOffload, ReplyEchoesTheRequesterTenant) {
  OffloadWorld w;
  // The atomic_resp frames host 0 receives: frame tag and packet tag.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tags;
  const NodeId client = w.cluster->host(0).id();
  w.cluster->fabric().network().add_tap(
      [&](NodeId, NodeId to, const Packet& pkt) {
        if (to != client) return;
        auto f = Frame::decode(pkt.data);
        if (f && f->type == MsgType::atomic_resp) {
          tags.emplace_back(f->tenant, pkt.tenant);
        }
      });
  Result<AtomicResponse> r{Errc::unavailable};
  AccessOptions opts;
  opts.tenant = 5;
  w.cluster->service(0).atomic_fetch_add(
      w.word, 3,
      [&](Result<AtomicResponse> res, const AccessStats&) {
        r = std::move(res);
      },
      opts);
  w.cluster->settle();
  ASSERT_TRUE(r);
  ASSERT_EQ(w.offload->counters().served, 1u);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].first, 5u);
  EXPECT_EQ(tags[0].second, 5u);
}

TEST(SyncOffload, SwitchPathIsFasterThanHostPath) {
  // Offloaded: host0 -> sw0 (answered there).  Host path: host0 -> sw0
  // -> ... -> host1 and back.
  OffloadWorld w;
  SimDuration offloaded = 0, host_path = 0;
  w.cluster->service(0).atomic_fetch_add(
      w.word, 1, [&](Result<AtomicResponse> r, const AccessStats& s) {
        ASSERT_TRUE(r);
        offloaded = s.elapsed();
      });
  w.cluster->settle();
  // Release the register; requests go back to the home.
  ASSERT_TRUE(w.offload->release(w.word.object, w.word.offset).has_value());
  w.cluster->service(0).atomic_fetch_add(
      w.word, 1, [&](Result<AtomicResponse> r, const AccessStats& s) {
        ASSERT_TRUE(r);
        host_path = s.elapsed();
      });
  w.cluster->settle();
  EXPECT_LT(offloaded, host_path);
}

TEST(SyncOffload, DrainReturnsFinalValueForWriteback) {
  OffloadWorld w;
  for (int i = 0; i < 5; ++i) {
    w.cluster->service(0).atomic_fetch_add(
        w.word, 10, [](Result<AtomicResponse>, const AccessStats&) {});
  }
  w.cluster->settle();
  auto final_value = w.offload->release(w.word.object, w.word.offset);
  ASSERT_TRUE(final_value.has_value());
  EXPECT_EQ(*final_value, 50u);
  EXPECT_EQ(w.offload->claimed_words(), 0u);
  // Write back to the home (the durability point).
  Status wb{Errc::unavailable};
  Bytes raw(8);
  std::memcpy(raw.data(), &*final_value, 8);
  w.cluster->service(0).write(w.word, raw,
                              [&](Status s, const AccessStats&) { wb = s; });
  w.cluster->settle();
  ASSERT_TRUE(wb.is_ok());
  EXPECT_EQ(w.current(), 50u);
}

TEST(SyncOffload, UnclaimedWordsPassThrough) {
  OffloadWorld w;
  // A different word in the same object is NOT claimed: home serves it.
  auto obj = w.cluster->host(1).store().get(w.word.object);
  ASSERT_TRUE(obj);
  auto off2 = (*obj)->alloc(8);
  ASSERT_TRUE(off2);
  ASSERT_TRUE((*obj)->write_u64(*off2, 7));
  Result<AtomicResponse> r{Errc::unavailable};
  w.cluster->service(0).atomic_fetch_add(
      GlobalPtr{w.word.object, *off2}, 1,
      [&](Result<AtomicResponse> res, const AccessStats&) {
        r = std::move(res);
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->old_value, 7u);
  EXPECT_EQ(w.cluster->service(1).counters().atomics_served, 1u);
  EXPECT_EQ(w.offload->counters().served, 0u);
}

TEST(SyncOffload, UnknownOpTakesTheNormalPath) {
  // A claimed register leaves an unknown op to the home, which nacks it.
  OffloadWorld w;
  expect_malformed_nack(w.send_raw_atomic(2));
  EXPECT_EQ(w.offload->counters().served, 0u);
  EXPECT_EQ(*w.offload->peek(w.word.object, w.word.offset), 0u);
  EXPECT_EQ(w.cluster->service(1).counters().atomics_served, 0u);
}

TEST(SyncOffload, CasInTheSwitch) {
  OffloadWorld w;
  Result<AtomicResponse> r{Errc::unavailable};
  w.cluster->service(0).atomic_cas(
      w.word, 0, 11, [&](Result<AtomicResponse> res, const AccessStats&) {
        r = std::move(res);
      });
  w.cluster->settle();
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->applied);
  EXPECT_EQ(*w.offload->peek(w.word.object, w.word.offset), 11u);
  // Losing CAS.
  Result<AtomicResponse> r2{Errc::unavailable};
  w.cluster->service(0).atomic_cas(
      w.word, 0, 22, [&](Result<AtomicResponse> res, const AccessStats&) {
        r2 = std::move(res);
      });
  w.cluster->settle();
  ASSERT_TRUE(r2);
  EXPECT_FALSE(r2->applied);
  EXPECT_EQ(w.offload->counters().cas_failures, 1u);
}

}  // namespace
}  // namespace objrpc
