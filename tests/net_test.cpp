// Integration tests for the object network: frame codec, hosts, reliable
// transport, both discovery schemes, object movement, subscriptions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/subscription.hpp"

namespace objrpc {
namespace {

ObjectId fixed_id(std::uint64_t n) { return ObjectId{0x1234, n}; }

// --- frame codec --------------------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip) {
  Frame f;
  f.type = MsgType::read_req;
  f.flags = kFlagBroadcast;
  f.src_host = 7;
  f.dst_host = 9;
  f.object = fixed_id(42);
  f.seq = 123456;
  f.offset = 64;
  f.length = 256;
  f.epoch = 5;
  f.payload = Bytes{1, 2, 3};
  auto back = Frame::decode(f.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->type, MsgType::read_req);
  EXPECT_TRUE(back->is_broadcast());
  EXPECT_EQ(back->src_host, 7u);
  EXPECT_EQ(back->dst_host, 9u);
  EXPECT_EQ(back->object, fixed_id(42));
  EXPECT_EQ(back->seq, 123456u);
  EXPECT_EQ(back->offset, 64u);
  EXPECT_EQ(back->length, 256u);
  EXPECT_EQ(back->epoch, 5u);
  EXPECT_EQ(back->payload, (Bytes{1, 2, 3}));
}

TEST(Frame, PeekMatchesFullDecode) {
  Frame f;
  f.type = MsgType::write_req;
  f.src_host = 3;
  f.dst_host = 4;
  f.object = fixed_id(9);
  f.payload = Bytes(100, 0xCC);
  Packet pkt;
  pkt.data = f.encode();
  auto view = Frame::peek(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, MsgType::write_req);
  EXPECT_EQ(view->src_host, 3u);
  EXPECT_EQ(view->dst_host, 4u);
  EXPECT_EQ(view->object, fixed_id(9));
}

TEST(Frame, DecodeRejectsGarbage) {
  Bytes garbage{1, 2, 3};
  EXPECT_FALSE(Frame::decode(garbage));
  Frame f;
  f.type = MsgType::nack;
  Bytes good = f.encode();
  good[0] = 9;  // bad version
  EXPECT_FALSE(Frame::decode(good));
}

TEST(Frame, DecodeHeaderAcceptsExactlyWhatDecodeAccepts) {
  // Seeded mutations of encoded frames (truncation, trailing bytes, byte
  // flips, a bad version, a rewritten payload length): decode_header
  // must accept exactly what decode accepts, with the same header.
  Rng rng(0xF4A3E);
  int accepted = 0;
  int rejected = 0;
  for (std::size_t payload : {0u, 1u, 127u, 128u, 300u}) {
    Frame f;
    f.type = MsgType::chunk_resp;
    f.flags = kFlagBroadcast;
    f.epoch = 3;
    f.src_host = 11;
    f.dst_host = 12;
    f.object = fixed_id(payload);
    f.seq = 77;
    f.offset = 4096;
    f.length = static_cast<std::uint32_t>(payload);
    f.obj_version = 9;
    f.trace = obs::TraceContext{5, 6};
    f.tenant = 2;
    f.payload = Bytes(payload, 0xAB);
    const Bytes good = f.encode();
    for (int round = 0; round < 200; ++round) {
      Bytes buf = good;
      switch (rng.next_below(6)) {
        case 0:
          break;  // unmodified
        case 1:
          buf.resize(rng.next_below(buf.size()));
          break;
        case 2:
          for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n) {
            buf.push_back(static_cast<std::uint8_t>(rng.next_u64()));
          }
          break;
        case 3:
          buf[rng.next_below(buf.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
          break;
        case 4:
          buf[0] = static_cast<std::uint8_t>(rng.next_below(3));
          break;
        default: {
          // The payload length varint, just ahead of the payload.
          const std::size_t varint = payload < 128 ? 1 : 2;
          buf[good.size() - payload - varint] =
              static_cast<std::uint8_t>(rng.next_u64());
          break;
        }
      }
      const auto full = Frame::decode(buf);
      std::size_t payload_size = 12345;
      const auto head = Frame::decode_header(buf, payload_size);
      ASSERT_EQ(static_cast<bool>(full), static_cast<bool>(head))
          << "payload " << payload << " round " << round;
      if (!full) {
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(head->version, full->version);
      EXPECT_EQ(head->type, full->type);
      EXPECT_EQ(head->flags, full->flags);
      EXPECT_EQ(head->epoch, full->epoch);
      EXPECT_EQ(head->src_host, full->src_host);
      EXPECT_EQ(head->dst_host, full->dst_host);
      EXPECT_EQ(head->object, full->object);
      EXPECT_EQ(head->seq, full->seq);
      EXPECT_EQ(head->offset, full->offset);
      EXPECT_EQ(head->length, full->length);
      EXPECT_EQ(head->obj_version, full->obj_version);
      EXPECT_EQ(head->trace.trace, full->trace.trace);
      EXPECT_EQ(head->trace.parent, full->trace.parent);
      EXPECT_EQ(head->tenant, full->tenant);
      EXPECT_TRUE(head->payload.empty());
      EXPECT_EQ(payload_size, full->payload.size());
    }
  }
  // Both outcomes must actually occur for the sweep to mean anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(Frame, NackPayloadRoundTrip) {
  auto payload = encode_nack_payload(Errc::permission_denied);
  auto info = decode_nack_payload(payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->code, Errc::permission_denied);
  EXPECT_EQ(info->hint, kUnspecifiedHost);
  EXPECT_FALSE(decode_nack_payload(Bytes{}).has_value());

  auto hinted = decode_nack_payload(encode_nack_payload(Errc::moved, 7));
  ASSERT_TRUE(hinted.has_value());
  EXPECT_EQ(hinted->code, Errc::moved);
  EXPECT_EQ(hinted->hint, 7u);
}

TEST(Frame, InstallRuleRoundTrip) {
  InstallRule rule{U128{5, 6}, 3};
  auto back = decode_install_rule(encode_install_rule(rule));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->key, (U128{5, 6}));
  EXPECT_EQ(back->out_port, 3u);
}

TEST(Frame, HostAndObjectKeysDisjoint) {
  // Host keys live under the reserved prefix.
  EXPECT_EQ(host_route_key(5).hi, kHostKeyPrefix);
  EXPECT_NE(host_route_key(5), object_route_key(fixed_id(5)));
}

// --- fabric fixtures ------------------------------------------------------------

FabricConfig base_config(DiscoveryScheme scheme, std::uint64_t seed = 7) {
  FabricConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  return cfg;
}

/// Creates an object on `owner` filled with a recognizable pattern and
/// returns a pointer to its payload.
GlobalPtr make_test_object(Fabric& fabric, std::size_t owner,
                           std::uint64_t size = 4096) {
  auto obj = fabric.service(owner).create_object(size);
  EXPECT_TRUE(obj);
  auto off = (*obj)->alloc(256);
  EXPECT_TRUE(off);
  Bytes pattern(256);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_TRUE((*obj)->write(*off, pattern));
  return GlobalPtr{(*obj)->id(), *off};
}

// --- E2E scheme ------------------------------------------------------------------

TEST(E2EScheme, FirstAccessBroadcastsSecondIsCached) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);

  Result<Bytes> r1{Errc::unavailable};
  AccessStats s1;
  fabric->service(0).read(ptr, 16, [&](Result<Bytes> r, const AccessStats& s) {
    r1 = std::move(r);
    s1 = s;
  });
  fabric->settle();
  ASSERT_TRUE(r1) << r1.error().to_string();
  EXPECT_EQ((*r1)[5], 5);
  EXPECT_TRUE(s1.used_broadcast);
  EXPECT_EQ(s1.rtts, 2);  // discover + access
  EXPECT_EQ(fabric->service(0).discovery().broadcasts_sent(), 1u);

  Result<Bytes> r2{Errc::unavailable};
  AccessStats s2;
  fabric->service(0).read(ptr, 16, [&](Result<Bytes> r, const AccessStats& s) {
    r2 = std::move(r);
    s2 = s;
  });
  fabric->settle();
  ASSERT_TRUE(r2);
  EXPECT_FALSE(s2.used_broadcast);
  EXPECT_EQ(s2.rtts, 1);  // cached: unicast access only
  EXPECT_EQ(fabric->service(0).discovery().broadcasts_sent(), 1u);
  EXPECT_LT(s2.elapsed(), s1.elapsed());
}

TEST(E2EScheme, LocalAccessIsFree) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 0);
  Result<Bytes> r{Errc::unavailable};
  AccessStats s;
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> res, const AccessStats& st) {
    r = std::move(res);
    s = st;
  });
  fabric->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(s.rtts, 0);
  EXPECT_EQ(s.elapsed(), 0);
}

TEST(E2EScheme, WriteGoesToHome) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  Status ws{Errc::unavailable};
  fabric->service(0).write(ptr, Bytes{9, 9, 9},
                           [&](Status s, const AccessStats&) { ws = s; });
  fabric->settle();
  ASSERT_TRUE(ws.is_ok());
  auto obj = fabric->host(1).store().get(ptr.object);
  ASSERT_TRUE(obj);
  auto span = (*obj)->read(ptr.offset, 3);
  ASSERT_TRUE(span);
  EXPECT_EQ((*span)[0], 9);
}

TEST(E2EScheme, MissingObjectFailsDiscovery) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  Result<Bytes> r{Errc::ok};
  fabric->service(0).read(GlobalPtr{fixed_id(999), 64}, 8,
                          [&](Result<Bytes> res, const AccessStats&) {
                            r = std::move(res);
                          });
  fabric->settle();
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::not_found);
  // Discovery retried its full budget of broadcasts.
  EXPECT_EQ(fabric->service(0).discovery().broadcasts_sent(), 3u);
}

TEST(E2EScheme, StaleCacheNackTriggersRediscovery) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);

  // Warm host0's cache.
  fabric->service(0).read(ptr, 8, [](Result<Bytes>, const AccessStats&) {});
  fabric->settle();
  ASSERT_TRUE(fabric->e2e_of(0)->is_cached(ptr.object));

  // Move the object to host2.
  Status moved{Errc::unavailable};
  fabric->service(1).move_object(ptr.object, fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  EXPECT_FALSE(fabric->host(1).store().contains(ptr.object));
  EXPECT_TRUE(fabric->host(2).store().contains(ptr.object));

  // The stale cached route NACKs, is evicted, and rediscovery succeeds.
  Result<Bytes> r{Errc::unavailable};
  AccessStats s;
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> res, const AccessStats& st) {
    r = std::move(res);
    s = st;
  });
  fabric->settle();
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(s.nacks, 1);
  EXPECT_EQ(s.rtts, 3);  // failed access + discover + access
  EXPECT_TRUE(s.used_broadcast);
}

TEST(E2EScheme, KnownInvalidationCostsTwoRtts) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->service(0).read(ptr, 8, [](Result<Bytes>, const AccessStats&) {});
  fabric->settle();

  fabric->service(1).move_object(ptr.object, fabric->host(2).addr(),
                                 [](Status) {});
  fabric->settle();
  // The Fig. 3 model: the host knows movement invalidated its entry.
  fabric->e2e_of(0)->invalidate(ptr.object);

  Result<Bytes> r{Errc::unavailable};
  AccessStats s;
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> res, const AccessStats& st) {
    r = std::move(res);
    s = st;
  });
  fabric->settle();
  ASSERT_TRUE(r);
  EXPECT_EQ(s.rtts, 2);
  EXPECT_EQ(s.nacks, 0);
}

TEST(E2EScheme, ConcurrentResolvesCoalesce) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    fabric->service(0).read(
        ptr, 8, [&](Result<Bytes> r, const AccessStats&) {
          EXPECT_TRUE(r);
          ++done;
        });
  }
  fabric->settle();
  EXPECT_EQ(done, 5);
  // One broadcast served all five.
  EXPECT_EQ(fabric->service(0).discovery().broadcasts_sent(), 1u);
}

TEST(E2EScheme, SwitchesLearnHostRoutes) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->service(0).read(ptr, 8, [](Result<Bytes>, const AccessStats&) {});
  fabric->settle();
  // Host0's broadcast taught every switch where host0 lives.
  for (std::size_t i = 0; i < fabric->switch_count(); ++i) {
    EXPECT_TRUE(fabric->switch_at(i)
                    .table()
                    .lookup(host_route_key(fabric->host(0).addr()))
                    .has_value())
        << "switch " << i;
  }
}

// --- controller scheme ------------------------------------------------------------

TEST(ControllerScheme, UniformOneRttNoBroadcast) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();  // let the advertise install routes

  Result<Bytes> r{Errc::unavailable};
  AccessStats s;
  fabric->service(0).read(ptr, 16, [&](Result<Bytes> res, const AccessStats& st) {
    r = std::move(res);
    s = st;
  });
  fabric->settle();
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ((*r)[3], 3);
  EXPECT_EQ(s.rtts, 1);
  EXPECT_FALSE(s.used_broadcast);
  EXPECT_EQ(fabric->service(0).discovery().broadcasts_sent(), 0u);
  ASSERT_NE(fabric->controller(), nullptr);
  EXPECT_EQ(fabric->controller()->directory_size(), 1u);
}

TEST(ControllerScheme, RepeatedAccessSameLatency) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();

  SimDuration first = 0, second = 0;
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> r, const AccessStats& s) {
    ASSERT_TRUE(r);
    first = s.elapsed();
  });
  fabric->settle();
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> r, const AccessStats& s) {
    ASSERT_TRUE(r);
    second = s.elapsed();
  });
  fabric->settle();
  EXPECT_EQ(first, second);  // uniform latency — the paper's key property
}

TEST(ControllerScheme, MoveUpdatesRoutes) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();

  Status moved{Errc::unavailable};
  fabric->service(1).move_object(ptr.object, fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  EXPECT_TRUE(fabric->host(2).store().contains(ptr.object));

  Result<Bytes> r{Errc::unavailable};
  AccessStats s;
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> res, const AccessStats& st) {
    r = std::move(res);
    s = st;
  });
  fabric->settle();
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(s.rtts, 1);  // still uniform after movement
  // Directory follows the object.
  auto home = fabric->controller()->locate(ptr.object);
  ASSERT_TRUE(home);
  EXPECT_EQ(*home, fabric->host(2).addr());
}

TEST(ControllerScheme, PuntFallbackRedirects) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  // Create the object but remove its route from every switch, leaving
  // the directory intact: accesses must miss, punt, and be redirected.
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  for (std::size_t i = 0; i < fabric->switch_count(); ++i) {
    (void)fabric->switch_at(i).table().erase(object_route_key(ptr.object));
  }
  Result<Bytes> r{Errc::unavailable};
  fabric->service(0).read(ptr, 8, [&](Result<Bytes> res, const AccessStats&) {
    r = std::move(res);
  });
  fabric->settle();
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_GE(fabric->controller()->counters().punts_redirected, 1u);
}

TEST(ControllerScheme, PuntRedirectKeepsTheTenant) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  for (std::size_t i = 0; i < fabric->switch_count(); ++i) {
    (void)fabric->switch_at(i).table().erase(object_route_key(ptr.object));
  }
  // Every read_req that reaches the home, with its packet's tenant: the
  // redirected leg leaves the controller, not the tagged requester.
  std::vector<std::uint32_t> tenants_at_home;
  const NodeId home = fabric->host(1).id();
  fabric->network().add_tap([&](NodeId, NodeId to, const Packet& pkt) {
    auto view = Frame::peek(pkt);
    if (to == home && view && view->type == MsgType::read_req) {
      tenants_at_home.push_back(pkt.tenant);
    }
  });
  Result<Bytes> r{Errc::unavailable};
  AccessOptions opts;
  opts.tenant = 7;
  fabric->service(0).read(
      ptr, 8, [&](Result<Bytes> res, const AccessStats&) { r = std::move(res); },
      opts);
  fabric->settle();
  ASSERT_TRUE(r) << r.error().to_string();
  ASSERT_GE(fabric->controller()->counters().punts_redirected, 1u);
  ASSERT_FALSE(tenants_at_home.empty());
  for (std::uint32_t t : tenants_at_home) EXPECT_EQ(t, 7u);
}

TEST(ControllerScheme, WithdrawOnlyIfStillOwner) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  // Move 1 -> 2; the new advertise must survive the old withdraw.
  fabric->service(1).move_object(ptr.object, fabric->host(2).addr(),
                                 [](Status) {});
  fabric->settle();
  EXPECT_EQ(fabric->controller()->directory_size(), 1u);
  auto home = fabric->controller()->locate(ptr.object);
  ASSERT_TRUE(home);
  EXPECT_EQ(*home, fabric->host(2).addr());
}

// --- scheme-parameterized properties ------------------------------------------------

class SchemeParam : public ::testing::TestWithParam<DiscoveryScheme> {};

TEST_P(SchemeParam, ReadBackMatchesWrittenData) {
  auto fabric = Fabric::build(base_config(GetParam()));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  Result<Bytes> r{Errc::unavailable};
  fabric->service(0).read(ptr, 256, [&](Result<Bytes> res, const AccessStats&) {
    r = std::move(res);
  });
  fabric->settle();
  ASSERT_TRUE(r);
  ASSERT_EQ(r->size(), 256u);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ((*r)[i], static_cast<std::uint8_t>(i));
  }
}

TEST_P(SchemeParam, OutOfRangeReadNacks) {
  auto fabric = Fabric::build(base_config(GetParam()));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  Result<Bytes> r{Errc::ok};
  fabric->service(0).read(GlobalPtr{ptr.object, 1 << 20}, 8,
                          [&](Result<Bytes> res, const AccessStats&) {
                            r = std::move(res);
                          });
  fabric->settle();
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::out_of_range);
}

TEST_P(SchemeParam, MovedObjectContentIdentical) {
  auto fabric = Fabric::build(base_config(GetParam()));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  auto before = fabric->host(1).store().get(ptr.object);
  ASSERT_TRUE(before);
  const Bytes image = (*before)->raw_bytes();

  Status moved{Errc::unavailable};
  fabric->service(1).move_object(ptr.object, fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  auto after = fabric->host(2).store().get(ptr.object);
  ASSERT_TRUE(after);
  EXPECT_EQ((*after)->raw_bytes(), image);  // byte-exact movement
}

TEST_P(SchemeParam, ManySequentialAccessesAllSucceed) {
  auto fabric = Fabric::build(base_config(GetParam()));
  std::vector<GlobalPtr> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(make_test_object(*fabric, 1 + (i % 2)));
  }
  fabric->settle();
  int ok = 0;
  for (const auto& ptr : ptrs) {
    fabric->service(0).read(ptr, 8, [&](Result<Bytes> r, const AccessStats&) {
      ok += r.has_value();
    });
  }
  fabric->settle();
  EXPECT_EQ(ok, 10);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeParam,
                         ::testing::Values(DiscoveryScheme::e2e,
                                           DiscoveryScheme::controller));

// --- access lifecycle -----------------------------------------------------------

enum class AccessKind { read, write, fetch_add, cas };
enum class Terminal {
  remote_ok,
  local_ok,
  nack,
  local_nack,
  discovery_failure,
  exhausted
};

const char* access_kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::read:
      return "read";
    case AccessKind::write:
      return "write";
    case AccessKind::fetch_add:
      return "fetch_add";
    case AccessKind::cas:
      return "cas";
  }
  return "?";
}

const char* terminal_name(Terminal t) {
  switch (t) {
    case Terminal::remote_ok:
      return "RemoteOk";
    case Terminal::local_ok:
      return "LocalOk";
    case Terminal::nack:
      return "OutOfRangeNack";
    case Terminal::local_nack:
      return "LocalOutOfRange";
    case Terminal::discovery_failure:
      return "DiscoveryFailure";
    case Terminal::exhausted:
      return "AttemptsExhausted";
  }
  return "?";
}

void PrintTo(AccessKind k, std::ostream* os) { *os << access_kind_name(k); }
void PrintTo(Terminal t, std::ostream* os) { *os << terminal_name(t); }

class AccessLifecycle
    : public ::testing::TestWithParam<std::tuple<AccessKind, Terminal>> {};

// Every access kind, on every terminal path, completes exactly once with
// the expected status and leaves nothing pending.  An access to the
// issuer's own object completes without a frame, and reports the same
// error the remote NACK path does.
TEST_P(AccessLifecycle, CompletesExactlyOnce) {
  const auto [kind, path] = GetParam();
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  ObjNetService& svc = fabric->service(0);
  const bool local =
      path == Terminal::local_ok || path == Terminal::local_nack;
  GlobalPtr ptr = make_test_object(*fabric, local ? 0 : 1);
  // make_test_object's pattern, read as the u64 the atomics operate on.
  const std::uint64_t word = 0x0706050403020100ull;
  AccessOptions opts;
  Errc want = Errc::ok;
  switch (path) {
    case Terminal::remote_ok:
    case Terminal::local_ok:
      break;
    case Terminal::nack:
    case Terminal::local_nack:
      ptr.offset = 1 << 20;
      want = Errc::out_of_range;
      break;
    case Terminal::discovery_failure:
      ptr = GlobalPtr{fixed_id(999), 64};
      want = Errc::not_found;
      break;
    case Terminal::exhausted:
      // Learn the home's location, then crash it: the one attempt goes
      // to a dead host and its deadline ends the access.
      svc.read(ptr, 8, [](Result<Bytes>, const AccessStats&) {});
      fabric->settle();
      fabric->network().set_node_up(fabric->host(1).id(), false);
      opts.max_attempts = 1;
      want = Errc::timeout;
      break;
  }

  const std::uint64_t frames_before = fabric->network().stats().frames_sent;
  int calls = 0;
  Errc got = Errc::unavailable;
  auto on_atomic = [&](Result<AtomicResponse> r, const AccessStats&) {
    ++calls;
    got = r ? Errc::ok : r.error().code;
    if (r) {
      EXPECT_EQ(r->old_value, word);
      EXPECT_TRUE(r->applied);
    }
  };
  switch (kind) {
    case AccessKind::read:
      svc.read(
          ptr, 8,
          [&](Result<Bytes> r, const AccessStats&) {
            ++calls;
            got = r ? Errc::ok : r.error().code;
            if (r) {
              EXPECT_EQ((*r)[5], 5);
            }
          },
          opts);
      break;
    case AccessKind::write:
      svc.write(
          ptr, Bytes(8, 9),
          [&](Status s, const AccessStats&) {
            ++calls;
            got = s ? Errc::ok : s.error().code;
          },
          opts);
      break;
    case AccessKind::fetch_add:
      svc.atomic_fetch_add(ptr, 1, on_atomic, opts);
      break;
    case AccessKind::cas:
      svc.atomic_cas(ptr, word, 1, on_atomic, opts);
      break;
  }
  fabric->settle();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, want);
  EXPECT_EQ(svc.pending_access_count(), 0u);
  if (local) {
    EXPECT_EQ(fabric->network().stats().frames_sent, frames_before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AccessLifecycle,
    ::testing::Combine(::testing::Values(AccessKind::read, AccessKind::write,
                                         AccessKind::fetch_add,
                                         AccessKind::cas),
                       ::testing::Values(Terminal::remote_ok,
                                         Terminal::local_ok, Terminal::nack,
                                         Terminal::local_nack,
                                         Terminal::discovery_failure,
                                         Terminal::exhausted)),
    [](const auto& test) {
      return std::string(access_kind_name(std::get<0>(test.param))) + "_" +
             terminal_name(std::get<1>(test.param));
    });

// --- reliable channel ---------------------------------------------------------------

TEST(Reliable, LargeObjectMovesAcrossFragments) {
  auto cfg = base_config(DiscoveryScheme::e2e);
  auto fabric = Fabric::build(cfg);
  // 64 KiB object: ~47 fragments at the default 1400-byte MTU.
  auto obj = fabric->service(1).create_object(64 * 1024);
  ASSERT_TRUE(obj);
  ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 0xFEEDFACE));
  Status moved{Errc::unavailable};
  fabric->service(1).move_object((*obj)->id(), fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  EXPECT_GE(fabric->service(1).reliable().counters().fragments_sent, 45u);
  auto arrived = fabric->host(2).store().get((*obj)->id());
  ASSERT_TRUE(arrived);
  auto v = (*arrived)->read_u64(Object::kDataStart);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0xFEEDFACEu);
}

TEST(Reliable, SurvivesLossyLinks) {
  // Seed note: with 15% loss on every hop of the 5-hop e2e path, one
  // delivery round (data out + ack back) survives with p = 0.85^10 ~ 0.2,
  // so exhausting the retry budget on the last fragment is a ~10% tail
  // event per seed.  The per-direction loss substreams (forked per link
  // in Network::connect) re-dealt the draw order; 99 — picked for the
  // old global stream — landed in that tail, 30 of its 31 neighbours
  // pass.  101 is one of them.
  auto cfg = base_config(DiscoveryScheme::e2e, 101);
  cfg.host_link.loss_rate = 0.15;
  cfg.switch_link.loss_rate = 0.15;
  auto fabric = Fabric::build(cfg);
  auto obj = fabric->service(1).create_object(32 * 1024);
  ASSERT_TRUE(obj);
  Status moved{Errc::unavailable};
  fabric->service(1).move_object((*obj)->id(), fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  EXPECT_GT(fabric->service(1).reliable().counters().retransmissions, 0u);
  EXPECT_TRUE(fabric->host(2).store().contains((*obj)->id()));
  // Exactly-once adoption despite duplicates.
  EXPECT_EQ(fabric->service(2).counters().objects_adopted, 1u);
}

TEST(Reliable, UnreachablePeerTimesOut) {
  auto cfg = base_config(DiscoveryScheme::e2e);
  cfg.host_link.loss_rate = 1.0;  // black hole
  auto fabric = Fabric::build(cfg);
  auto obj = fabric->service(1).create_object(1024);
  ASSERT_TRUE(obj);
  Status moved{Errc::ok};
  fabric->service(1).move_object((*obj)->id(), fabric->host(2).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  EXPECT_FALSE(moved.is_ok());
  EXPECT_EQ(moved.error().code, Errc::timeout);
  // The object stays at its home on failure.
  EXPECT_TRUE(fabric->host(1).store().contains((*obj)->id()));
}

TEST(Reliable, EmptyPayloadDelivered) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  bool got = false;
  fabric->service(2).reliable().set_handler(
      MsgType::invalidate,
      [&](HostAddr, MsgType inner, ObjectId, Bytes payload) {
        EXPECT_EQ(inner, MsgType::invalidate);
        EXPECT_TRUE(payload.empty());
        got = true;
      });
  Status sent{Errc::unavailable};
  fabric->service(0).reliable().send(fabric->host(2).addr(),
                                     MsgType::invalidate, fixed_id(1), {},
                                     [&](Status s) { sent = s; });
  fabric->settle();
  EXPECT_TRUE(sent.is_ok());
  EXPECT_TRUE(got);
}

namespace {
/// frag seq packing, mirrored from the channel (msg_id | idx | count).
std::uint64_t frag_seq(std::uint32_t msg_id, std::uint32_t idx,
                       std::uint32_t count) {
  return (static_cast<std::uint64_t>(msg_id) << 32) |
         (static_cast<std::uint64_t>(idx) << 16) | count;
}

/// Deliver a hand-crafted frame straight to a host's NIC, bypassing
/// send_frame (which would overwrite src_host) — the chaos injection
/// path for spoofed/stale frames.
void inject(HostNode& host, Frame f) {
  Packet pkt;
  pkt.data = f.encode();
  host.on_packet(0, std::move(pkt));
}
}  // namespace

TEST(Reliable, MisdirectedAckCannotCompleteDelivery) {
  // Regression: acks used to be keyed by msg_id alone, so any host that
  // guessed (or stalely replayed) a sender-local msg_id could "complete"
  // a transfer whose payload the real destination never received.
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  Network& net = fabric->network();
  net.set_link_up(fabric->host(2).id(), 0, false);  // isolate the dst
  Status sent{Errc::unavailable};
  fabric->service(1).reliable().send(fabric->host(2).addr(),
                                     MsgType::object_replica, fixed_id(1),
                                     Bytes(3000, 0xAB),
                                     [&](Status s) { sent = s; });
  fabric->loop().run_until(fabric->loop().now() + 200 * kMicrosecond);
  ASSERT_EQ(fabric->service(1).reliable().outbound_in_progress(), 1u);

  // Host 0 forges acks for every fragment of msg_id 1 (the first id the
  // channel hands out).  They must be rejected, not complete the send.
  for (std::uint32_t idx = 0; idx < 3; ++idx) {
    Frame ack;
    ack.type = MsgType::frag_ack;
    ack.dst_host = fabric->host(1).addr();
    ack.object = fixed_id(1);
    ack.seq = frag_seq(1, idx, 3);
    fabric->host(0).send_frame(std::move(ack));
  }
  fabric->loop().run_until(fabric->loop().now() + 200 * kMicrosecond);
  EXPECT_EQ(fabric->service(1).reliable().counters().misdirected_acks, 3u);
  EXPECT_EQ(sent.is_ok(), false);  // still in flight, not falsely done
  EXPECT_EQ(fabric->service(1).reliable().outbound_in_progress(), 1u);

  // Once the destination is reachable again the transfer finishes for
  // real (retransmission + genuine acks).
  net.set_link_up(fabric->host(2).id(), 0, true);
  fabric->settle();
  EXPECT_TRUE(sent.is_ok());
  EXPECT_GT(fabric->service(1).reliable().counters().retransmissions, 0u);
}

TEST(Reliable, InboundKeysUseFullSourceAddress) {
  // Regression: the reassembly key collapsed the 64-bit source address
  // to its low 32 bits, so two senders agreeing in those bits merged
  // their in-flight messages into one corrupted reassembly.
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  const HostAddr src_a = 0x1'0000'0005ULL;
  const HostAddr src_b = 0x2'0000'0005ULL;  // same low 32 bits as src_a
  std::vector<std::pair<HostAddr, Bytes>> delivered;
  fabric->service(0).reliable().set_handler(
      MsgType::object_replica,
      [&](HostAddr src, MsgType, ObjectId, Bytes payload) {
        delivered.emplace_back(src, std::move(payload));
      });
  auto frag = [&](HostAddr src, std::uint32_t idx, std::uint8_t fill) {
    Frame f;
    f.type = MsgType::push_frag;
    f.src_host = src;
    f.dst_host = fabric->host(0).addr();
    f.object = fixed_id(3);
    f.seq = frag_seq(/*msg_id=*/7, idx, /*count=*/2);
    f.offset = static_cast<std::uint64_t>(MsgType::object_replica);
    f.length = 4;
    f.payload = Bytes(4, fill);
    inject(fabric->host(0), std::move(f));
  };
  // Interleave the two messages fragment by fragment.
  frag(src_a, 0, 0xA0);
  frag(src_b, 0, 0xB0);
  frag(src_a, 1, 0xA1);
  frag(src_b, 1, 0xB1);
  fabric->settle();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, src_a);
  EXPECT_EQ(delivered[0].second, ([] {
              Bytes b(4, 0xA0);
              b.insert(b.end(), 4, 0xA1);
              return b;
            }()));
  EXPECT_EQ(delivered[1].first, src_b);
  EXPECT_EQ(delivered[1].second, ([] {
              Bytes b(4, 0xB0);
              b.insert(b.end(), 4, 0xB1);
              return b;
            }()));
  EXPECT_EQ(fabric->service(0).reliable().counters().duplicate_fragments, 0u);
}

TEST(Reliable, IdleReassemblyStateIsSwept) {
  // Regression: a sender dying mid-message leaked its partial reassembly
  // buffers forever.  The sweep is lazy (no timers — settle() must stay
  // able to drain), running when a new reassembly starts or explicitly.
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  ReliableChannel& ch = fabric->service(0).reliable();
  Frame f;
  f.type = MsgType::push_frag;
  f.src_host = 0x9999;
  f.dst_host = fabric->host(0).addr();
  f.object = fixed_id(4);
  f.seq = frag_seq(1, 0, 2);  // fragment 0 of 2: never completes
  f.offset = static_cast<std::uint64_t>(MsgType::object_replica);
  f.length = 4;
  f.payload = Bytes(4, 0xDD);
  inject(fabric->host(0), f);
  fabric->settle();
  EXPECT_EQ(ch.inbound_in_progress(), 1u);

  // Within the idle window nothing is collected...
  fabric->loop().schedule_after(kSecond, [] {});
  fabric->settle();
  EXPECT_EQ(ch.expire_idle(), 0u);
  EXPECT_EQ(ch.inbound_in_progress(), 1u);

  // ...but once the sender has been silent past the window, the next
  // incoming reassembly sweeps the orphan out.
  fabric->loop().schedule_after(3 * kSecond, [] {});
  fabric->settle();
  f.src_host = 0xAAAA;
  f.seq = frag_seq(2, 0, 2);
  inject(fabric->host(0), f);
  fabric->settle();
  EXPECT_EQ(ch.counters().reassembly_expired, 1u);
  EXPECT_EQ(ch.inbound_in_progress(), 1u);  // only the fresh one remains
}

TEST(Reliable, LinkDownExhaustsRetryBudget) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  fabric->network().set_link_up(fabric->host(1).id(), 0, false);
  Status sent{Errc::ok};
  fabric->service(1).reliable().send(fabric->host(2).addr(),
                                     MsgType::object_replica, fixed_id(1),
                                     Bytes(100, 1),
                                     [&](Status s) { sent = s; });
  fabric->settle();
  EXPECT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.error().code, Errc::timeout);
  EXPECT_EQ(fabric->service(1).reliable().counters().failures, 1u);
  EXPECT_GT(fabric->service(1).reliable().counters().retransmissions, 0u);
  EXPECT_EQ(fabric->service(1).reliable().outbound_in_progress(), 0u);
}

TEST(Reliable, CutLinkFailsOnSchedule) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  ReliableChannel& ch = fabric->service(1).reliable();
  const NodeId h1 = fabric->host(1).id();
  // A batch of messages, every one acknowledged before its first
  // retransmission deadline: one timer event stands for all of them.
  const SimTime t0 = fabric->loop().now();
  int ok = 0;
  fabric->network().schedule_on(h1, t0, [&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      ch.send(fabric->host(2).addr(), MsgType::object_replica, fixed_id(i),
              Bytes(100, 1), [&](Status s) { ok += s.is_ok() ? 1 : 0; });
    }
  });
  fabric->loop().run_until(t0 + ReliableChannel::kRto / 2);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(ch.counters().retransmissions, 0u);
  EXPECT_LE(ch.deadline_timer().events_pending(), 1u);
  fabric->settle();
  EXPECT_EQ(ch.deadline_timer().events_pending(), 0u);

  // The link is cut: eleven deadlines, each twice the last (kRto << 0
  // through kRto << 10), then the retry budget is spent.
  fabric->network().set_link_up(h1, 0, false);
  const SimTime t1 = fabric->loop().now();
  Status sent = Status::ok();
  SimTime failed_at = 0;
  fabric->network().schedule_on(h1, t1, [&] {
    ch.send(fabric->host(2).addr(), MsgType::object_replica, fixed_id(99),
            Bytes(100, 1), [&](Status s) {
              sent = s;
              failed_at = fabric->loop().now();
            });
  });
  fabric->settle();
  ASSERT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.error().code, Errc::timeout);
  EXPECT_EQ(failed_at - t1, ReliableChannel::kRto * 2047);
  EXPECT_EQ(ch.counters().failures, 1u);
  EXPECT_EQ(ch.counters().retransmissions, 10u);
}

TEST(Reliable, LinkFlapRecoversWithoutDuplicateDelivery) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  Network& net = fabric->network();
  int deliveries = 0;
  fabric->service(2).reliable().set_handler(
      MsgType::object_replica,
      [&](HostAddr, MsgType, ObjectId, Bytes) { ++deliveries; });
  // Down for a few retry rounds (exercising backoff), then back up well
  // inside the budget.
  net.set_link_up(fabric->host(2).id(), 0, false);
  Status sent{Errc::unavailable};
  fabric->service(1).reliable().send(fabric->host(2).addr(),
                                     MsgType::object_replica, fixed_id(2),
                                     Bytes(3000, 7),
                                     [&](Status s) { sent = s; });
  fabric->loop().run_until(fabric->loop().now() + 4 * kMillisecond);
  EXPECT_FALSE(sent.is_ok());
  net.set_link_up(fabric->host(2).id(), 0, true);
  fabric->settle();
  EXPECT_TRUE(sent.is_ok());
  EXPECT_EQ(deliveries, 1);  // completed-message dedup held under retry
  EXPECT_GT(fabric->service(1).reliable().counters().retransmissions, 0u);
}

// --- subscriptions -------------------------------------------------------------------

TEST(Subscriptions, CompileSingleField) {
  Subscription sub;
  sub.conjuncts = {{SubField::object_id, U128{1, 2}}};
  sub.deliver_to = 4;
  auto rule = SubscriptionCompiler::compile(sub);
  ASSERT_TRUE(rule);
  EXPECT_EQ(rule->key_bits, 128u);
  EXPECT_EQ(rule->key, (U128{1, 2}));
  EXPECT_EQ(rule->action.port, 4u);
}

TEST(Subscriptions, CompileConjunction) {
  Subscription sub;
  sub.conjuncts = {{SubField::msg_type,
                    U128::from_u64(static_cast<std::uint64_t>(MsgType::read_req))},
                   {SubField::object_lo64, U128::from_u64(0xAB)}};
  sub.deliver_to = 2;
  auto rule = SubscriptionCompiler::compile(sub);
  ASSERT_TRUE(rule);
  EXPECT_EQ(rule->key_bits, 72u);  // 64 + 8
  EXPECT_EQ(rule->key_fields.size(), 2u);
}

TEST(Subscriptions, RejectsOversizedAndRepeated) {
  Subscription too_big;
  too_big.conjuncts = {{SubField::object_id, U128{}},
                       {SubField::src_host, U128{}}};
  EXPECT_EQ(SubscriptionCompiler::compile(too_big).error().code,
            Errc::capacity_exceeded);

  Subscription repeated;
  repeated.conjuncts = {{SubField::src_host, U128{}},
                        {SubField::src_host, U128{}}};
  EXPECT_EQ(SubscriptionCompiler::compile(repeated).error().code,
            Errc::invalid_argument);

  Subscription empty;
  EXPECT_FALSE(SubscriptionCompiler::compile(empty));
}

TEST(Subscriptions, TableMatchesLiveFrames) {
  SubscriptionTable table;
  Subscription by_object;
  by_object.conjuncts = {{SubField::object_id, fixed_id(7).value}};
  by_object.deliver_to = 1;
  ASSERT_TRUE(table.add(by_object));
  Subscription by_type;
  by_type.conjuncts = {
      {SubField::msg_type,
       U128::from_u64(static_cast<std::uint64_t>(MsgType::invalidate))}};
  by_type.deliver_to = 2;
  ASSERT_TRUE(table.add(by_type));
  EXPECT_EQ(table.layout_count(), 2u);
  EXPECT_EQ(table.rule_count(), 2u);

  Frame f;
  f.type = MsgType::read_req;
  f.object = fixed_id(7);
  Packet pkt;
  pkt.data = f.encode();
  auto view = Frame::peek(pkt);
  ASSERT_TRUE(view.has_value());
  auto action = table.match(*view);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->port, 1u);

  f.object = fixed_id(8);
  f.type = MsgType::invalidate;
  pkt.data = f.encode();
  view = Frame::peek(pkt);
  action = table.match(*view);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->port, 2u);

  f.type = MsgType::read_req;
  pkt.data = f.encode();
  view = Frame::peek(pkt);
  EXPECT_FALSE(table.match(*view).has_value());
}

TEST(Subscriptions, CapacityHalvesForWideKeys) {
  const auto narrow =
      SubscriptionCompiler::capacity_for_layout({SubField::object_lo64});
  const auto wide =
      SubscriptionCompiler::capacity_for_layout({SubField::object_id});
  EXPECT_EQ(narrow, 1'800'000u);
  EXPECT_EQ(wide, 850'000u);
}


// --- topology x scheme sweep -----------------------------------------------------

class TopologySweep
    : public ::testing::TestWithParam<
          std::tuple<DiscoveryScheme, SwitchTopology>> {};

TEST_P(TopologySweep, ReadsAndMovesWorkEverywhere) {
  FabricConfig cfg;
  cfg.scheme = std::get<0>(GetParam());
  cfg.topology = std::get<1>(GetParam());
  cfg.seed = 777;
  cfg.num_switches = 4;
  cfg.num_hosts = 4;
  auto fabric = Fabric::build(cfg);

  // One object per responder host; read each from host 0.
  std::vector<GlobalPtr> ptrs;
  for (std::size_t h = 1; h < 4; ++h) {
    auto obj = fabric->service(h).create_object(4096);
    ASSERT_TRUE(obj);
    auto off = (*obj)->alloc(8);
    ASSERT_TRUE(off);
    ASSERT_TRUE((*obj)->write_u64(*off, h * 11));
    ptrs.push_back(GlobalPtr{(*obj)->id(), *off});
  }
  fabric->settle();
  int ok = 0;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    fabric->service(0).read(ptrs[i], 8,
                            [&, i](Result<Bytes> r, const AccessStats&) {
                              ASSERT_TRUE(r) << r.error().to_string();
                              std::uint64_t v;
                              std::memcpy(&v, r->data(), 8);
                              EXPECT_EQ(v, (i + 1) * 11);
                              ++ok;
                            });
  }
  fabric->settle();
  EXPECT_EQ(ok, 3);

  // Movement works across every shape too.
  Status moved{Errc::unavailable};
  fabric->service(1).move_object(ptrs[0].object, fabric->host(3).addr(),
                                 [&](Status s) { moved = s; });
  fabric->settle();
  ASSERT_TRUE(moved.is_ok());
  Result<Bytes> after{Errc::unavailable};
  fabric->service(0).read(ptrs[0], 8,
                          [&](Result<Bytes> r, const AccessStats&) {
                            after = std::move(r);
                          });
  fabric->settle();
  EXPECT_TRUE(after);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweep,
    ::testing::Combine(::testing::Values(DiscoveryScheme::e2e,
                                         DiscoveryScheme::controller),
                       ::testing::Values(SwitchTopology::full_mesh,
                                         SwitchTopology::ring,
                                         SwitchTopology::line,
                                         SwitchTopology::star)));

// --- E2E broadcast containment ------------------------------------------------------

TEST(E2EScheme, FloodDedupContainsBroadcastStorms) {
  // On a full mesh (cyclic!) a broadcast must visit each switch once,
  // not amplify forever.
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.seed = 31;
  cfg.topology = SwitchTopology::full_mesh;
  auto fabric = Fabric::build(cfg);
  GlobalPtr ptr = make_test_object(*fabric, 1);
  const auto frames_before = fabric->network().stats().frames_sent;
  fabric->service(0).read(ptr, 8, [](Result<Bytes>, const AccessStats&) {});
  fabric->settle();
  // discover flood: <= switches * ports frames; plus reply and access.
  // A storm would blow far past this bound (TTL 32 x fanout 5).
  EXPECT_LT(fabric->network().stats().frames_sent - frames_before, 40u);
  EXPECT_EQ(fabric->network().stats().frames_dropped_ttl, 0u);
}


// --- subscription fan-out (multicast delivery) -------------------------------------

TEST(Subscriptions, MatchAllReturnsEverySubscriber) {
  SubscriptionTable table;
  for (PortId p : {1u, 2u, 3u}) {
    Subscription sub;
    sub.conjuncts = {{SubField::object_id, fixed_id(5).value}};
    sub.deliver_to = p;
    ASSERT_TRUE(table.add(sub));
  }
  Frame f;
  f.type = MsgType::invoke_resp;
  f.object = fixed_id(5);
  Packet pkt;
  pkt.data = f.encode();
  auto view = Frame::peek(pkt);
  ASSERT_TRUE(view.has_value());
  auto actions = table.match_all(*view);
  ASSERT_EQ(actions.size(), 3u);
  std::set<PortId> ports;
  for (const auto& a : actions) ports.insert(a.port);
  EXPECT_EQ(ports, (std::set<PortId>{1, 2, 3}));
  // Capacity stage holds ONE entry per predicate regardless of fan-out.
  EXPECT_EQ(table.rule_count(), 1u);
}

TEST(Subscriptions, LiveDeliveryThroughSwitch) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.seed = 3;
  cfg.num_switches = 1;
  cfg.num_hosts = 3;
  auto fabric = Fabric::build(cfg);
  const ObjectId topic = fixed_id(77);
  auto table = std::make_shared<SubscriptionTable>();
  Subscription sub;
  sub.conjuncts = {{SubField::object_id, topic.value}};
  sub.deliver_to = 1;  // host1's switch port
  ASSERT_TRUE(table->add(sub));
  sub.deliver_to = 2;  // host2's switch port
  ASSERT_TRUE(table->add(sub));
  program_subscription_delivery(fabric->switch_at(0), table);

  int got1 = 0, got2 = 0;
  fabric->host(1).set_default_handler([&](const Frame&) { ++got1; });
  fabric->host(2).set_default_handler([&](const Frame&) { ++got2; });

  Frame event;
  event.type = MsgType::invoke_resp;
  event.object = topic;
  event.payload = Bytes{1, 2, 3};
  fabric->host(0).send_frame(std::move(event));
  // A frame on an unsubscribed topic follows the NORMAL pipeline
  // (unknown unicast with dst 0 -> extractor returns host key? no:
  // dst==0 in E2E extractor yields nullopt -> default flood; hosts
  // filter by type handler, so it reaches the default handlers too).
  fabric->settle();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
}

// --- fused receive residence on hosts -------------------------------------------
//
// A host's processing delay is folded into its delivery event, which
// runs at arrival + HostNode::kProcessingDelay.  Liveness is judged at
// arrival (the network's drop) and again at dispatch (a crash inside the
// residence).

struct HostPair {
  Network net{3};
  HostNode& a = net.add_node<HostNode>("a");
  HostNode& b = net.add_node<HostNode>("b");
  std::vector<SimTime> handled;

  HostPair() {
    net.connect(a.id(), b.id());
    b.set_handler(MsgType::read_req,
                  [this](const Frame&) { handled.push_back(net.now()); });
  }
  void send() {
    Frame f;
    f.type = MsgType::read_req;
    f.dst_host = b.addr();
    a.send_frame(std::move(f));
  }
};

TEST(HostNode, CrashInsideResidenceSkipsDispatchOnly) {
  SimTime arrive = 0;
  {
    HostPair p;
    p.net.add_tap([&](NodeId, NodeId, const Packet&) {
      arrive = p.net.now();
    });
    p.send();
    p.net.loop().run();
    ASSERT_EQ(p.handled.size(), 1u);
    EXPECT_EQ(p.handled[0], arrive + HostNode::kProcessingDelay);
  }
  const SimDuration residence = HostNode::kProcessingDelay;
  // Down at arrival: the network drops it; the host never sees it.
  {
    HostPair p;
    p.net.schedule_crash(p.b.id(), arrive);
    p.send();
    p.net.loop().run();
    EXPECT_EQ(p.net.stats().frames_dropped_dead, 1u);
    EXPECT_EQ(p.net.stats().frames_delivered, 0u);
    EXPECT_EQ(p.b.counters().frames_in, 0u);
    EXPECT_TRUE(p.handled.empty());
  }
  // Crashes inside the residence (up to its last nanosecond): delivered
  // and counted in at arrival, never dispatched.
  for (const SimDuration into : {SimDuration{1}, residence / 2, residence}) {
    HostPair p;
    p.net.schedule_crash(p.b.id(), arrive + into);
    p.send();
    p.net.loop().run();
    EXPECT_EQ(p.net.stats().frames_delivered, 1u) << into;
    EXPECT_EQ(p.net.stats().frames_dropped_dead, 0u) << into;
    EXPECT_EQ(p.b.counters().frames_in, 1u) << into;
    EXPECT_TRUE(p.handled.empty()) << into;
  }
  // Down at arrival, revived inside the residence: still dropped.
  {
    HostPair p;
    p.net.schedule_crash(p.b.id(), arrive - 1);
    p.net.schedule_revive(p.b.id(), arrive + residence / 2);
    p.send();
    p.net.loop().run();
    EXPECT_EQ(p.net.stats().frames_dropped_dead, 1u);
    EXPECT_EQ(p.b.counters().frames_in, 0u);
    EXPECT_TRUE(p.handled.empty());
  }
}

// --- attempt deadlines -----------------------------------------------------------

struct ReadOutcome {
  bool done = false;
  Errc code = Errc::ok;
  AccessStats stats;
};

ReadCallback record(ReadOutcome& out) {
  return [&out](Result<Bytes> r, const AccessStats& s) {
    out.done = true;
    out.code = r ? Errc::ok : r.error().code;
    out.stats = s;
  };
}

TEST(ObjNetService, LiveTimeoutsRunWhereTheirOwnTimersDid) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  ObjNetService& svc = fabric->service(0);
  ReadOutcome warm;
  svc.read(ptr, 8, record(warm));
  fabric->settle();
  ASSERT_TRUE(warm.done);
  ASSERT_EQ(warm.code, Errc::ok);

  // The home dies; every attempt against it times out.  Two accesses
  // armed in one host callback, the second with a shorter timeout than
  // the first, so the deadline timer must re-aim at an earlier deadline.
  fabric->network().set_node_up(fabric->host(1).id(), false);
  const SimTime t0 = fabric->loop().now();
  ReadOutcome slow;
  ReadOutcome fast;
  fabric->network().schedule_on(fabric->host(0).id(), t0, [&] {
    AccessOptions a;
    a.timeout = 5 * kMillisecond;
    a.max_attempts = 2;
    svc.read(ptr, 8, record(slow), a);
    AccessOptions b;
    b.timeout = 1 * kMillisecond;
    b.max_attempts = 3;
    svc.read(ptr, 8, record(fast), b);
  });
  // The fast access gave up at t0 + 3 ms.  The event the slow access's
  // first deadline armed at t0 is still in the wheel, and the re-armed
  // timer reuses it rather than scheduling a second one under its key.
  fabric->loop().run_until(t0 + 4 * kMillisecond);
  ASSERT_TRUE(fast.done);
  EXPECT_EQ(svc.deadline_timer().events_pending(), 1u);
  fabric->settle();
  ASSERT_TRUE(slow.done);
  ASSERT_TRUE(fast.done);
  // Every figure below was measured with one timer event per attempt:
  // the deadline timer runs each live timeout at the same time and key.
  EXPECT_EQ(slow.code, Errc::timeout);
  EXPECT_EQ(slow.stats.attempts, 3);
  EXPECT_EQ(slow.stats.rtts, 2);
  EXPECT_EQ(slow.stats.finished_at - t0, 10 * kMillisecond);
  EXPECT_EQ(fast.code, Errc::timeout);
  EXPECT_EQ(fast.stats.attempts, 4);
  EXPECT_EQ(fast.stats.rtts, 3);
  EXPECT_EQ(fast.stats.finished_at - t0, 3 * kMillisecond);
  EXPECT_EQ(svc.counters().timeouts, 2u);
  EXPECT_EQ(svc.deadline_timer().events_pending(), 0u);
}

TEST(ObjNetService, LiveTimeoutKeepsItsKeyWhenTheTimerReArms) {
  // The timer reaches a live deadline only after an earlier, dead one
  // fired.  The live timeout must still sort under the key it was armed
  // with, ahead of a same-time event the host scheduled later on.
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr dead_home = make_test_object(*fabric, 1);
  GlobalPtr live_home = make_test_object(*fabric, 2);
  fabric->settle();
  ObjNetService& svc = fabric->service(0);
  ReadOutcome warm;
  svc.read(dead_home, 8, record(warm));
  fabric->settle();
  ASSERT_EQ(warm.code, Errc::ok);
  fabric->network().set_node_up(fabric->host(1).id(), false);

  const NodeId h0 = fabric->host(0).id();
  const SimTime t0 = fabric->loop().now();
  const SimDuration long_timeout = 25 * kMillisecond;
  std::vector<std::string> order;
  ReadOutcome done_fast;  // completes: its 20 ms deadline dies
  fabric->network().schedule_on(h0, t0, [&] {
    svc.read(live_home, 8, record(done_fast));
  });
  fabric->network().schedule_on(h0, t0 + 1, [&] {
    AccessOptions o;
    o.timeout = long_timeout;
    o.max_attempts = 1;
    svc.read(dead_home, 8, [&](Result<Bytes> r, const AccessStats&) {
      EXPECT_FALSE(r);
      order.push_back("timeout");
    }, o);
  });
  fabric->network().schedule_on(h0, t0 + 5 * kMillisecond, [&] {
    fabric->loop().schedule_at(t0 + 1 + long_timeout,
                               [&] { order.push_back("later event"); });
  });
  fabric->settle();
  ASSERT_TRUE(done_fast.done);
  EXPECT_EQ(done_fast.code, Errc::ok);
  EXPECT_EQ(order, (std::vector<std::string>{"timeout", "later event"}));
}

TEST(ObjNetService, CompletedAccessesLeaveOneTimerEvent) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::controller));
  GlobalPtr ptr = make_test_object(*fabric, 1);
  fabric->settle();
  constexpr int kOps = 50;
  std::vector<ReadOutcome> outs(kOps);
  const SimTime t0 = fabric->loop().now();
  for (int i = 0; i < kOps; ++i) {
    fabric->network().schedule_on(
        fabric->host(i % 2 == 0 ? 0 : 2).id(), t0 + i * 10 * kMicrosecond,
        [&, i] {
          fabric->service(i % 2 == 0 ? 0 : 2).read(ptr, 8, record(outs[i]));
        });
  }
  // Long enough for every access, well short of the 20 ms timeout.
  fabric->loop().run_until(t0 + 5 * kMillisecond);
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(outs[i].done) << i;
    EXPECT_EQ(outs[i].code, Errc::ok) << i;
  }
  // 50 armed deadlines, all dead: one wheel event per issuing service
  // (at its earliest deadline), none anywhere else.
  for (std::size_t h = 0; h < fabric->host_count(); ++h) {
    EXPECT_EQ(fabric->service(h).deadline_timer().events_pending(),
              h == 0 || h == 2 ? 1u : 0u)
        << h;
  }
  fabric->settle();
  for (std::size_t h = 0; h < fabric->host_count(); ++h) {
    EXPECT_EQ(fabric->service(h).deadline_timer().events_pending(), 0u) << h;
    EXPECT_EQ(fabric->service(h).counters().timeouts, 0u) << h;
  }
  // The run drained at host 2's first deadline (its first access went
  // out 10 us after host 0's), not at the last access's deadline.
  EXPECT_EQ(fabric->loop().now(),
            t0 + 10 * kMicrosecond + AccessOptions{}.timeout);
}

TEST(E2EScheme, UnansweredDiscoveryFailsOnSchedule) {
  auto fabric = Fabric::build(base_config(DiscoveryScheme::e2e));
  std::vector<GlobalPtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(make_test_object(*fabric, 1));
  fabric->settle();
  const NodeId h0 = fabric->host(0).id();
  E2EDiscovery& discovery = *fabric->e2e_of(0);
  // A batch of discoveries, every one answered long before its 5 ms
  // deadline: one timer event stands for all of them.
  const SimTime t0 = fabric->loop().now();
  int ok = 0;
  fabric->network().schedule_on(h0, t0, [&] {
    for (const GlobalPtr& ptr : ptrs) {
      fabric->service(0).read(ptr, 8, [&](Result<Bytes> r, const AccessStats&) {
        ok += r ? 1 : 0;
      });
    }
  });
  fabric->loop().run_until(t0 + 2 * kMillisecond);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(discovery.broadcasts_sent(), 8u);
  EXPECT_LE(discovery.deadline_timer().events_pending(), 1u);
  fabric->settle();
  EXPECT_EQ(discovery.deadline_timer().events_pending(), 0u);

  // No host holds the object: three broadcasts, 5 ms apart, then the
  // access fails.
  const SimTime t1 = fabric->loop().now();
  ReadOutcome missing;
  fabric->network().schedule_on(h0, t1, [&] {
    fabric->service(0).read(GlobalPtr{fixed_id(999), 64}, 8, record(missing));
  });
  fabric->settle();
  ASSERT_TRUE(missing.done);
  EXPECT_EQ(missing.code, Errc::not_found);
  EXPECT_EQ(missing.stats.finished_at - t1, 15 * kMillisecond);
  EXPECT_EQ(discovery.counters().discovery_failures, 1u);
}

}  // namespace
}  // namespace objrpc
