// Tests for the baseline RPC stack: envelopes, client/server, retries,
// and the middleware indirection layers.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "rpc/middleware.hpp"
#include "rpc/rpc_core.hpp"
#include "rpc/rpc_message.hpp"
#include "rpc/typed.hpp"

namespace objrpc {
namespace {

TEST(RpcEnvelope, RoundTrip) {
  RpcEnvelope env;
  env.kind = RpcKind::request;
  env.call_id = 77;
  env.method = "get_user";
  env.body = Bytes{1, 2, 3, 4};
  auto back = RpcEnvelope::decode(env.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->kind, RpcKind::request);
  EXPECT_EQ(back->call_id, 77u);
  EXPECT_EQ(back->method, "get_user");
  EXPECT_EQ(back->body, (Bytes{1, 2, 3, 4}));
}

TEST(RpcEnvelope, RejectsGarbage) {
  EXPECT_FALSE(RpcEnvelope::decode(Bytes{0xFF}));
}

/// RPC deployments reuse the E2E fabric (plain learning switches).
struct RpcWorld {
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<RpcClient> client;
  std::unique_ptr<RpcServer> server;

  explicit RpcWorld(std::size_t hosts = 3, std::uint64_t seed = 5) {
    FabricConfig cfg;
    cfg.scheme = DiscoveryScheme::e2e;
    cfg.num_hosts = hosts;
    cfg.seed = seed;
    fabric = Fabric::build(cfg);
    client = std::make_unique<RpcClient>(fabric->host(0));
    server = std::make_unique<RpcServer>(fabric->host(1));
  }
};

TEST(Rpc, EchoCallSucceeds) {
  RpcWorld w;
  w.server->register_method(
      "echo", [](HostAddr, ByteSpan args, RpcServer::ReplyFn reply) {
        reply(Bytes(args.begin(), args.end()));
      });
  Result<Bytes> got{Errc::unavailable};
  RpcCallStats stats;
  w.client->call(w.fabric->host(1).addr(), "echo", Bytes{5, 6, 7},
                 [&](Result<Bytes> r, const RpcCallStats& s) {
                   got = std::move(r);
                   stats = s;
                 });
  w.fabric->settle();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (Bytes{5, 6, 7}));
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_GT(stats.elapsed(), 0);
}

TEST(Rpc, UnknownMethodErrors) {
  RpcWorld w;
  Result<Bytes> got{Errc::ok};
  w.client->call(w.fabric->host(1).addr(), "nope", {},
                 [&](Result<Bytes> r, const RpcCallStats&) {
                   got = std::move(r);
                 });
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::not_found);
  EXPECT_EQ(w.server->counters().unknown_method, 1u);
}

TEST(Rpc, ServerErrorPropagates) {
  RpcWorld w;
  w.server->register_method(
      "fail", [](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
        reply(Error{Errc::permission_denied, "no"});
      });
  Result<Bytes> got{Errc::ok};
  w.client->call(w.fabric->host(1).addr(), "fail", {},
                 [&](Result<Bytes> r, const RpcCallStats&) {
                   got = std::move(r);
                 });
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::permission_denied);
}

TEST(Rpc, MarshallingCostScalesWithPayload) {
  RpcWorld w;
  w.server->register_method(
      "sink", [](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
        reply(Bytes{});
      });
  SimDuration small = 0, large = 0;
  w.client->call(w.fabric->host(1).addr(), "sink", Bytes(64, 0),
                 [&](Result<Bytes> r, const RpcCallStats& s) {
                   ASSERT_TRUE(r);
                   small = s.elapsed();
                 });
  w.fabric->settle();
  w.client->call(w.fabric->host(1).addr(), "sink", Bytes(1 << 20, 0),
                 [&](Result<Bytes> r, const RpcCallStats& s) {
                   ASSERT_TRUE(r);
                   large = s.elapsed();
                 });
  w.fabric->settle();
  // 1 MiB pays ~0.5ms marshalling twice plus wire time; far above 64 B.
  EXPECT_GT(large, small * 5);
}

TEST(Rpc, RetryAfterLossEventuallySucceeds) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.seed = 11;
  cfg.host_link.loss_rate = 0.4;
  auto fabric = Fabric::build(cfg);
  RpcClient client(fabric->host(0));
  RpcServer server(fabric->host(1));
  server.register_method("ping",
                         [](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
                           reply(Bytes{1});
                         });
  int successes = 0;
  RpcCallOptions opts;
  opts.timeout = 2 * kMillisecond;
  opts.max_attempts = 20;
  for (int i = 0; i < 10; ++i) {
    client.call(fabric->host(1).addr(), "ping", {},
                [&](Result<Bytes> r, const RpcCallStats&) {
                  successes += r.has_value();
                },
                opts);
  }
  fabric->settle();
  EXPECT_EQ(successes, 10);
  EXPECT_GT(client.counters().retries, 0u);
}

TEST(Rpc, TimeoutWhenServerAbsent) {
  RpcWorld w;
  w.server->register_method(
      "echo", [](HostAddr, ByteSpan args, RpcServer::ReplyFn reply) {
        reply(Bytes(args.begin(), args.end()));
      });
  // A batch of calls from the client's own context, every one answered
  // long before its 50 ms deadline: one timer event stands for all.
  const NodeId h0 = w.fabric->host(0).id();
  const SimTime t0 = w.fabric->loop().now();
  int ok = 0;
  w.fabric->network().schedule_on(h0, t0, [&] {
    for (int i = 0; i < 8; ++i) {
      w.client->call(w.fabric->host(1).addr(), "echo", Bytes{1, 2},
                     [&](Result<Bytes> r, const RpcCallStats&) {
                       ok += r ? 1 : 0;
                     });
    }
  });
  w.fabric->loop().run_until(t0 + 5 * kMillisecond);
  EXPECT_EQ(ok, 8);
  EXPECT_LE(w.client->deadline_timer().events_pending(), 1u);
  w.fabric->settle();
  EXPECT_EQ(w.client->deadline_timer().events_pending(), 0u);

  Result<Bytes> got{Errc::ok};
  RpcCallStats stats;
  RpcCallOptions opts;
  opts.timeout = 1 * kMillisecond;
  opts.max_attempts = 2;
  // Host 2 runs no server: invoke_req frames are dropped unhandled.
  // Both attempts go unanswered, 1 ms apart.
  const SimTime t1 = w.fabric->loop().now();
  w.client->call(w.fabric->host(2).addr(), "echo", {},
                 [&](Result<Bytes> r, const RpcCallStats& s) {
                   got = std::move(r);
                   stats = s;
                 },
                 opts);
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::timeout);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.finished_at - t1, 2 * kMillisecond);
}

TEST(Rpc, ConcurrentCallsKeepIdentity) {
  RpcWorld w;
  w.server->register_method(
      "inc", [](HostAddr, ByteSpan args, RpcServer::ReplyFn reply) {
        BufReader r(args);
        const std::uint64_t v = r.get_u64();
        BufWriter out;
        out.put_u64(v + 1);
        reply(std::move(out).take());
      });
  int checked = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    BufWriter args;
    args.put_u64(i);
    w.client->call(w.fabric->host(1).addr(), "inc", std::move(args).take(),
                   [&checked, i](Result<Bytes> r, const RpcCallStats&) {
                     ASSERT_TRUE(r);
                     BufReader reader(*r);
                     EXPECT_EQ(reader.get_u64(), i + 1);
                     ++checked;
                   });
  }
  w.fabric->settle();
  EXPECT_EQ(checked, 20);
}

// --- middleware -------------------------------------------------------------------

TEST(Middleware, DirectoryResolvesServices) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.num_hosts = 4;  // 0 client, 1 backend, 2 unused, 3 directory
  auto fabric = Fabric::build(cfg);
  RpcClient client(fabric->host(0));
  RpcServer backend(fabric->host(1));
  backend.register_method("work",
                          [](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
                            reply(Bytes{42});
                          });
  DirectoryService directory(fabric->host(3));
  directory.register_service("worker", fabric->host(1).addr());

  Result<Bytes> got{Errc::unavailable};
  DirectoryService::resolve(
      client, fabric->host(3).addr(), "worker",
      [&](Result<HostAddr> addr) {
        ASSERT_TRUE(addr);
        client.call(*addr, "work", {},
                    [&](Result<Bytes> r, const RpcCallStats&) {
                      got = std::move(r);
                    });
      });
  fabric->settle();
  ASSERT_TRUE(got);
  EXPECT_EQ((*got)[0], 42);
  EXPECT_EQ(directory.resolutions(), 1u);
}

TEST(Middleware, DirectoryUnknownServiceFails) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.num_hosts = 2;
  auto fabric = Fabric::build(cfg);
  RpcClient client(fabric->host(0));
  DirectoryService directory(fabric->host(1));
  Result<HostAddr> got = HostAddr{1};
  DirectoryService::resolve(client, fabric->host(1).addr(), "ghost",
                            [&](Result<HostAddr> r) { got = std::move(r); });
  fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::not_found);
}

TEST(Middleware, LoadBalancerRoundRobins) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.num_hosts = 4;  // 0 client, 1+2 backends, 3 LB
  auto fabric = Fabric::build(cfg);
  RpcClient client(fabric->host(0));
  RpcServer b1(fabric->host(1));
  RpcServer b2(fabric->host(2));
  int hits1 = 0, hits2 = 0;
  b1.register_method("work",
                     [&](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
                       ++hits1;
                       reply(Bytes{1});
                     });
  b2.register_method("work",
                     [&](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
                       ++hits2;
                       reply(Bytes{2});
                     });
  LoadBalancer lb(fabric->host(3),
                  {fabric->host(1).addr(), fabric->host(2).addr()});
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    client.call(fabric->host(3).addr(), "work", {},
                [&](Result<Bytes> r, const RpcCallStats&) {
                  ASSERT_TRUE(r);
                  ++done;
                });
  }
  fabric->settle();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(hits1, 5);
  EXPECT_EQ(hits2, 5);
  EXPECT_EQ(lb.relayed(), 10u);
}

TEST(Middleware, IndirectionAddsLatency) {
  FabricConfig cfg;
  cfg.scheme = DiscoveryScheme::e2e;
  cfg.num_hosts = 4;
  auto fabric = Fabric::build(cfg);
  RpcClient client(fabric->host(0));
  RpcServer backend(fabric->host(1));
  backend.register_method("work",
                          [](HostAddr, ByteSpan, RpcServer::ReplyFn reply) {
                            reply(Bytes{7});
                          });
  LoadBalancer lb(fabric->host(3), {fabric->host(1).addr()});

  SimDuration direct = 0, via_lb = 0;
  client.call(fabric->host(1).addr(), "work", {},
              [&](Result<Bytes> r, const RpcCallStats& s) {
                ASSERT_TRUE(r);
                direct = s.elapsed();
              });
  fabric->settle();
  client.call(fabric->host(3).addr(), "work", {},
              [&](Result<Bytes> r, const RpcCallStats& s) {
                ASSERT_TRUE(r);
                via_lb = s.elapsed();
              });
  fabric->settle();
  EXPECT_GT(via_lb, direct);  // §1's indirection tax
}


// --- typed (schema-checked) RPC ---------------------------------------------------

struct TypedWorld {
  std::unique_ptr<Fabric> fabric;
  SchemaRegistry registry;
  std::uint32_t req_schema = 0;
  std::uint32_t resp_schema = 0;
  std::unique_ptr<TypedRpcClient> client;
  std::unique_ptr<TypedRpcServer> server;

  TypedWorld() {
    FabricConfig cfg;
    cfg.scheme = DiscoveryScheme::e2e;
    cfg.seed = 15;
    fabric = Fabric::build(cfg);
    Schema req;
    req.name = "SumRequest";
    req.fields = {{1, "values", FieldType::u64, true, 0},
                  {2, "label", FieldType::str, false, 0}};
    req_schema = registry.add(std::move(req));
    Schema resp;
    resp.name = "SumResponse";
    resp.fields = {{1, "total", FieldType::u64, false, 0},
                   {2, "label", FieldType::str, false, 0}};
    resp_schema = registry.add(std::move(resp));
    client = std::make_unique<TypedRpcClient>(fabric->host(0), registry);
    server = std::make_unique<TypedRpcServer>(fabric->host(1), registry);
  }
};

TEST(TypedRpc, StructuredCallRoundTrips) {
  TypedWorld w;
  w.server->register_method(
      "sum", w.req_schema,
      [&](HostAddr, const Message& req, TypedRpcServer::TypedReplyFn reply) {
        std::uint64_t total = 0;
        for (const auto& v : req.get_all(1)) {
          total += std::get<std::uint64_t>(v);
        }
        Message out(w.resp_schema);
        out.add(1, total);
        if (const Value* label = req.get(2)) {
          out.add(2, std::string(std::get<std::string>(*label)));
        }
        reply(std::move(out));
      });
  Message args(w.req_schema);
  args.add(1, std::uint64_t{10});
  args.add(1, std::uint64_t{20});
  args.add(1, std::uint64_t{12});
  args.add(2, std::string("mysum"));
  Result<Message> got{Errc::unavailable};
  w.client->call(w.fabric->host(1).addr(), "sum", args, w.resp_schema,
                 [&](Result<Message> r, const RpcCallStats&) {
                   got = std::move(r);
                 });
  w.fabric->settle();
  ASSERT_TRUE(got) << got.error().to_string();
  EXPECT_EQ(std::get<std::uint64_t>(*got->get(1)), 42u);
  EXPECT_EQ(std::get<std::string>(*got->get(2)), "mysum");
}

TEST(TypedRpc, EncodeFailureSurfacesBeforeTraffic) {
  TypedWorld w;
  Message bad(w.req_schema);
  bad.add(99, std::uint64_t{1});  // field not in schema
  Result<Message> got{Errc::ok};
  const auto frames = w.fabric->network().stats().frames_sent;
  w.client->call(w.fabric->host(1).addr(), "sum", bad, w.resp_schema,
                 [&](Result<Message> r, const RpcCallStats&) {
                   got = std::move(r);
                 });
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.fabric->network().stats().frames_sent, frames);
}

TEST(TypedRpc, MalformedRequestRejectedServerSide) {
  TypedWorld w;
  bool handler_ran = false;
  w.server->register_method(
      "sum", w.req_schema,
      [&](HostAddr, const Message&, TypedRpcServer::TypedReplyFn reply) {
        handler_ran = true;
        reply(Message(w.resp_schema));
      });
  // Send raw garbage through the untyped client sharing the host.
  Result<Bytes> got{Errc::ok};
  w.client->raw().call(w.fabric->host(1).addr(), "sum", Bytes{0xFF, 0xFF},
                       [&](Result<Bytes> r, const RpcCallStats&) {
                         got = std::move(r);
                       });
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::malformed);
  EXPECT_FALSE(handler_ran);
}

TEST(TypedRpc, ServerErrorPropagatesTyped) {
  TypedWorld w;
  w.server->register_method(
      "sum", w.req_schema,
      [](HostAddr, const Message&, TypedRpcServer::TypedReplyFn reply) {
        reply(Error{Errc::permission_denied, "quota"});
      });
  Result<Message> got{Errc::ok};
  w.client->call(w.fabric->host(1).addr(), "sum", Message(w.req_schema),
                 w.resp_schema,
                 [&](Result<Message> r, const RpcCallStats&) {
                   got = std::move(r);
                 });
  w.fabric->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::permission_denied);
}

}  // namespace
}  // namespace objrpc
