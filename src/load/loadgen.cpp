#include "load/loadgen.hpp"

#include <cinttypes>
#include <cstdio>

namespace objrpc::load {

namespace {

/// Arrivals one refill draws ahead.  Each refill is one control-lane
/// event (a fleet-wide barrier in a parallel run), so the batch sets the
/// barrier rate; each drawn-ahead arrival holds one pending event
/// (~200 B) until it fires.
constexpr std::size_t kRefillBatch = 64;

}  // namespace

std::string TenantSlo::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-10s issued=%" PRIu64 " ok=%" PRIu64 " err=%" PRIu64
                " goodput=%.0fB/s resp(us) p50=%.0f p99=%.0f p999=%.0f "
                "svc(us) p50=%.0f p99=%.0f p999=%.0f",
                name.c_str(), issued, completed - errors, errors,
                goodput_bytes_per_sec, resp_p50_us, resp_p99_us, resp_p999_us,
                svc_p50_us, svc_p99_us, svc_p999_us);
  return buf;
}

LoadGenerator::LoadGenerator(Cluster& cluster, LoadConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  // The invoked-op target: echo the inline payload.  Registered once
  // per generator; all tenants share it (payload sizes differ).
  echo_fn_ = cluster_.code().register_function(
      "load/echo",
      [](InvokeContext&, const std::vector<GlobalPtr>&,
         ByteSpan inline_arg) -> Result<Bytes> {
        return Bytes(inline_arg.begin(), inline_arg.end());
      });

  Rng& root = cluster_.fabric().network().rng();
  for (const TenantSpec& spec : cfg_.tenants) {
    const std::uint64_t label =
        cfg_.seed ^ (0x7E4A'0000ULL + spec.tenant);
    TenantSpec s = spec;
    if (s.client_hosts.empty()) s.client_hosts.push_back(s.home_host);
    auto ts = std::make_unique<TenantState>(
        std::move(s), ArrivalProcess(spec.arrival, root.fork(label)),
        ZipfTable(spec.object_count, spec.zipf_s), root.fork(label + 1));
    TenantState& t = *ts;
    t.home_addr = cluster_.addr_of(t.spec.home_host);
    for (std::size_t h : t.spec.client_hosts) {
      t.clients.emplace_back().node = cluster_.host(h).id();
    }
    for (std::size_t i = 0; i < t.spec.object_count; ++i) {
      auto obj =
          cluster_.create_object(t.spec.home_host, t.spec.object_bytes);
      if (obj) t.objects.push_back((*obj)->id());
    }
    t.resp_us = &cluster_.metrics().histogram("load/" + t.spec.name +
                                              "/resp_us");
    t.svc_us =
        &cluster_.metrics().histogram("load/" + t.spec.name + "/svc_us");
    tenants_.push_back(std::move(ts));
  }
}

void LoadGenerator::start() {
  start_ = cluster_.loop().now();
  deadline_ = start_ + cfg_.duration;
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    tenants_[ti]->drawn_until = start_;
    refill(ti);
  }
}

std::uint64_t LoadGenerator::in_flight() const {
  std::uint64_t n = 0;
  for (const auto& t : tenants_) {
    for (const ClientState& c : t->clients) n += c.in_flight + c.backlog.size();
  }
  return n;
}

void LoadGenerator::refill(std::size_t ti) {
  TenantState& t = *tenants_[ti];
  // The stream is drawn ahead of time, but each draw is still a pure
  // function of the tenant's op index: arrival times come from their own
  // substream and every op takes a fixed number of draws (kind, object,
  // user), so batching changes nothing about WHAT is issued or when.
  const OpMix& mix = t.spec.mix;
  const double total = mix.read + mix.write + mix.invoke;
  for (std::size_t n = 0; n < kRefillBatch; ++n) {
    const SimTime at = t.arrivals.next_after(t.drawn_until);
    if (at >= deadline_) return;  // stream ends; in-flight ops still drain
    t.drawn_until = at;
    Op op;
    op.intended = at;
    const double pick = t.rng.next_double() * (total > 0 ? total : 1.0);
    op.kind = pick < mix.read                ? OpKind::read
              : pick < mix.read + mix.write  ? OpKind::write
                                             : OpKind::invoke;
    op.object = t.zipf.sample(t.rng);
    op.user = t.rng.next_below(t.spec.users ? t.spec.users : 1);

    ++t.issued;
    fold_stream(t.spec.tenant);
    fold_stream(static_cast<std::uint64_t>(op.kind));
    fold_stream(op.object);
    fold_stream(op.user);
    fold_stream(static_cast<std::uint64_t>(op.intended));

    const std::size_t ci = op.user % t.clients.size();
    cluster_.fabric().network().schedule_on(
        t.clients[ci].node, at, [this, ti, ci, op] { on_arrival(ti, ci, op); });
  }
  // Every later arrival is strictly after the last one drawn, so a
  // refill at that time (control events precede shard events at equal
  // times) is never late.
  cluster_.loop().schedule_at(t.drawn_until, [this, ti] { refill(ti); });
}

void LoadGenerator::on_arrival(std::size_t ti, std::size_t ci, const Op& op) {
  TenantState& t = *tenants_[ti];
  if (t.spec.max_in_flight_per_client > 0 &&
      t.clients[ci].in_flight >= t.spec.max_in_flight_per_client) {
    // Window full: the arrival queues client-side.  Its intended time
    // is already fixed — the wait it is about to suffer will be charged
    // to the response-time series, not dropped (coordinated omission).
    t.clients[ci].backlog.push_back(op);
    return;
  }
  issue(ti, ci, op);
}

void LoadGenerator::issue(std::size_t ti, std::size_t ci, const Op& op) {
  TenantState& t = *tenants_[ti];
  ++t.clients[ci].in_flight;
  const SimTime sent = cluster_.loop().now();
  const std::size_t client = t.spec.client_hosts[ci];
  const ObjectId object =
      t.objects.empty() ? ObjectId{} : t.objects[op.object % t.objects.size()];

  switch (op.kind) {
    case OpKind::read: {
      AccessOptions opts;
      opts.max_attempts = t.spec.max_attempts;
      opts.timeout = t.spec.access_timeout;
      opts.tenant = t.spec.tenant;
      const std::uint32_t len = t.spec.read_bytes;
      cluster_.service(client).read(
          GlobalPtr{object, Object::kDataStart}, len,
          [this, ti, ci, op, sent, len](Result<Bytes> r, const AccessStats&) {
            complete(ti, ci, op, sent, r.has_value(), r ? len : 0);
          },
          opts);
      break;
    }
    case OpKind::write: {
      AccessOptions opts;
      opts.max_attempts = t.spec.max_attempts;
      opts.timeout = t.spec.access_timeout;
      opts.tenant = t.spec.tenant;
      const std::uint32_t len = t.spec.write_bytes;
      Bytes data(len, static_cast<std::uint8_t>(t.spec.tenant));
      cluster_.service(client).write(
          GlobalPtr{object, Object::kDataStart}, std::move(data),
          [this, ti, ci, op, sent, len](Status s, const AccessStats&) {
            complete(ti, ci, op, sent, s.is_ok(), s ? len : 0);
          },
          opts);
      break;
    }
    case OpKind::invoke: {
      InvokeOptions opts;
      opts.timeout = t.spec.access_timeout;
      opts.max_attempts = t.spec.max_attempts;
      opts.tenant = t.spec.tenant;
      Bytes payload(t.spec.read_bytes,
                    static_cast<std::uint8_t>(t.spec.tenant));
      const std::uint64_t len = payload.size();
      cluster_.invoke_at(
          client, t.home_addr, echo_fn_, {}, std::move(payload),
          [this, ti, ci, op, sent, len](Result<Bytes> r, const InvokeStats&) {
            complete(ti, ci, op, sent, r.has_value(), r ? len : 0);
          },
          opts);
      break;
    }
  }
}

void LoadGenerator::complete(std::size_t ti, std::size_t ci, const Op& op,
                             SimTime sent, bool ok,
                             std::uint64_t payload_bytes) {
  TenantState& t = *tenants_[ti];
  const SimTime now = cluster_.loop().now();
  // Failures are recorded at their failure time: a timed-out operation
  // occupied its window slot and its user's patience until then.
  const auto resp_us = static_cast<std::uint64_t>(now - op.intended) / 1000;
  const auto svc_us = static_cast<std::uint64_t>(now - sent) / 1000;
  // The tenant row is shared by every client host, and hosts of one
  // tenant may run on different shards: record through the observer
  // journal (inline when serial, canonical-order replay at the barrier
  // in a parallel epoch).
  cluster_.fabric().network().observer_journal().run_or_defer(
      [&t, ok, payload_bytes, resp_us, svc_us] {
        ++t.completed;
        if (!ok) {
          ++t.errors;
        } else {
          t.goodput_bytes += payload_bytes;
        }
        t.resp_us->add(resp_us);
        t.svc_us->add(svc_us);
      });
  ClientState& c = t.clients[ci];
  --c.in_flight;
  if (!c.backlog.empty()) {
    const Op next = c.backlog.front();
    c.backlog.pop_front();
    issue(ti, ci, next);
  }
}

std::vector<TenantSlo> LoadGenerator::report() const {
  std::vector<TenantSlo> rows;
  const double window_s =
      static_cast<double>(cfg_.duration) / 1e9;
  for (const auto& tp : tenants_) {
    const TenantState& t = *tp;
    TenantSlo row;
    row.tenant = t.spec.tenant;
    row.name = t.spec.name;
    row.issued = t.issued;
    row.completed = t.completed;
    row.errors = t.errors;
    row.goodput_bytes_per_sec =
        window_s > 0 ? static_cast<double>(t.goodput_bytes) / window_s : 0.0;
    row.resp_p50_us = t.resp_us->quantile(0.50);
    row.resp_p99_us = t.resp_us->quantile(0.99);
    row.resp_p999_us = t.resp_us->quantile(0.999);
    row.svc_p50_us = t.svc_us->quantile(0.50);
    row.svc_p99_us = t.svc_us->quantile(0.99);
    row.svc_p999_us = t.svc_us->quantile(0.999);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace objrpc::load
