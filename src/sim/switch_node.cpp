#include "sim/switch_node.hpp"

namespace objrpc {

SwitchNode::SwitchNode(Network& net, NodeId id, std::string name,
                       SwitchConfig cfg)
    : NetworkNode(net, id, std::move(name)),
      cfg_(cfg),
      table_(cfg.key_bits, cfg.table_capacity) {
  if (cfg_.fair_queue.enabled) {
    fq_ = std::make_unique<EgressScheduler>(
        net.loop(), cfg_.fair_queue,
        [this](PortId out, Packet pkt) { send(out, std::move(pkt)); },
        [this](PortId out, std::uint64_t bytes) {
          // Pace dequeues at the link's serialization rate (the same
          // formula Network::transmit uses) so the link FIFO under the
          // scheduler never builds tenant-ordered depth.
          const LinkParams& lp = this->net().link_params(this->id(), out);
          const auto tx_ns = static_cast<SimDuration>(
              static_cast<double>(bytes) * 8.0 / lp.bandwidth_bps * 1e9);
          return std::max<SimDuration>(tx_ns, 1);
        });
  }
  if (cfg_.admission.enabled) {
    admission_ = std::make_unique<TokenBucketGate>(cfg_.admission);
  }
  metrics_.attach(net.metrics(), this->name() + "/switch");
  metrics_.add("received", [this] { return counters_.received; });
  metrics_.add("forwarded", [this] { return counters_.forwarded; });
  metrics_.add("flooded", [this] { return counters_.flooded; });
  metrics_.add("dropped", [this] { return counters_.dropped; });
  metrics_.add("punted", [this] { return counters_.punted; });
  metrics_.add("consumed_by_hook",
               [this] { return counters_.consumed_by_hook; });
  metrics_.add("dropped_admission",
               [this] { return counters_.dropped_admission; });
  metrics_.add("table_hits", [this] { return table_.hits(); });
  metrics_.add("table_misses", [this] { return table_.misses(); });
  if (fq_) {
    metrics_.add("fq_enqueued", [this] { return fq_->counters().enqueued; });
    metrics_.add("fq_sent", [this] { return fq_->counters().sent; });
    metrics_.add("fq_dropped_queue",
                 [this] { return fq_->counters().dropped_queue; });
    metrics_.add("fq_rounds", [this] { return fq_->counters().rounds; });
    metrics_.add("fq_backlog_bytes", [this] { return fq_->backlog_bytes(); });
  }
  if (admission_) {
    metrics_.add("admission_admitted",
                 [this] { return admission_->counters().admitted; });
    metrics_.add("admission_dropped",
                 [this] { return admission_->counters().dropped; });
  }
}

void SwitchNode::receive(PortId in_port, Packet pkt, SimTime arrived) {
  ++counters_.received;
  // Ingress admission: a rate-limited tenant that exceeds its bucket is
  // refused at the door, before the frame occupies any pipeline or
  // queue resources.  Unpoliced tenants (incl. 0, infrastructure) pass.
  // The bucket refills up to the arrival, not to the pipeline's end.
  if (admission_ &&
      !admission_->admit(pkt.tenant, pkt.wire_size(), arrived)) {
    ++counters_.dropped_admission;
    return;
  }
  if (net().tracer().armed()) {
    // Match-action stage occupancy for this frame, attributed to its
    // causal trace.
    net().tracer().leaf_span(pkt.trace_id, pkt.span_parent, id(), "pipeline",
                             arrived, arrived + cfg_.pipeline_delay);
  }
  // The pipeline's cfg_.pipeline_delay has elapsed: this event runs at
  // its end.  Take the key slot a separate pipeline event would have
  // taken, so this switch's later events keep their keys.
  loop().reserve_key(loop().now());
  run_pipeline(in_port, std::move(pkt));
}

void SwitchNode::run_pipeline(PortId in_port, Packet pkt) {
  if (pre_match_ && pre_match_(*this, in_port, pkt)) {
    ++counters_.consumed_by_hook;
    return;
  }
  std::optional<ParsedKey> parsed =
      extract_ ? extract_(pkt) : std::nullopt;
  if (!parsed) {
    apply(cfg_.default_action, in_port, std::move(pkt));
    return;
  }
  if (parsed->broadcast) {
    apply(Action::flood(), in_port, std::move(pkt));
    return;
  }
  if (auto action = table_.lookup(parsed->key)) {
    apply(*action, in_port, std::move(pkt));
    return;
  }
  // Second match stage: aggregate routes (hierarchical overlays).
  if (parsed->fallback) {
    if (auto action = table_.lookup(*parsed->fallback)) {
      apply(*action, in_port, std::move(pkt));
      return;
    }
  }
  apply(cfg_.default_action, in_port, std::move(pkt));
}

void SwitchNode::apply(const Action& action, PortId in_port, Packet pkt) {
  switch (action.kind) {
    case ActionKind::forward:
      ++counters_.forwarded;
      if (fq_) {
        // Unicast data-path frames go through the per-tenant DRR
        // scheduler; floods and punts below stay on the direct path
        // (control-plane traffic is never fair-queued).
        fq_->enqueue(action.port, std::move(pkt));
      } else {
        forward(action.port, std::move(pkt));
      }
      break;
    case ActionKind::flood:
      ++counters_.flooded;
      flood(in_port, pkt);
      // The original's payload was copied per egress; retire it.
      net().payload_pool().release(std::move(pkt.data));
      break;
    case ActionKind::drop:
      ++counters_.dropped;
      net().payload_pool().release(std::move(pkt.data));
      break;
    case ActionKind::punt:
      if (cfg_.punt_port != kInvalidPort) {
        ++counters_.punted;
        forward(cfg_.punt_port, std::move(pkt));
      } else {
        ++counters_.dropped;
      }
      break;
  }
}

void SwitchNode::flood(PortId except, const Packet& pkt) {
  const std::size_t n = port_count();
  for (PortId p = 0; p < n; ++p) {
    if (p == except) continue;
    // Per-egress payload copies come from the fabric's buffer pool so a
    // broadcast storm recycles instead of allocating (DESIGN.md §14).
    Packet copy = pkt.header_copy();
    copy.data = net().payload_pool().copy_of(pkt.data);
    send(p, std::move(copy));
  }
}

}  // namespace objrpc
