// A programmable switch node.
//
// Models the forwarding behaviour the paper programs onto Tofino with P4:
// a parser (key extractor) feeding an exact-match table over identifiers,
// with flood / forward / drop / punt actions and a fixed pipeline delay.
// The control plane reaches the switch two ways, mirroring practice:
// a pre-match hook (for in-band self-learning, ARP-style) and direct
// table programming (for the SDN controller scheme).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sim/fair_queue.hpp"
#include "sim/network.hpp"
#include "sim/pipeline.hpp"

namespace objrpc {

/// Result of parsing a frame in the switch pipeline.
struct ParsedKey {
  U128 key;
  /// Frame explicitly requests flooding (e.g. a discovery broadcast).
  bool broadcast = false;
  /// Second-stage key tried when `key` misses (e.g. a hierarchical
  /// region aggregate when the exact object route is absent).
  std::optional<U128> fallback;

  ParsedKey() = default;
  ParsedKey(U128 k, bool bcast) : key(k), broadcast(bcast) {}
};

struct SwitchConfig {
  std::uint32_t key_bits = 128;
  /// 0 = derive from the Tofino model.
  std::uint64_t table_capacity = 0;
  /// Per-frame processing latency of the match-action pipeline.
  SimDuration pipeline_delay = 1 * kMicrosecond;
  /// Port leading to the control plane, for ActionKind::punt.
  PortId punt_port = kInvalidPort;
  /// Applied when the table misses and the frame is not a broadcast.
  Action default_action = Action::drop();
  /// Per-tenant DRR fair queueing at egress (off by default: forwarded
  /// frames go straight to the link FIFO, the pre-existing behaviour).
  FairQueueConfig fair_queue;
  /// Per-tenant token-bucket admission at ingress (off by default).
  AdmissionConfig admission;
};

class SwitchNode : public NetworkNode {
 public:
  /// Parses a frame into a lookup key; nullopt -> default action.
  using KeyExtractor = std::function<std::optional<ParsedKey>(const Packet&)>;
  /// Runs before the match stage (learning, control messages).  Return
  /// true to consume the frame.
  using PreMatchHook =
      std::function<bool(SwitchNode&, PortId in_port, const Packet&)>;

  SwitchNode(Network& net, NodeId id, std::string name,
             SwitchConfig cfg = {});

  void set_key_extractor(KeyExtractor fn) { extract_ = std::move(fn); }
  void set_pre_match_hook(PreMatchHook fn) { pre_match_ = std::move(fn); }
  /// The installed hook, so offload stages can compose around it.
  const PreMatchHook& pre_match_hook() const { return pre_match_; }
  void set_punt_port(PortId p) { cfg_.punt_port = p; }
  void set_default_action(Action a) { cfg_.default_action = a; }

  MatchActionTable& table() { return table_; }
  const SwitchConfig& config() const { return cfg_; }

  /// Emit on every port except `except`; pass kInvalidPort to use all.
  HOT_PATH void flood(PortId except, const Packet& pkt);
  HOT_PATH void forward(PortId out, Packet pkt) { send(out, std::move(pkt)); }

  struct Counters {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t flooded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t punted = 0;
    std::uint64_t consumed_by_hook = 0;
    /// Frames refused at ingress by the per-tenant admission gate.
    std::uint64_t dropped_admission = 0;
  };
  const Counters& counters() const { return counters_; }

  /// The egress fair-queueing scheduler; nullptr unless
  /// SwitchConfig::fair_queue.enabled.  The invariant checker attaches
  /// its fair-share rule through this.
  EgressScheduler* fair_queue() { return fq_.get(); }
  const EgressScheduler* fair_queue() const { return fq_.get(); }
  /// The ingress admission gate; nullptr unless
  /// SwitchConfig::admission.enabled.
  TokenBucketGate* admission() { return admission_.get(); }
  const TokenBucketGate* admission() const { return admission_.get(); }

  EventLoop& event_loop() { return loop(); }

  /// Fabric-wide observability (src/obs), for offload stages attached to
  /// this switch.
  obs::Tracer& tracer() { return net().tracer(); }
  obs::MetricsRegistry& metrics() { return net().metrics(); }

  /// The match-action pipeline's fixed latency (cfg.pipeline_delay).
  SimDuration receive_residence() const override {
    return cfg_.pipeline_delay;
  }
  /// Ingress (admission, as of `arrived`) and the pipeline, in the one
  /// delivery event at `arrived` + pipeline_delay.
  HOT_PATH void receive(PortId in_port, Packet pkt,
                        SimTime arrived) override;
  /// A frame handed straight to the ingress port.
  void on_packet(PortId in_port, Packet pkt) override {
    receive(in_port, std::move(pkt), loop().now());
  }

 private:
  HOT_PATH void run_pipeline(PortId in_port, Packet pkt);
  HOT_PATH void apply(const Action& action, PortId in_port, Packet pkt);

  SwitchConfig cfg_;
  MatchActionTable table_;
  KeyExtractor extract_;
  PreMatchHook pre_match_;
  Counters counters_;
  std::unique_ptr<EgressScheduler> fq_;
  std::unique_ptr<TokenBucketGate> admission_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
