// A host: an OS instance participating in the global object space.
//
// Each host owns an object store (the Twizzler-like OS piece) and a
// frame dispatcher that protocol services attach to.  Hosts are
// single-homed: port 0 is the uplink to their switch.
#pragma once

#include <array>
#include <functional>

#include "net/objnet.hpp"
#include "objspace/store.hpp"
#include "sim/network.hpp"

namespace objrpc {

class HostNode : public NetworkNode {
 public:
  using FrameHandler = std::function<void(const Frame&)>;

  /// Software latency between frame arrival and protocol handling (and
  /// between a handler's decision and its frame hitting the wire), paid
  /// once per hop in each direction.
  static constexpr SimDuration kProcessingDelay = 2 * kMicrosecond;

  /// `id_seed` labels this host's ID-allocation substream.  The store
  /// is unlimited.
  HostNode(Network& net, NodeId id, std::string name,
           std::uint64_t id_seed = 0);

  /// Protocol-level address (NodeId + 1, so 0 stays "unspecified").
  HostAddr addr() const { return static_cast<HostAddr>(id()) + 1; }

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  IdAllocator& ids() { return ids_; }

  /// Stamp src_host, encode, and transmit after the processing delay.
  HOT_PATH void send_frame(Frame frame);

  /// Route inbound frames of `type` to `handler` (one handler per type).
  void set_handler(MsgType type, FrameHandler handler);
  /// Fallback for types without a dedicated handler.
  void set_default_handler(FrameHandler handler);

  /// The software stack's fixed latency (kProcessingDelay).
  SimDuration receive_residence() const override { return kProcessingDelay; }
  /// NIC filtering (as of `arrived`) and protocol dispatch, in the one
  /// delivery event at `arrived` + kProcessingDelay.
  HOT_PATH void receive(PortId in_port, Packet pkt,
                        SimTime arrived) override;
  /// A frame handed straight to the NIC (tests, chaos injection).
  void on_packet(PortId in_port, Packet pkt) override;
  void on_node_state_change(bool up) override;

  /// Invoked when this host revives after a fail-stop crash (store
  /// intact, network state stale).  The replication layer registers its
  /// recovery protocol here.
  using ReviveHook = std::function<void()>;
  void set_revive_hook(ReviveHook hook) { revive_hook_ = std::move(hook); }

  /// Is this host currently alive on the fabric?
  bool alive() const { return net().node_up(id()); }

  struct Counters {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t ignored_not_mine = 0;
    std::uint64_t malformed = 0;
  };
  const Counters& counters() const { return counters_; }

  EventLoop& event_loop() { return loop(); }

  /// Fabric-wide observability (src/obs), for the protocol services
  /// attached to this host.
  obs::Tracer& tracer() { return net().tracer(); }
  obs::MetricsRegistry& metrics() { return net().metrics(); }

 private:
  HOT_PATH void dispatch(Frame frame);

  ObjectStore store_;
  IdAllocator ids_;
  /// Direct-indexed by the 8-bit frame type: dispatch is one load, no
  /// hashing (this is every inbound frame's first stop).
  std::array<FrameHandler, 256> handlers_;
  FrameHandler default_handler_;
  ReviveHook revive_hook_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
