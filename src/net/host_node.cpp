#include "net/host_node.hpp"

#include "common/log.hpp"

namespace objrpc {

HostNode::HostNode(Network& net, NodeId id, std::string name,
                   std::uint64_t id_seed)
    : NetworkNode(net, id, std::move(name)),
      ids_(net.rng().fork(0x9057'0000ULL + id_seed + id)) {
  metrics_.attach(net.metrics(), this->name() + "/host");
  metrics_.add("frames_in", [this] { return counters_.frames_in; });
  metrics_.add("frames_out", [this] { return counters_.frames_out; });
  metrics_.add("ignored_not_mine",
               [this] { return counters_.ignored_not_mine; });
  metrics_.add("malformed", [this] { return counters_.malformed; });
}

void HostNode::send_frame(Frame frame) {
  frame.src_host = addr();
  ++counters_.frames_out;
  Packet pkt = frame.to_packet();
  if (net().tracer().armed() && frame.trace.valid()) {
    // Software time between the protocol decision and the NIC.
    net().tracer().leaf_span(frame.trace.trace, frame.trace.parent, id(),
                             std::string("tx:") + msg_type_name(frame.type),
                             loop().now(), loop().now() + kProcessingDelay);
  }
  loop().schedule_after(kProcessingDelay,
                        [this, pkt = std::move(pkt)]() mutable {
                          send(0, std::move(pkt));
                        });
}

void HostNode::set_handler(MsgType type, FrameHandler handler) {
  handlers_[static_cast<std::uint8_t>(type)] = std::move(handler);
}

void HostNode::set_default_handler(FrameHandler handler) {
  default_handler_ = std::move(handler);
}

void HostNode::on_node_state_change(bool up) {
  if (up && revive_hook_) revive_hook_();
}

void HostNode::on_packet(PortId in_port, Packet pkt) {
  if (!alive()) return;  // dead hosts hear nothing
  receive(in_port, std::move(pkt), loop().now());
}

void HostNode::receive(PortId /*in_port*/, Packet pkt, SimTime arrived) {
  // Liveness at arrival was judged by the network; dispatch() re-checks
  // it now, at the end of the residence.
  auto frame = Frame::decode(pkt.data);
  if (!frame) {
    ++counters_.malformed;
    Log::warn("host", "%s: malformed frame dropped", name().c_str());
    return;
  }
  // Unicast frames for someone else can reach us through unknown-unicast
  // flooding (E2E scheme); hosts filter them like a NIC does.
  if (frame->dst_host != kUnspecifiedHost && frame->dst_host != addr() &&
      !frame->is_broadcast()) {
    ++counters_.ignored_not_mine;
    return;
  }
  // Our own broadcasts can echo back through the fabric; drop them.
  if (frame->src_host == addr()) {
    ++counters_.ignored_not_mine;
    return;
  }
  ++counters_.frames_in;
  if (net().tracer().armed() && frame->trace.valid()) {
    // Software time between frame arrival and the protocol handler.
    net().tracer().leaf_span(frame->trace.trace, frame->trace.parent, id(),
                             std::string("rx:") + msg_type_name(frame->type),
                             arrived, arrived + kProcessingDelay);
  }
  // Take the key slot a separate dispatch event would have taken, so
  // this host's later events keep their keys.
  loop().reserve_key(loop().now());
  dispatch(std::move(*frame));
}

void HostNode::dispatch(Frame frame) {
  // A crash that lands inside the residence (after the frame arrived,
  // by the time it would be handled): the dead host must not process it.
  if (!alive()) return;
  FrameHandler& handler = handlers_[static_cast<std::uint8_t>(frame.type)];
  if (handler) {
    handler(frame);
  } else if (default_handler_) {
    default_handler_(frame);
  } else {
    Log::debug("host", "%s: unhandled %s", name().c_str(),
               msg_type_name(frame.type));
  }
}

}  // namespace objrpc
