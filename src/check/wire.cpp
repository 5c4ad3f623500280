#include "check/wire.hpp"

#include <cinttypes>
#include <cstdio>

namespace objrpc::check {

std::string addr_to_string(HostAddr addr) {
  char buf[64];
  if (addr == kUnspecifiedHost) {
    return "unspecified";
  }
  if (is_inc_cache_addr(addr)) {
    std::snprintf(buf, sizeof buf, "inc-cache(switch %" PRIu64 ")",
                  addr - kIncCacheAddrBase);
  } else {
    std::snprintf(buf, sizeof buf, "host-addr %" PRIu64, addr);
  }
  return buf;
}

std::string WireEvent::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%10" PRId64 "ns  node%u->node%u  %-14s %s -> %s obj=%s "
                "seq=%" PRIu64 " off=%" PRIu64 " len=%u epoch=%u ver=%" PRIu64
                " tenant=%u%s%s",
                at, from, to, msg_type_name(type), addr_to_string(src).c_str(),
                addr_to_string(dst).c_str(), object.to_string().c_str(), seq,
                offset, length, epoch, obj_version, tenant,
                emission ? " [emit]" : "", final_delivery ? " [deliver]" : "");
  return buf;
}

}  // namespace objrpc::check
