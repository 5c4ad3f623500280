// Boolean environment toggles (OBJRPC_SHARDS_SERIAL, CHECK_INVARIANTS,
// OBJRPC_SHARD_PROFILE, ...).
#pragma once

#include <cstdlib>

namespace objrpc {

/// True when `name` is set to anything but the empty string or exactly
/// "0".
inline bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace objrpc
