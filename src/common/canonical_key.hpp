// The canonical event order (DESIGN.md §16): ascending (at, key_a,
// key_b).  The one comparator for it in src/: the timing wheels, the
// event loop's key-merge and the observer journal's barrier replay
// (obs/journal.hpp) all order by key_less.
#pragma once

namespace objrpc {

/// Canonical execution order: ascending (at, key_a, key_b).  Takes any
/// record carrying those three fields: wheel entries, sort records,
/// the key-merge's cached heads and journal records.
template <typename X, typename Y>
bool key_less(const X& x, const Y& y) {
  if (x.at != y.at) return x.at < y.at;
  if (x.key_a != y.key_a) return x.key_a < y.key_a;
  return x.key_b < y.key_b;
}

}  // namespace objrpc
