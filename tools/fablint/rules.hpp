// fablint: rule driver (DESIGN.md §15).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "model.hpp"

namespace fablint {

struct Options {
  /// Empty = all rules.
  std::set<std::string> rules;
  /// Report lambdas whose capture footprint cannot be fully resolved.
  bool strict = false;
  /// Override for the SmallFn inline-buffer size (0 = from source).
  std::size_t smallfn_bytes = 0;
};

/// Rule ids (README "Static analysis" lists one row per id):
///   entropy        ambient entropy / wall clocks
///   load-numeric   <random> distributions / libm transcendentals in src/load
///   hash-fanout    hash-ordered iteration feeding sends or digests
///   raw-counter    Counters struct invisible to the metrics registry
///   node-map       node-based container under src/sim
///   hotpath-alloc  heap allocation reachable from HOT_PATH
///   smallfn-spill  SmallFn capture footprint exceeds the inline buffer
///   cross-shard    unannotated mutation of CROSS_SHARD state
///   stale-allow    suppression that no longer suppresses anything
///   malformed-allow  allow tag without rule id or reason
std::vector<Finding> run_rules(const Corpus& corpus, const Options& opts);

/// The machine-readable shard-affinity inventory (fablint
/// --shard-report): every CROSS_SHARD member and function, every
/// capability, every HOT_PATH function.  This is the work-list for the
/// sharded event loop's synchronization points (ROADMAP item 1).
std::string shard_report_json(const Corpus& corpus);

}  // namespace fablint
