// Fabric-wide causal span tracing (DESIGN.md §12).
//
// One object fetch crosses a host stack, several switch pipelines, link
// queues, and a home's store — and until now all anyone could measure
// was the black-box round trip.  The tracer attributes that time: every
// operation start mints a TraceContext (trace id + parent span id) that
// rides in frame headers end-to-end, and passive hooks along the path —
// the network's transmit path, switch pipelines, host dispatch, the
// reliable channel, the fetcher, replication — record spans against it.
// The result is a span tree host→switch(queue/pipeline)→home→reply,
// exported as Chrome trace_event JSON (open in Perfetto or
// chrome://tracing): one "process" per simulated node, one thread lane
// per trace, timestamps in simulated-time microseconds.
//
// Determinism contract (the part that makes this safe to ship armed):
//
//   * id ALLOCATION is unconditional.  Wire-carried trace/span ids come
//     from plain monotone counters that advance identically whether or
//     not recording is armed, so an armed run's frames — and therefore
//     the invariant checker's wire digest — are byte-identical to an
//     unarmed run's.  tools/determinism_audit enforces this.
//   * RECORDING is armed-gated and passive: hooks only append to
//     in-memory vectors; they never schedule events, mutate protocol
//     state, or draw from the simulation's RNG.
//   * all timestamps are SimTime (virtual nanoseconds); nothing reads a
//     wall clock.
//   * under the CONCURRENT driver (DESIGN.md §17), recording defers
//     through the bound ShardJournal: each hook captures its arguments
//     and the append runs at the next barrier in canonical event order,
//     so the record vectors — and the exported JSON — are byte-
//     identical to a serial armed run.
//
// Recording is off by default; arm with OBS_TRACE_FILE=<path> or
// ClusterConfig::trace_file (see core/cluster.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/time.hpp"
#include "obs/journal.hpp"

namespace objrpc::obs {

/// Causal identity carried in frame headers: which trace this frame
/// belongs to and which span emitted it.  {0, 0} = untraced.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;

  bool valid() const { return trace != 0; }
};

/// One recorded span (a named interval on one node).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;
  /// Parent span id; 0 = root of its trace.
  std::uint64_t parent = 0;
  /// Simulator node ("process" in the exported trace).
  std::uint32_t node = 0;
  std::string name;
  SimTime begin = 0;
  SimTime end = -1;  // -1 = still open (closed by end_span or export)

  bool open() const { return end < begin; }
};

/// One recorded instant event (retransmit, invalidate, promotion, ...).
struct InstantRecord {
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;
  std::uint32_t node = 0;
  std::string name;
  SimTime at = 0;
};

/// One gauge sample (per-link queue depth / utilization).
struct CounterSample {
  std::uint32_t node = 0;
  std::string name;
  SimTime at = 0;
  double value = 0.0;
};

class Tracer {
 public:
  // --- id allocation: UNCONDITIONAL (see determinism contract) -------
  // The id space is partitioned BY SOURCE NODE, not by execution lane:
  // id = (node+1) << 40 | that node's monotone counter.  Two properties
  // follow, and both matter:
  //   * shard-safety — a node's counters only advance while its owning
  //     shard executes it, so no two worker threads ever touch the same
  //     slot and no synchronization is needed;
  //   * shard-count INVARIANCE — trace ids ride in frame headers, and
  //     frame bytes feed the wire digest, so allocation must not depend
  //     on how the fabric is partitioned.  A per-node sequence depends
  //     only on that node's (deterministic) execution order; an
  //     exec-lane-strided allocator would bake the shard count into the
  //     wire bytes and break the sequential-vs-sharded digest identity.
  //     Frame ids never reach the wire bytes, but taps see them, so
  //     they follow the same rule.
  // (node+1) keeps ids nonzero ({0,0} = untraced) and below the leaf
  // range at bit 63 for any node id < 2^23.
  HOT_PATH std::uint64_t new_trace_id(std::uint32_t node) {
    return (static_cast<std::uint64_t>(node + 1) << kNodeIdShift) |
           ++node_ids_[node].trace;
  }
  HOT_PATH std::uint64_t new_span_id(std::uint32_t node) {
    return (static_cast<std::uint64_t>(node + 1) << kNodeIdShift) |
           ++node_ids_[node].span;
  }
  /// Packet::frame_id of a fresh emission by `node` (Network::transmit).
  HOT_PATH std::uint64_t new_frame_id(std::uint32_t node) {
    return (static_cast<std::uint64_t>(node + 1) << kNodeIdShift) |
           ++node_ids_[node].frame;
  }

  // --- arming --------------------------------------------------------
  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// Route recording through `j` while it is deferring (the parallel
  /// driver's epochs); null or non-deferring = record inline.  Bound
  /// unconditionally by the Network at construction.
  void bind_journal(ShardJournal* j) { journal_ = j; }

  /// Extra pre-formatted trace_event JSON objects appended to the
  /// export (the ShardProfiler's host-time lane family).
  void set_aux_chrome_source(std::function<std::vector<std::string>()> fn) {
    aux_events_ = std::move(fn);
  }

  /// Name a node's process lane in the export (registered by the
  /// Network as nodes are added; cheap, unconditional).  Also sizes the
  /// per-node id allocators, so every registered node may mint ids.
  void set_process_name(std::uint32_t node, std::string name);

  // --- recording: no-ops unless armed --------------------------------
  /// Open a span whose id was pre-allocated with new_span_id() (wire-
  /// carried spans must allocate unconditionally; pass the id here).
  MAY_ALLOC void begin_span(std::uint64_t span_id, std::uint64_t trace,
                            std::uint64_t parent, std::uint32_t node,
                            std::string name, SimTime begin);
  /// MAY_ALLOC: armed-only recording appends to in-memory vectors; by
  /// the determinism contract above it never runs during a measured
  /// (unarmed) simulation, so hot paths may call it freely.
  MAY_ALLOC void end_span(std::uint64_t span_id, SimTime end);
  /// Record a closed leaf span (never referenced by the wire); an
  /// internal id is assigned only when armed, so unarmed runs allocate
  /// nothing.
  MAY_ALLOC void leaf_span(std::uint64_t trace, std::uint64_t parent,
                           std::uint32_t node, std::string name,
                           SimTime begin, SimTime end);
  MAY_ALLOC void instant(std::uint64_t trace, std::uint64_t parent,
                         std::uint32_t node, std::string name, SimTime at);
  MAY_ALLOC void counter(std::uint32_t node, const std::string& name,
                         SimTime at, double value);

  // --- introspection (tests) -----------------------------------------
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  /// Spans belonging to `trace`, in recording order.
  std::vector<SpanRecord> spans_of(std::uint64_t trace) const;

  // --- export --------------------------------------------------------
  /// Chrome trace_event JSON (Perfetto / chrome://tracing).  Open spans
  /// are closed at the latest recorded timestamp.
  std::string chrome_trace_json() const;
  /// Write chrome_trace_json() to `path`; false on I/O failure.
  bool export_chrome_trace(const std::string& path) const;

 private:
  bool armed_ = false;
  static constexpr std::uint32_t kNodeIdShift = 40;
  /// Padded so two nodes' counters never share a cache line (adjacent
  /// nodes may live on different shards).  Grown by set_process_name as
  /// the Network registers nodes — always on the control thread, before
  /// any worker exists — and thereafter each slot is written only by
  /// the shard that owns its node.
  struct alignas(64) IdNode {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t frame = 0;
  };
  std::vector<IdNode> node_ids_;
  /// Leaf spans get ids from a disjoint (high-bit) range so they can
  /// never collide with wire-carried ids — and, being armed-only, their
  /// counter may advance differently across armed/unarmed runs without
  /// touching the wire.  Un-laned on purpose: under the concurrent
  /// driver leaf recording defers through the journal, so the counter
  /// advances only at barrier replay (single thread, canonical order) —
  /// which also makes leaf ids shard-count-invariant.
  std::uint64_t next_leaf_ = 1;

  /// Run `f` now, or journal it for barrier replay while the bound
  /// journal defers (see class comment).  No journal = always inline.
  template <typename F>
  void record(F&& f) {
    if (journal_ == nullptr) {
      f();
    } else {
      journal_->run_or_defer(std::forward<F>(f));
    }
  }

  ShardJournal* journal_ = nullptr;
  std::function<std::vector<std::string>()> aux_events_;

  std::vector<SpanRecord> spans_;
  std::unordered_map<std::uint64_t, std::size_t> open_;  // span id -> index
  std::vector<InstantRecord> instants_;
  std::vector<CounterSample> counters_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
};

}  // namespace objrpc::obs
