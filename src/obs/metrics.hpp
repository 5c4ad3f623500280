// Unified metrics registry (DESIGN.md §12).
//
// Before this layer every module grew its own ad-hoc counter struct —
// useful per-instance, invisible in aggregate.  The registry gives every
// counter and histogram in a simulation one namespace, one
// deterministic snapshot order (sorted by name), and one JSON export the
// benches and CI can diff.
//
// A counter is a source — `group.add("frags_sent", [this]{ return
// counters_.fragments_sent; })`: a read-through view over a member of
// the component that counts, evaluated at snapshot time.  The
// per-module Counters structs (ReliableChannel, ObjectFetcher,
// ControllerNode, ...) join the registry this way, without changing
// their accessors or any increment site.  Histograms are owned by the
// registry.
//
// Determinism contract: a snapshot is a pure read — it never reorders,
// allocates ids, or draws randomness — and iterates std::map (sorted by
// name), so two same-seed runs produce byte-identical JSON.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.hpp"

namespace objrpc::obs {

/// A log-scale (power-of-two) histogram over non-negative u64 samples.
//
// Bucket 0 holds exactly 0; bucket k (1..64) holds [2^(k-1), 2^k).
// 65 fixed buckets cover the full u64 range, merge is bucket-wise
// addition, and quantiles interpolate linearly inside the covering
// bucket — a ~2x relative error bound at O(1) space.
//
// For the extreme tail that bound is too loose: a p999 off by 2x is
// useless for SLO reporting.  So the histogram additionally retains the
// largest kTailSize samples exactly (a bounded min-heap); any quantile
// whose rank falls inside that retained tail — p999 up to ~512k
// samples, p99 up to ~51k — is answered EXACTLY, and only deeper ranks
// fall back to bucket interpolation.
class Histogram {
 public:
  static constexpr int kBuckets = 65;
  /// Exactly-retained largest samples (4 KiB per histogram).
  static constexpr std::size_t kTailSize = 512;

  /// Index of the bucket holding `v`: 0 for 0, else 1 + floor(log2 v).
  static int bucket_index(std::uint64_t v);
  /// [lo, hi] inclusive value range of bucket `b`.
  static std::pair<std::uint64_t, std::uint64_t> bucket_range(int b);

  void add(std::uint64_t v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  std::uint64_t bucket_count(int b) const { return buckets_[b]; }

  /// Quantile estimate, q in [0, 1].  Exact when the rank lands in the
  /// retained tail (see class comment); otherwise linear interpolation
  /// within the covering bucket (clamped to the observed min/max).
  double quantile(double q) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  /// Min-heap over the largest min(kTailSize, count) samples.
  std::vector<std::uint64_t> tail_;
};

/// Deterministic point-in-time view of a registry.
struct MetricsSnapshot {
  struct HistView {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  /// Counter sources, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistView>> histograms;

  std::string to_json() const;
};

/// Append `s` to `out` as a quoted JSON string, backslash-escaping `"`
/// and `\`.  The one escaper of the metrics and trace exporters.
void append_json_string(std::string& out, const std::string& s);

/// The process-wide metric namespace for one simulation.  Owned by the
/// Network (every component can reach it via `net().metrics()`), so one
/// deployment = one registry = one snapshot.
class MetricsRegistry {
 public:
  using Source = std::function<std::uint64_t()>;

  // CROSS_SHARD: one registry serves the whole fabric; components on
  // any future shard register and bump through these accessors.
  CROSS_SHARD Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  /// Register a read-through counter source (legacy struct member).
  /// Re-registering a name replaces the previous source.
  CROSS_SHARD void add_source(const std::string& name, Source fn) {
    sources_[name] = std::move(fn);
  }
  /// MAY_ALLOC: teardown-only (SourceGroup destructors); shrinking the
  /// source list is never on a frame path.
  CROSS_SHARD MAY_ALLOC void remove_source(const std::string& name) {
    sources_.erase(name);
  }

  /// Deterministic snapshot: every metric, sorted by name, sources
  /// evaluated now.
  MetricsSnapshot snapshot() const;
  /// snapshot().to_json() convenience.
  std::string to_json() const { return snapshot().to_json(); }

  std::size_t size() const {
    return histograms_.size() + sources_.size();
  }

 private:
  // std::map: snapshot order is name order, never hash layout.
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Source> sources_;
};

/// RAII bundle of sources sharing one instance prefix.  A component
/// declares one of these LAST among its members, attaches it in its
/// constructor, and its sources unregister automatically before the
/// counters they read are destroyed.
class SourceGroup {
 public:
  SourceGroup() = default;
  ~SourceGroup() { clear(); }
  SourceGroup(const SourceGroup&) = delete;
  SourceGroup& operator=(const SourceGroup&) = delete;

  /// Bind to `registry` with `prefix` (e.g. "host0/reliable").
  void attach(MetricsRegistry& registry, std::string prefix) {
    clear();
    registry_ = &registry;
    prefix_ = std::move(prefix);
  }

  /// Register `prefix/name`; no-op if not attached.
  void add(const std::string& name, MetricsRegistry::Source fn) {
    if (!registry_) return;
    std::string full = prefix_ + "/" + name;
    registry_->add_source(full, std::move(fn));
    names_.push_back(std::move(full));
  }

  void clear() {
    if (registry_) {
      for (const auto& n : names_) registry_->remove_source(n);
    }
    names_.clear();
    registry_ = nullptr;
  }

  bool attached() const { return registry_ != nullptr; }

 private:
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
  std::vector<std::string> names_;
};

}  // namespace objrpc::obs
