#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace objrpc::obs {

int Histogram::bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  return 64 - std::countl_zero(v);
}

std::pair<std::uint64_t, std::uint64_t> Histogram::bucket_range(int b) {
  if (b <= 0) return {0, 0};
  const std::uint64_t lo = 1ULL << (b - 1);
  const std::uint64_t hi =
      b >= 64 ? ~0ULL : (1ULL << b) - 1;
  return {lo, hi};
}

void Histogram::add(std::uint64_t v) {
  ++buckets_[bucket_index(v)];
  ++count_;
  sum_ += v;
  min_ = count_ == 1 ? v : std::min(min_, v);
  max_ = count_ == 1 ? v : std::max(max_, v);
  // Retain the largest kTailSize samples exactly (bounded min-heap: the
  // front is the smallest retained value, evicted when a larger sample
  // arrives).
  if (tail_.size() < kTailSize) {
    tail_.push_back(v);
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>{});
  } else if (v > tail_.front()) {
    std::pop_heap(tail_.begin(), tail_.end(), std::greater<>{});
    tail_.back() = v;
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>{});
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::uint64_t v : other.tail_) {
    if (tail_.size() < kTailSize) {
      tail_.push_back(v);
      std::push_heap(tail_.begin(), tail_.end(), std::greater<>{});
    } else if (v > tail_.front()) {
      std::pop_heap(tail_.begin(), tail_.end(), std::greater<>{});
      tail_.back() = v;
      std::push_heap(tail_.begin(), tail_.end(), std::greater<>{});
    }
  }
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target (1-based), then walk buckets to find its home.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  // Exact path: the rank-th smallest sample is among the retained
  // largest when fewer than tail_.size() samples rank above it.
  const std::uint64_t above = count_ - rank;
  if (above < tail_.size()) {
    std::vector<std::uint64_t> sorted(tail_);
    std::sort(sorted.begin(), sorted.end());
    return static_cast<double>(sorted[sorted.size() - 1 - above]);
  }
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] >= rank) {
      const auto [lo, hi] = bucket_range(b);
      // Interpolate position-within-bucket linearly across its range.
      const double frac = buckets_[b] == 1
                              ? 0.5
                              : static_cast<double>(rank - seen - 1) /
                                    static_cast<double>(buckets_[b] - 1);
      double est = static_cast<double>(lo) +
                   frac * static_cast<double>(hi - lo);
      est = std::max(est, static_cast<double>(min_));
      est = std::min(est, static_cast<double>(max_));
      // A rank outside the retained tail is <= every retained sample;
      // tightening by the tail floor also keeps interpolated mid-ranks
      // monotone against exact tail quantiles.
      if (!tail_.empty()) {
        est = std::min(est, static_cast<double>(tail_.front()));
      }
      return est;
    }
    seen += buckets_[b];
  }
  return static_cast<double>(max_);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(sources_.size());
  for (const auto& [name, fn] : sources_) {
    snap.counters.emplace_back(name, fn ? fn() : 0);
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistView v;
    v.count = h.count();
    v.sum = h.sum();
    v.min = h.min();
    v.max = h.max();
    v.p50 = h.quantile(0.50);
    v.p99 = h.quantile(0.99);
    v.p999 = h.quantile(0.999);
    snap.histograms.emplace_back(name, v);
  }
  return snap;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

namespace {

void append_f(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_u(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_u(out, v);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": ";
    append_u(out, h.count);
    out += ", \"sum\": ";
    append_u(out, h.sum);
    out += ", \"min\": ";
    append_u(out, h.min);
    out += ", \"max\": ";
    append_u(out, h.max);
    out += ", \"p50\": ";
    append_f(out, h.p50);
    out += ", \"p99\": ";
    append_f(out, h.p99);
    out += ", \"p999\": ";
    append_f(out, h.p999);
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace objrpc::obs
