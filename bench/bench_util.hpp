// Shared helpers for the figure/claim benches: sequential async drivers,
// aligned table printing, and machine-readable BENCH_<name>.json output.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"

namespace objrpc::bench {

/// Drive `n` asynchronous steps strictly one-after-another: `step(i,
/// next)` must call `next()` when step i completes.  `done` fires after
/// the last step.  The event loop must be pumped by the caller (steps
/// are expected to schedule simulator events).
inline void run_sequential(int n,
                           std::function<void(int, std::function<void()>)> step,
                           std::function<void()> done) {
  // The chain holds itself only weakly; each step's continuation holds
  // it strongly, so it is freed once the last step completes (a strong
  // self-capture would leak every chain).
  using Advance = std::function<void(int)>;
  auto advance = std::make_shared<Advance>();
  *advance = [n, step = std::move(step), done = std::move(done),
              weak = std::weak_ptr<Advance>(advance)](int i) {
    if (i >= n) {
      done();
      return;
    }
    step(i, [self = weak.lock(), i] {
      const auto keep = self;  // outlives this continuation if it is freed
      (*keep)(i + 1);
    });
  };
  (*advance)(0);
}

/// Mean / p50 / p99 / p999 of a sample set, in the samples' own unit.
/// The figure benches report tails as well as means: a cache or offload
/// that only moves the mean is indistinguishable from one that actually
/// shortens the common path — and for multi-tenant SLOs the p999 is the
/// number the aggressor moves first.
struct LatencySummary {
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;

  static LatencySummary of(const SampleSet& s) {
    return {s.mean(), s.percentile(50.0), s.percentile(99.0),
            s.percentile(99.9)};
  }
};

/// Fixed-width table printing.  Rows are also recorded so a bench can
/// hand the table to BenchJson for the machine-readable dump.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) {
      std::printf("%14s", h.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%14s", "------------");
    }
    std::printf("\n");
  }

  void row(const std::vector<double>& values) {
    for (double v : values) {
      if (v == static_cast<double>(static_cast<long long>(v)) &&
          std::abs(v) < 1e15) {
        std::printf("%14lld", static_cast<long long>(v));
      } else {
        std::printf("%14.2f", v);
      }
    }
    std::printf("\n");
    rows_.push_back(values);
  }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<double>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<double>> rows_;
};

/// Where a bench's JSON lands: $BENCH_JSON_DIR/BENCH_<name>.json, or the
/// working directory when the variable is unset.
inline std::string bench_json_path(const std::string& bench_name) {
  const char* dir = std::getenv("BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0')
                         ? std::string(dir) + "/"
                         : std::string();
  return path + "BENCH_" + bench_name + ".json";
}

/// Machine-readable bench results.  Collects named scalars, tables, and
/// pre-rendered JSON fragments (a MetricsRegistry::to_json() dump), then
/// writes one BENCH_<name>.json so the perf trajectory can be tracked
/// across commits instead of eyeballed from stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void value(const std::string& key, double v) {
    fields_.emplace_back(key, number(v));
  }

  void table(const std::string& key, const Table& t) {
    std::string json = "{\"headers\":[";
    for (std::size_t i = 0; i < t.headers().size(); ++i) {
      if (i != 0) json += ',';
      json += '"' + escape(t.headers()[i]) + '"';
    }
    json += "],\"rows\":[";
    for (std::size_t r = 0; r < t.rows().size(); ++r) {
      if (r != 0) json += ',';
      json += '[';
      for (std::size_t c = 0; c < t.rows()[r].size(); ++c) {
        if (c != 0) json += ',';
        json += number(t.rows()[r][c]);
      }
      json += ']';
    }
    json += "]}";
    fields_.emplace_back(key, std::move(json));
  }

  /// Attach a fragment that is already JSON (e.g. the metrics registry
  /// dump of the bench's final run).  Stored verbatim.
  void raw(const std::string& key, std::string json) {
    if (json.empty()) json = "null";
    fields_.emplace_back(key, std::move(json));
  }

  /// Write the collected document.  Empty path = bench_json_path(name).
  /// Returns false (and warns on stderr) on I/O failure.
  bool emit_metrics_json(std::string path = "") {
    if (path.empty()) path = bench_json_path(name_);
    std::string doc = "{\"bench\":\"" + escape(name_) + "\"";
    for (const auto& [key, json] : fields_) {
      doc += ",\"" + escape(key) + "\":" + json;
    }
    doc += "}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (ok) std::printf("\nwrote %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace objrpc::bench
