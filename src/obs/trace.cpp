#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"

namespace objrpc::obs {

void Tracer::set_process_name(std::uint32_t node, std::string name) {
  if (node >= node_ids_.size()) node_ids_.resize(node + 1);
  for (auto& [n, nm] : process_names_) {
    if (n == node) {
      nm = std::move(name);
      return;
    }
  }
  process_names_.emplace_back(node, std::move(name));
}

// Each public hook records through record(): inline (serial driver,
// control context, no journal) or journaled as a by-value capture for
// barrier replay — the same closure appends either way, so the record
// vectors are identical in every mode.

void Tracer::begin_span(std::uint64_t span_id, std::uint64_t trace,
                        std::uint64_t parent, std::uint32_t node,
                        std::string name, SimTime begin) {
  if (!armed_) return;
  record([this, span_id, trace, parent, node, name = std::move(name),
          begin]() mutable {
    open_[span_id] = spans_.size();
    spans_.push_back(
        SpanRecord{span_id, trace, parent, node, std::move(name), begin});
  });
}

void Tracer::end_span(std::uint64_t span_id, SimTime end) {
  if (!armed_) return;
  record([this, span_id, end] {
    auto it = open_.find(span_id);
    if (it == open_.end()) return;
    spans_[it->second].end = end;
    open_.erase(it);
  });
}

void Tracer::leaf_span(std::uint64_t trace, std::uint64_t parent,
                       std::uint32_t node, std::string name, SimTime begin,
                       SimTime end) {
  if (!armed_) return;
  record([this, trace, parent, node, name = std::move(name), begin,
          end]() mutable {
    spans_.push_back(SpanRecord{(1ULL << 63) | next_leaf_++, trace, parent,
                                node, std::move(name), begin, end});
  });
}

void Tracer::instant(std::uint64_t trace, std::uint64_t parent,
                     std::uint32_t node, std::string name, SimTime at) {
  if (!armed_) return;
  record([this, trace, parent, node, name = std::move(name), at]() mutable {
    instants_.push_back({trace, parent, node, std::move(name), at});
  });
}

void Tracer::counter(std::uint32_t node, const std::string& name, SimTime at,
                     double value) {
  if (!armed_) return;
  record([this, node, name, at, value]() mutable {
    counters_.push_back({node, std::move(name), at, value});
  });
}

std::vector<SpanRecord> Tracer::spans_of(std::uint64_t trace) const {
  std::vector<SpanRecord> out;
  for (const auto& s : spans_) {
    if (s.trace == trace) out.push_back(s);
  }
  return out;
}

namespace {

/// Simulated nanoseconds -> trace_event microseconds.
void append_us(std::string& out, SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1000.0);
  out += buf;
}

void append_u(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  // Open spans (e.g. an operation cut off by the end of the run) close
  // at the latest timestamp anything recorded.
  SimTime horizon = 0;
  for (const auto& s : spans_) {
    horizon = std::max(horizon, std::max(s.begin, s.end));
  }
  for (const auto& i : instants_) horizon = std::max(horizon, i.at);
  for (const auto& c : counters_) horizon = std::max(horizon, c.at);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  auto names = process_names_;
  std::sort(names.begin(), names.end());
  for (const auto& [node, name] : names) {
    sep();
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ";
    append_u(out, node);
    out += ", \"tid\": 0, \"args\": {\"name\": ";
    append_json_string(out, name);
    out += "}}";
  }

  for (const auto& s : spans_) {
    const SimTime end = s.open() ? horizon : s.end;
    sep();
    out += "{\"ph\": \"X\", \"name\": ";
    append_json_string(out, s.name);
    out += ", \"pid\": ";
    append_u(out, s.node);
    out += ", \"tid\": ";
    append_u(out, s.trace);
    out += ", \"ts\": ";
    append_us(out, s.begin);
    out += ", \"dur\": ";
    append_us(out, end - s.begin);
    out += ", \"args\": {\"trace\": ";
    append_u(out, s.trace);
    out += ", \"span\": ";
    append_u(out, s.id);
    out += ", \"parent\": ";
    append_u(out, s.parent);
    out += "}}";
  }

  for (const auto& i : instants_) {
    sep();
    out += "{\"ph\": \"i\", \"s\": \"t\", \"name\": ";
    append_json_string(out, i.name);
    out += ", \"pid\": ";
    append_u(out, i.node);
    out += ", \"tid\": ";
    append_u(out, i.trace);
    out += ", \"ts\": ";
    append_us(out, i.at);
    out += ", \"args\": {\"trace\": ";
    append_u(out, i.trace);
    out += ", \"parent\": ";
    append_u(out, i.parent);
    out += "}}";
  }

  for (const auto& c : counters_) {
    sep();
    out += "{\"ph\": \"C\", \"name\": ";
    append_json_string(out, c.name);
    out += ", \"pid\": ";
    append_u(out, c.node);
    out += ", \"ts\": ";
    append_us(out, c.at);
    out += ", \"args\": {\"value\": ";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", c.value);
    out += buf;
    out += "}}";
  }

  if (aux_events_) {
    for (const std::string& e : aux_events_()) {
      sep();
      out += e;
    }
  }

  out += "\n]}\n";
  return out;
}

bool Tracer::export_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = chrome_trace_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace objrpc::obs
