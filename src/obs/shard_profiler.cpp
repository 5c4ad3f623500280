#include "obs/shard_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace objrpc::obs {

std::uint64_t ShardProfiler::host_now_ns() {
  // The profiler measures wall execution only; no simulated behaviour
  // reads host time, so determinism of the simulation is unaffected.
  const auto t = std::chrono::steady_clock::now();  // fablint:allow(entropy) wall-clock profiler only
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

void ShardProfiler::arm(MetricsRegistry& metrics, std::uint32_t workers) {
  armed_ = true;
  workers_ = workers;
  lanes_.assign(workers, LaneSeries{});
  h_epoch_ = &metrics.histogram("shard/epoch_host_ns");
  h_exec_ = &metrics.histogram("shard/exec_host_ns");
  h_wait_ = &metrics.histogram("shard/barrier_wait_ns");
  h_drain_ = &metrics.histogram("shard/drain_host_ns");
  h_util_ = &metrics.histogram("shard/lane_utilization_pct");
  h_handoff_ = &metrics.histogram("shard/ring_occupancy");
  c_epochs_ = &metrics.counter("shard/epochs");
  c_cross_ = &metrics.counter("shard/cross_frames");
  metrics.gauge("shard/lanes").set(static_cast<double>(workers));
}

void ShardProfiler::begin_exec(std::uint32_t lane) {
  if (!armed_ || lane >= workers_) return;
  lanes_[lane].open_t0 = host_now_ns();
}

void ShardProfiler::end_exec(std::uint32_t lane) {
  if (!armed_ || lane >= workers_) return;
  LaneSeries& s = lanes_[lane];
  s.last_t0 = s.open_t0;
  s.last_t1 = host_now_ns();
  if (s.recs.size() < kMaxChromeEpochs) {
    s.recs.push_back(ExecRec{cur_epoch_, s.last_t0, s.last_t1});
  }
}

void ShardProfiler::begin_epoch(std::uint64_t epoch) {
  if (!armed_) return;
  cur_epoch_ = epoch;
  cur_ = EpochRec{};
  cur_.epoch = epoch;
  cur_.t_release = host_now_ns();
  if (base_ns_ == 0) base_ns_ = cur_.t_release;
  for (LaneSeries& s : lanes_) s.last_t0 = s.last_t1 = cur_.t_release;
}

void ShardProfiler::end_epoch() {
  if (!armed_) return;
  cur_.t_parked = host_now_ns();
}

void ShardProfiler::sample_handoffs(std::uint32_t lane, std::size_t depth) {
  if (!armed_) return;
  h_handoff_->add(static_cast<std::uint64_t>(depth));
  // Only for epochs the chrome export will actually contain.
  if (epochs_.size() < kMaxChromeEpochs) {
    handoffs_.push_back(
        HandoffRec{cur_epoch_, lane, static_cast<std::uint64_t>(depth)});
  }
}

void ShardProfiler::begin_drain() {
  if (!armed_) return;
  cur_.t_drain0 = host_now_ns();
}

void ShardProfiler::end_drain(std::uint64_t cross_total) {
  if (!armed_) return;
  cur_.t_drain1 = host_now_ns();
  const std::uint64_t epoch_ns = cur_.t_parked - cur_.t_release;
  h_epoch_->add(epoch_ns);
  h_drain_->add(cur_.t_drain1 - cur_.t_drain0);
  for (const LaneSeries& s : lanes_) {
    const std::uint64_t exec_ns =
        s.last_t1 > s.last_t0 ? s.last_t1 - s.last_t0 : 0;
    h_exec_->add(exec_ns);
    h_wait_->add(cur_.t_parked > s.last_t1 ? cur_.t_parked - s.last_t1 : 0);
    h_util_->add(epoch_ns > 0 ? exec_ns * 100 / epoch_ns : 0);
  }
  c_epochs_->inc();
  c_cross_->inc(cross_total - last_cross_);
  last_cross_ = cross_total;
  if (epochs_.size() < kMaxChromeEpochs) epochs_.push_back(cur_);
}

std::vector<std::string> ShardProfiler::chrome_events() const {
  std::vector<std::string> out;
  if (!armed_ || epochs_.empty()) return out;
  char buf[256];
  const auto us = [this](std::uint64_t t_ns) {
    return (t_ns >= base_ns_ ? static_cast<double>(t_ns - base_ns_) : 0.0) /
           1000.0;
  };
  const std::uint32_t coord_pid = kPidBase + workers_;
  for (std::uint32_t lane = 0; lane < workers_; ++lane) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"shard-lane-%u\"}}",
                  kPidBase + lane, lane);
    out.emplace_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                "\"tid\":0,\"args\":{\"name\":\"shard-coordinator\"}}",
                coord_pid);
  out.emplace_back(buf);
  for (const EpochRec& e : epochs_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"epoch\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%llu}}",
                  coord_pid, us(e.t_release),
                  us(e.t_drain1) - us(e.t_release),
                  static_cast<unsigned long long>(e.epoch));
    out.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"drain\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%llu}}",
                  coord_pid, us(e.t_drain0), us(e.t_drain1) - us(e.t_drain0),
                  static_cast<unsigned long long>(e.epoch));
    out.emplace_back(buf);
  }
  for (std::uint32_t lane = 0; lane < workers_; ++lane) {
    for (const ExecRec& r : lanes_[lane].recs) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"exec\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%llu}}",
                    kPidBase + lane, us(r.t0), us(r.t1) - us(r.t0),
                    static_cast<unsigned long long>(r.epoch));
      out.emplace_back(buf);
    }
  }
  for (const HandoffRec& r : handoffs_) {
    // Sampled at the owning epoch's barrier (drain start).  epochs_ is
    // sorted by epoch number, so binary-search the timestamp.
    const auto it = std::lower_bound(
        epochs_.begin(), epochs_.end(), r.epoch,
        [](const EpochRec& e, std::uint64_t epoch) { return e.epoch < epoch; });
    if (it == epochs_.end() || it->epoch != r.epoch) continue;
    const std::uint64_t ts = it->t_drain0;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"ring_occupancy\",\"ph\":\"C\",\"pid\":%u,"
                  "\"tid\":0,\"ts\":%.3f,\"args\":{\"frames\":%llu}}",
                  kPidBase + r.lane, us(ts),
                  static_cast<unsigned long long>(r.depth));
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace objrpc::obs
