// Tracing for the fleet-monitor benchmark: spans recorded from the
// benchmark's own code around calls into each layer, a timing wrapper
// around the detector's scoring entry point, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "util/check.h"
#include "util/json.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// In-memory span log (name, start, end, parent), written out once at the
/// end of the run. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::int32_t open(const char* name, std::int32_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Record an already-timed interval.
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int32_t parent) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, parent});
  }

  bool write(const std::string& path) const {
    nfv::util::JsonWriter w;
    w.begin_object();
    w.key("spans").begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("start_ns", s.start_ns);
      w.kv("end_ns", s.end_ns);
      w.kv("parent", s.parent);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Forwarding detector that times every score_streams call (the ml layer
/// seen from the streaming layer). Training entry points are not used
/// through the wrapper. Single-threaded use only (the decomposition pass).
class TimedDetector final : public nfv::core::AnomalyDetector {
 public:
  TimedDetector(const nfv::core::AnomalyDetector* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_inner(const nfv::core::AnomalyDetector* inner) { inner_ = inner; }
  void set_parent(std::int32_t parent) { parent_ = parent; }

  void fit(std::span<const nfv::core::LogView>, std::size_t) override {
    NFV_CHECK(false, "TimedDetector does not train");
  }
  void update(std::span<const nfv::core::LogView>, std::size_t) override {
    NFV_CHECK(false, "TimedDetector does not train");
  }
  void adapt(std::span<const nfv::core::LogView>, std::size_t) override {
    NFV_CHECK(false, "TimedDetector does not train");
  }
  std::vector<nfv::core::ScoredEvent> score(nfv::core::LogView logs,
                                            std::size_t vocab) const override {
    return std::move(score_streams({&logs, 1}, vocab)[0]);
  }
  std::vector<std::vector<nfv::core::ScoredEvent>> score_streams(
      std::span<const nfv::core::LogView> streams,
      std::size_t vocab) const override {
    const std::uint64_t start = now_ns();
    auto out = inner_->score_streams(streams, vocab);
    const std::uint64_t end = now_ns();
    tracer_->add("ml.score_streams", start, end, parent_);
    ++calls_;
    ns_ += end - start;
    for (const auto& events : out) windows_ += events.size();
    return out;
  }
  bool trained() const override { return inner_->trained(); }
  nfv::core::DetectorKind kind() const override { return inner_->kind(); }
  nfv::core::EventGranularity granularity() const override {
    return inner_->granularity();
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t windows() const { return windows_; }
  std::uint64_t ns() const { return ns_; }

 private:
  const nfv::core::AnomalyDetector* inner_;
  Tracer* tracer_;
  std::int32_t parent_ = Tracer::kNoParent;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t windows_ = 0;
  mutable std::uint64_t ns_ = 0;
};

/// Median, the highest percentile with at least ten samples beyond it, and
/// the sample count of one timing.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  double top = 0.0;
  double top_q = 0.5;
  std::size_t n = 0;
};

inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = sorted_quantile(values, 0.5);
  s.p99 = sorted_quantile(values, 0.99);
  s.top = s.p50;
  for (const double q : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(values.size()) * (1.0 - q) >= 10.0) {
      s.top_q = q;
      s.top = sorted_quantile(values, q);
      break;
    }
  }
  return s;
}

inline double median(std::vector<double> values) {
  return summarize(std::move(values)).p50;
}

}  // namespace perfbench
