// The timed passes of a live leg and the correctness oracle they are
// checked against.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/runtime_stats.h"
#include "core/streaming.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Samples the process's resident set size from its own thread every
/// 10 ms until stop(), which returns the largest sample.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  /// Stops sampling; returns the peak in bytes.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0.0};
  std::thread thread_;
};

/// Current resident set size in bytes.
double rss_bytes();

/// Saturation pass: every line submitted back-to-back through blocking
/// submit(); wall time runs from the first submit until flush() returns.
struct SaturationResult {
  double wall_s = 0.0;
  double peak_rss = 0.0;  // bytes, sampled during the pass
  double lines_per_s = 0.0;
  double swap_ms = 0.0;
  double submit_s = 0.0;  // time inside submit() (timed only when traced)
  /// Submit-side rate of each consecutive kRateWindowLines-line window:
  /// at saturation submit() accepts lines only as fast as workers drain.
  std::vector<double> window_lines_per_s;
  nfv::core::RuntimeStatsSnapshot snapshot;  // after flush()
  std::vector<nfv::core::StreamWarning> warnings;
};

constexpr std::size_t kRateWindowLines = 16384;

SaturationResult run_saturation(const Workload& w, System& sys,
                                bool time_submits, Tracer& tracer);

/// Open-loop pass at the workload's offered rate. The generator thread
/// submits each line when due and polls the warning queue in between.
struct OpenLoopResult {
  double wall_s = 0.0;
  double peak_rss = 0.0;  // bytes, sampled during the pass
  double swap_ms = 0.0;
  std::uint64_t start_ns = 0;
  double period_ns = 0.0;
  std::vector<nfv::core::StreamWarning> warnings;
  std::vector<std::uint64_t> drained_ns;  // per warning
  /// Per line: how late the generator sent it, not counting time the
  /// runtime held the generator inside a call (that delay is the
  /// program's and shows in the warning latency instead).
  std::vector<double> late_ms;
  /// ns between warning-queue polls, minus time spent inside runtime calls.
  nfv::core::HistogramSnapshot poll_gaps;
  std::vector<double> backlog;  // submitted - scored, sampled every 5 ms
  std::vector<double> queue_depth;  // summed ring depth (sampled, traced)
  std::uint64_t stalls = 0;         // full-ring pushes during the pass
  double scored_p99_ms = 0.0;       // runtime's submit->scored histogram
};

OpenLoopResult run_open_loop(const Workload& w, System& sys,
                             bool sample_snapshots, Tracer& tracer);

/// One-thread decomposition pass over the same lines: SignatureTree::learn
/// -> StreamMonitorGroup::ingest_parsed -> flush() every flush_batch lines,
/// scoring through the timing wrapper. Untraced, only the wall time and
/// warnings are kept.
struct DecompositionResult {
  double wall_s = 0.0;
  std::uint64_t mine_ns = 0;
  std::uint64_t stage_ns = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t score_ns = 0;
  std::uint64_t score_calls = 0;
  std::uint64_t windows = 0;
  std::uint64_t flushes = 0;
  std::uint64_t templates_learned = 0;
  std::vector<nfv::core::StreamWarning> warnings;  // per-vPE order
  std::vector<double> scores;  // per line, submission order (keep_scores)
};

DecompositionResult run_decomposition(const Workload& w, const Models& m,
                                      std::size_t flush_batch, bool traced,
                                      bool keep_scores, Tracer& tracer);

/// Serial StreamMonitor replay of the workload's replay subset, applying
/// the swap at the same line; warnings concatenated in ascending vPE order.
std::vector<nfv::core::StreamWarning> serial_replay(const Workload& w,
                                                    const Models& m);

/// Expected warnings for every vPE derived from a one-thread reference
/// pass (all fields) and its per-line scores (cluster-completing lines).
std::vector<Expected> expected_from_reference(
    const Workload& w, const Models& m, const DecompositionResult& ref);

/// Failed-op accounting of one pass against the references.
struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  std::uint64_t differing = 0;
  std::uint64_t replay_mismatch = 0;
  std::vector<std::size_t> completer;  // per got warning; npos = untimed
};

constexpr std::size_t kNoCompleter = static_cast<std::size_t>(-1);

CheckResult check_warnings(const Workload& w,
                           const std::vector<Expected>& expected,
                           const std::vector<nfv::core::StreamWarning>& replay,
                           const std::vector<nfv::core::StreamWarning>& got);

}  // namespace perfbench
