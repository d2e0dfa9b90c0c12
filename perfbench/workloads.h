// Workload generation and system set-up for the fleet-monitor benchmark.
//
// Input generation (simnet rendering, the fleet simulation) happens here,
// before and outside every timed region; the program under test only ever
// sees the generated lines. Set-up (training, calibration, runtime
// construction, priming, start) is what the setup_s metric times.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "core/pipeline.h"
#include "simnet/fleet.h"
#include "simnet/template_catalog.h"

namespace perfbench {

enum class Kind { kFleet10k, kShift64, kOffline18mo };

/// Live-leg thread budget: one generator/drain thread plus three shard
/// workers (4 cores).
constexpr std::size_t kLiveWorkers = 3;

/// One expected warning of the analytic oracle (or of the one-thread
/// reference pass), keyed by vPE and first-anomaly time. `completer` is
/// the submission index of the line that completes the cluster; only
/// warnings with `timed` set contribute warning-latency samples.
struct Expected {
  std::int32_t vpe = -1;
  std::int64_t time = 0;
  std::size_t completer = 0;
  bool timed = true;
  nfv::core::StreamWarning full;  // all fields when `has_full`
  bool has_full = false;
};

/// The live leg's input in submission order, held in one text buffer.
struct LiveInput {
  std::size_t vpes = 0;
  std::vector<std::uint32_t> vpe;
  std::vector<std::int64_t> time;  // simulated seconds
  std::vector<std::uint64_t> offset;
  std::vector<std::uint32_t> length;
  std::string text;
  /// The caller installs the swap model right before submitting this line.
  std::size_t swap_at = 0;
  /// Open-loop offered rate, lines/s.
  double offered_rate = 0.0;
  /// vPEs replayed through a serial StreamMonitor as the reference.
  std::vector<std::uint32_t> replay_vpes;

  std::size_t size() const { return vpe.size(); }
  std::string_view line(std::size_t i) const {
    return std::string_view(text).substr(offset[i], length[i]);
  }
  void add(std::uint32_t v, std::int64_t t, std::string_view line);
  /// Bytes held by the generator's buffers (subtracted from peak RSS).
  std::size_t buffer_bytes() const;
};

struct TrainLine {
  std::int64_t time = 0;
  std::string text;
  bool burst = false;
};

/// Everything generated from (workload, seed) before any timing starts.
struct Workload {
  Kind kind = Kind::kFleet10k;
  std::string name;
  std::uint64_t seed = 0;
  bool short_mode = false;

  nfv::simnet::TemplateCatalog catalog;
  LiveInput input;
  /// Analytic oracle (fleet-10k, shift-64); empty for offline-18mo, whose
  /// reference is a one-thread StreamMonitorGroup pass.
  std::vector<Expected> expected;

  /// Lines every shard tree learns before start(); the first
  /// `model_prime_lines` of them define the model vocabulary.
  std::vector<std::string> prime_lines;
  std::size_t model_prime_lines = 0;
  std::vector<std::vector<TrainLine>> train;
  /// shift-64: per-stream history up to the swap line, bursts flagged;
  /// lines from `adapt_from` on train the adapted model.
  std::vector<std::vector<TrainLine>> adapt;
  std::size_t adapt_from = 0;

  nfv::core::LstmDetectorConfig lstm;
  double threshold_quantile = 0.999;
  double threshold_margin = 0.0;

  /// offline-18mo: the simulated fleet and the evaluation options.
  nfv::simnet::FleetTrace trace;
  nfv::core::PipelineOptions pipeline;
  double simulate_s = 0.0;  // input generation time (all workloads)
};

Workload make_workload(Kind kind, std::uint64_t seed, bool short_mode);

/// Models produced by set-up, plus what set-up measured about ml.
struct Models {
  std::unique_ptr<nfv::core::LstmDetector> detector;
  std::unique_ptr<nfv::core::LstmDetector> swap_to;
  double threshold = 0.0;
  std::size_t window = 0;
  std::size_t model_vocab = 0;
  std::size_t primed_size = 0;  // tree size after priming
  double fit_s = 0.0;
  double train_examples = 0.0;
  double calib_s = 0.0;
  double calib_windows = 0.0;
};

/// Train + calibrate (+ adapt for shift-64): the model half of set-up.
Models train_models(const Workload& w);

/// One set-up: train_models(), then build, prime and start a runtime with
/// `workers` shard workers.
struct System {
  Models models;
  std::unique_ptr<nfv::core::AsyncIngest> ingest;
  double setup_s = 0.0;
};

System set_up(const Workload& w, std::size_t workers);

void prime_tree(const Workload& w, nfv::logproc::SignatureTree& tree);
nfv::core::StreamMonitorConfig monitor_config(const Models& m);
nfv::core::AsyncIngestConfig runtime_config(std::size_t workers);

}  // namespace perfbench
