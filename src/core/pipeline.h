// The end-to-end evaluation harness (§5.1 "Training and Testing").
//
// Mirrors the paper's protocol: train on the first month's normal logs
// (ticket windows removed), then for every following month score the fresh
// logs with the current model, map detected anomaly clusters to tickets,
// and finally perform that month's incremental model update. When the
// software-update rollout hits a group's vPEs, the adaptation variant
// fine-tunes top layers on one week of post-update data; the
// non-adaptation variants must dig themselves out through ordinary
// incremental training (the Fig. 7 comparison).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/detector.h"
#include "core/feature_detectors.h"
#include "core/lstm_detector.h"
#include "core/mapper.h"
#include "core/metrics.h"
#include "core/parsed_fleet.h"
#include "core/vpe_clustering.h"
#include "simnet/fleet.h"

namespace nfv::core {

struct PipelineOptions {
  DetectorKind detector = DetectorKind::kLstm;
  /// Per-group models (true) vs one global model (false).
  bool customize = true;
  /// Transfer-learning adaptation after software updates.
  bool adapt = true;
  /// Forwarded to the LSTM detector's minority over-sampling loop.
  bool oversample = true;
  /// Forwarded to LstmDetectorConfig::persistent_optimizer: keep one Adam
  /// (moment state included) alive across the monthly update/adapt rounds
  /// instead of restarting it cold each round. Off by default to preserve
  /// the seed training trajectory.
  bool persistent_optimizer = false;
  VpeClusteringOptions clustering{.fixed_k = 4};
  MappingConfig mapping;
  /// Margin before ticket report for training-data exclusion (paper: 3 d).
  nfv::util::Duration exclusion_margin = nfv::util::Duration::of_days(3);
  /// Months of data used for the initial fit.
  int initial_train_months = 1;
  /// Post-update data span handed to adapt() (paper: 1 week suffices).
  nfv::util::Duration adapt_span = nfv::util::Duration::of_days(7);
  /// Operating threshold = this quantile of training-data scores.
  double threshold_quantile = 0.99;
  /// Worker threads for the fan-out: one task per vPE stream for every
  /// scoring and calibration pass, one per group for fit/update/adapt,
  /// and each month's update overlapping that month's scoring (on a
  /// month-start clone). 1 = serial (default): the ml kernels underneath
  /// stay on the calling thread too, instead of row-blocking their large
  /// products onto the global pool; 0 = auto (NFVPRED_THREADS env
  /// override, else hardware concurrency). Results are bit-identical for
  /// every thread count.
  std::size_t threads = 1;
  std::uint64_t seed = 7;
  /// Quantized steady-state scoring (LSTM detector only): each group's
  /// model is calibrated to per-channel int8 after training and every
  /// scoring pass runs the packed int8 kernels (forwarded to
  /// LstmDetectorConfig::quantize; overrides lstm_config's value when on).
  bool quantize = false;
  /// Optional override of the LSTM detector configuration.
  std::optional<LstmDetectorConfig> lstm_config;
};

struct MonthlyMetrics {
  int month = 0;
  PrfMetrics prf;
  double false_alarms_per_day = 0.0;
  std::size_t anomaly_clusters = 0;
};

struct PipelineResult {
  VpeClustering clustering;
  /// Per-month metrics at the rolling operating threshold (Fig. 7 series).
  std::vector<MonthlyMetrics> monthly;
  /// All scored test events + tickets per vPE across the whole evaluation
  /// span — input for threshold sweeps (Figs. 5 & 6).
  std::vector<VpeScoredStream> streams;
  /// Ticket-level detection summaries at the operating threshold (Fig. 8).
  std::vector<TicketDetection> detections;
  /// Aggregate mapping at the operating threshold.
  MappingResult mapping;
  /// Final per-group operating thresholds, indexed by clustering group.
  std::vector<double> group_thresholds;
  PrfMetrics aggregate;
  double false_alarms_per_day = 0.0;
  double eval_days = 0.0;
};

/// Builds one group's detector from that group's seed.
using DetectorFactory =
    std::function<std::unique_ptr<AnomalyDetector>(std::uint64_t seed)>;

/// Run the full rolling evaluation.
PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options);

/// As above, with every group's detector built by `make` instead of from
/// options.detector / lstm_config (a seam for detector doubles in tests).
PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options,
                            const DetectorFactory& make);

/// Tickets of one vPE whose mapping-relevant span intersects [begin, end).
std::vector<simnet::Ticket> tickets_in_window(
    const simnet::FleetTrace& trace, std::int32_t vpe,
    nfv::util::SimTime begin, nfv::util::SimTime end,
    nfv::util::Duration predictive_period);

}  // namespace nfv::core
