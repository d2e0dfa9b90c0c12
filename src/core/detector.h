// Common interface for the anomaly detectors compared in §5 (LSTM,
// Autoencoder, One-Class SVM, plus a PCA extension baseline).
//
// Detectors are trained only on "normal" logs (ticket windows excluded),
// support monthly incremental updates and the fast transfer-learning
// adaptation after software updates, and score a log stream position by
// "how surprising is this event given recent history" — higher is more
// anomalous.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logproc/dataset.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace nfv::core {

/// One scored position in a log stream.
struct ScoredEvent {
  nfv::util::SimTime time;
  double score = 0.0;  // higher = more anomalous
};

/// A view over one vPE's (time-sorted) parsed log stream. Training takes a
/// set of such views — one per vPE — so that sequence windows never splice
/// two different routers' streams together.
using LogView = std::span<const logproc::ParsedLog>;

enum class DetectorKind { kLstm, kAutoencoder, kOcSvm, kPca, kHmm };

const char* to_string(DetectorKind kind);

/// What one ScoredEvent covers. Per-log detectors (LSTM) score every
/// syslog line, so the ≥2-anomalies-within-minutes rule applies; per-
/// document detectors (TF-IDF baselines) already aggregate a window of
/// logs per event, so a single over-threshold document is a detection.
enum class EventGranularity { kPerLog, kPerDocument };

/// Resident model-memory footprint of a detector — the bytes/vPE axis of
/// the fleet-scale soak plan. `weight_bytes_fp32` counts the fp32
/// parameter values; `weight_bytes_quantized` the int8 scoring sidecar
/// (0 when the detector scores in fp32). Detectors without a
/// parameterized model report all-zero.
struct ModelMemoryStats {
  std::size_t weight_bytes_fp32 = 0;
  std::size_t weight_bytes_quantized = 0;
  bool quantized = false;
};

class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  /// Train from scratch on normal logs (one view per vPE). `vocab` is the
  /// current template-dictionary size (may exceed the largest id present).
  virtual void fit(std::span<const LogView> streams, std::size_t vocab) = 0;

  /// Monthly incremental (online) update with fresh normal logs.
  virtual void update(std::span<const LogView> streams,
                      std::size_t vocab) = 0;

  /// Fast post-update adaptation (§4.3): copy-the-teacher semantics are
  /// internal; callers simply provide ~1 week of fresh logs.
  virtual void adapt(std::span<const LogView> streams,
                     std::size_t vocab) = 0;

  /// Score one vPE's (test) log stream. Implementations may emit one event
  /// per log position (LSTM) or per document window (feature baselines).
  virtual std::vector<ScoredEvent> score(LogView logs,
                                         std::size_t vocab) const = 0;

  /// Score several streams at once — one result vector per input stream,
  /// in order. The default simply loops score(); detectors with a fused
  /// batched path (LSTM) override it to pack all streams' scoring windows
  /// into large forward batches. Results MUST be identical to calling
  /// score() per stream, and the call must remain const/thread-safe under
  /// the same contract as score().
  virtual std::vector<std::vector<ScoredEvent>> score_streams(
      std::span<const LogView> streams, std::size_t vocab) const {
    std::vector<std::vector<ScoredEvent>> out;
    out.reserve(streams.size());
    for (const LogView& logs : streams) out.push_back(score(logs, vocab));
    return out;
  }

  /// Independent copy of the current model, for read-only scoring while
  /// the original keeps training (run_pipeline scores each month on a
  /// month-start clone while the live detector runs that month's update).
  /// Scores of the clone equal the original's; state only training reads
  /// need not follow (LstmDetector drops its persistent optimizer). The
  /// five library detectors implement it; the default throws CheckError.
  virtual std::unique_ptr<AnomalyDetector> clone() const;

  virtual bool trained() const = 0;
  virtual DetectorKind kind() const = 0;
  virtual EventGranularity granularity() const = 0;

  /// Model-memory footprint for observability (AsyncIngest::stats_json).
  /// Must be const/thread-safe under the same contract as score().
  virtual ModelMemoryStats model_memory() const { return {}; }
};

/// Mapping configuration adjusted to a detector's event granularity: per-
/// document events bypass the multi-anomaly cluster rule.
template <typename MappingConfigT>
MappingConfigT adapt_mapping_for(EventGranularity granularity,
                                 MappingConfigT config) {
  if (granularity == EventGranularity::kPerDocument) {
    config.min_cluster_size = 1;
  }
  return config;
}

}  // namespace nfv::core
