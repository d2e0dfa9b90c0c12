// Hidden-Markov-model baseline detector (classical sequential approach of
// the paper's related work, e.g. BlueGene/L failure prediction [19] and
// online failure prediction with hidden semi-Markov models [29]).
//
// Scores each log by the average negative log-likelihood of the window of
// the k preceding template ids plus the log itself under an HMM trained on
// normal windows — per-log granularity, directly comparable to the LSTM.
#pragma once

#include "core/detector.h"
#include "ml/hmm.h"

namespace nfv::core {

struct HmmDetectorConfig {
  std::size_t window = 10;
  ml::HmmConfig hmm;
  /// Cap on training windows (uniform subsample beyond it).
  std::size_t max_train_windows = 3000;
  /// The HMM has no incremental mode: update()/adapt() refit on a sliding
  /// buffer of the most recent windows.
  std::size_t refit_buffer_windows = 3000;
  std::uint64_t seed = 777;
};

class HmmDetector final : public AnomalyDetector {
 public:
  explicit HmmDetector(const HmmDetectorConfig& config = {});

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t vocab) const override;
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<HmmDetector>(*this);
  }
  bool trained() const override { return model_.trained(); }
  DetectorKind kind() const override { return DetectorKind::kHmm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

 private:
  std::vector<std::vector<std::int32_t>> make_windows(
      std::span<const LogView> streams) const;
  void refit();

  HmmDetectorConfig config_;
  std::size_t vocab_ = 0;
  std::vector<std::vector<std::int32_t>> buffer_;
  ml::Hmm model_;
  mutable nfv::util::Rng rng_;
};

}  // namespace nfv::core
