// The paper's primary contribution: LSTM-based unsupervised anomaly
// detection on syslog template sequences (§4.2).
//
// Training uses only "normal" logs. The detector learns to predict the
// next template from the k previous (template, Δt) tuples; at scoring
// time the anomaly score of a log is the negative log-likelihood the
// model assigns to it. Includes the paper's iterative minority-pattern
// over-sampling loop (rare-but-normal patterns are over-sampled between
// training rounds until the training false-positive rate stops improving).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>

#include "core/detector.h"
#include "ml/sequence_model.h"

namespace nfv::core {

/// How the next-template prediction is turned into an anomaly score.
enum class LstmScoreMode : std::uint8_t {
  /// −log p(observed template) — the paper's thresholded log-likelihood.
  kLogLikelihood,
  /// Rank of the observed template in the predicted distribution —
  /// DeepLog's top-k rule (anomalous if the observed template is not
  /// among the k most likely continuations). Thresholding the rank at k
  /// reproduces DeepLog exactly; sweeping it yields a PRC.
  kTargetRank,
};

struct LstmDetectorConfig {
  std::size_t window = 10;
  std::size_t embed_dim = 16;
  std::size_t hidden = 32;
  std::size_t layers = 2;       // paper: 2 LSTM layers + 1 dense
  std::size_t batch_size = 64;
  std::size_t initial_epochs = 4;
  std::size_t update_epochs = 2;
  std::size_t adapt_epochs = 4;
  float initial_lr = 3e-3f;
  float update_lr = 1e-3f;
  float adapt_lr = 3e-3f;
  /// Cap on training windows per fit/update (uniform subsample beyond it).
  std::size_t max_train_windows = 4000;
  /// Minority over-sampling (§4.2): on/off, max refinement rounds, the
  /// training-score quantile treated as "misclassified as anomaly", and
  /// the replication factor for those windows.
  bool oversample = true;
  std::size_t oversample_rounds = 2;
  double oversample_quantile = 0.03;
  std::size_t oversample_factor = 4;
  /// Layers frozen during transfer adaptation (embedding is frozen too
  /// whenever this is > 0).
  std::size_t adapt_frozen_layers = 1;
  /// Fused inference batch size for the batched scoring engine: scoring
  /// windows (across all streams of a score_streams call) are packed into
  /// forward batches of at most this many rows. Scores are bit-identical
  /// for any value ≥ 1; larger batches amortize GEMM dispatch.
  std::size_t score_batch = 1024;
  /// Keep one Adam instance alive across fit/update/adapt rounds instead
  /// of constructing a fresh optimizer inside every train_epochs call.
  /// With it on, moment estimates accumulated during the initial fit carry
  /// into the monthly incremental updates (surviving grow_vocab reshapes —
  /// new rows start with zero moments), so the update steps are already
  /// warm instead of re-estimating curvature from scratch. Off by default
  /// to preserve the seed training trajectory exactly.
  bool persistent_optimizer = false;
  std::uint64_t seed = 1234;
  /// Score assigned to events involving templates unseen at training time
  /// (in kTargetRank mode the unknown score is the vocabulary size).
  double unknown_score = 27.6;  // ≈ −log(1e-12)
  LstmScoreMode score_mode = LstmScoreMode::kLogLikelihood;
  /// Quantized steady-state scoring: after every fit/update/adapt the
  /// model is re-calibrated to per-channel int8 (ml::SequenceModel::
  /// quantize) and all scoring — score/score_streams, the batched
  /// planner, async-ingest flushes — runs the packed int8 kernels.
  /// Training always stays fp32; the correctness contract is the
  /// rank-agreement gate (see README "Quantized scoring").
  bool quantize = false;
};

class LstmDetector final : public AnomalyDetector {
 public:
  explicit LstmDetector(const LstmDetectorConfig& config = {});

  /// Copying is the teacher → student step of transfer adaptation; the
  /// persistent optimizer's moment state is per-instance and does not
  /// follow the copy (the student's next train_epochs starts it fresh).
  LstmDetector(const LstmDetector& other);

  LstmDetector& operator=(const LstmDetector& other);
  LstmDetector(LstmDetector&&) = default;
  LstmDetector& operator=(LstmDetector&&) = default;

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t vocab) const override;

  /// Cross-stream batched scoring: windows from ALL streams are gathered
  /// straight from the log views into one flat ml::WindowBatch and scored
  /// in forward batches of config().score_batch rows. Bit-identical to
  /// per-stream score() for any batch size and thread count.
  std::vector<std::vector<ScoredEvent>> score_streams(
      std::span<const LogView> streams, std::size_t vocab) const override;

  /// Adjust the fused inference batch size (e.g. from the CLI's
  /// --score-batch flag); scores do not depend on it.
  void set_score_batch(std::size_t score_batch);

  /// Toggle quantized scoring on an already-trained detector (e.g. after
  /// load, or to build the quantized shadow for swap_detector): on = (re)
  /// calibrate the int8 sidecar from the current fp32 weights, off = drop
  /// it. Also updates config().quantize so later retraining keeps the
  /// chosen mode.
  void set_quantized(bool on);

  /// Resident model memory (fp32 weights + int8 sidecar), zeros before fit.
  ModelMemoryStats model_memory() const override;

  /// Weights, config (including quantize mode) and RNG state follow; the
  /// persistent optimizer does not (same contract as the copy ctor).
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<LstmDetector>(*this);
  }
  bool trained() const override { return model_.has_value(); }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

  const LstmDetectorConfig& config() const { return config_; }
  const ml::SequenceModel& model() const { return *model_; }

  /// Anomaly scores of a set of windows (per score_mode); exposed for the
  /// over-sampling loop and threshold calibration.
  std::vector<double> score_examples(
      std::span<const ml::SeqExample> examples) const;

  /// Persist / restore the trained model (config + weights).
  void save(std::ostream& os) const;
  static LstmDetector load(std::istream& is);

 private:
  /// Anomaly scores (per score_mode) of windows already known to be
  /// inside the model's vocabulary; shared by score_streams /
  /// score_examples. `out.size()` must equal `windows.size()`.
  void score_windows(const ml::WindowBatch& windows,
                     std::span<double> out) const;

  /// After training: the int8 sidecar in quantized mode, else the fused
  /// image, so live scoring packs nothing per call.
  void pack_scoring_image();
  void train_epochs(std::span<const ml::SeqExample> examples,
                    std::size_t epochs, float lr);
  std::vector<ml::SeqExample> prepare_examples(
      std::span<const LogView> streams) const;
  void oversample_refine(std::vector<ml::SeqExample> examples);

  LstmDetectorConfig config_;
  std::optional<ml::SequenceModel> model_;
  /// Lives across train_epochs calls when persistent_optimizer is on;
  /// train_epochs rebinds it to the model's current parameters each round
  /// (safe across model moves and grow_vocab — see ml::Adam::rebind).
  std::unique_ptr<ml::Adam> optimizer_;
  mutable nfv::util::Rng rng_;
};

}  // namespace nfv::core
