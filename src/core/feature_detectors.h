// Feature-based baseline detectors of §5.2: Autoencoder on TF-IDF document
// features, One-Class SVM, and a PCA residual-energy extension baseline.
//
// All three share the same document pipeline: the log stream is chopped
// into half-overlapping windows of `doc_size` consecutive logs, each
// turned into an L2-normalized TF-IDF vector over the template vocabulary.
// Scores are emitted at each document's last-log time.
#pragma once

#include <optional>

#include "core/detector.h"
#include "ml/autoencoder.h"
#include "ml/ocsvm.h"
#include "ml/pca.h"

namespace nfv::core {

struct FeatureDetectorConfig {
  std::size_t doc_size = 20;
  /// Cap on training documents (uniform subsample beyond it).
  std::size_t max_train_docs = 4000;
  std::uint64_t seed = 4321;
};

struct AutoencoderDetectorConfig : FeatureDetectorConfig {
  std::vector<std::size_t> encoder = {64, 16};
  std::size_t batch_size = 32;
  std::size_t initial_epochs = 12;
  std::size_t update_epochs = 4;
  std::size_t adapt_epochs = 8;
  float initial_lr = 2e-3f;
  float update_lr = 1e-3f;
  /// Decoder-side layers left trainable during transfer adaptation.
  std::size_t adapt_trainable_layers = 2;
};

/// Autoencoder baseline: anomaly score = TF-IDF reconstruction error.
class AutoencoderDetector final : public AnomalyDetector {
 public:
  explicit AutoencoderDetector(const AutoencoderDetectorConfig& config = {});

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t vocab) const override;
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<AutoencoderDetector>(*this);
  }
  bool trained() const override { return model_.has_value(); }
  DetectorKind kind() const override { return DetectorKind::kAutoencoder; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerDocument;
  }

 private:
  void train_docs(std::span<const logproc::Document> docs,
                  std::size_t epochs, float lr);

  AutoencoderDetectorConfig config_;
  std::size_t feature_vocab_ = 0;  // fixed at fit(); features are padded to it
  logproc::TfidfFeaturizer featurizer_;
  std::optional<ml::Autoencoder> model_;
  mutable nfv::util::Rng rng_;
};

struct OcSvmDetectorConfig : FeatureDetectorConfig {
  ml::OcSvmConfig svm;
  /// The SVM has no incremental mode: update()/adapt() refit on a sliding
  /// buffer of the most recent documents of at most this size.
  std::size_t refit_buffer_docs = 3000;
};

/// One-Class SVM baseline (shallow learning with explicit features).
class OcSvmDetector final : public AnomalyDetector {
 public:
  explicit OcSvmDetector(const OcSvmDetectorConfig& config = {});

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t vocab) const override;
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<OcSvmDetector>(*this);
  }
  bool trained() const override { return model_.trained(); }
  DetectorKind kind() const override { return DetectorKind::kOcSvm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerDocument;
  }

 private:
  void refit();

  OcSvmDetectorConfig config_;
  std::size_t feature_vocab_ = 0;
  logproc::TfidfFeaturizer featurizer_;
  std::vector<logproc::Document> buffer_;
  ml::OcSvm model_;
  mutable nfv::util::Rng rng_;
};

struct PcaDetectorConfig : FeatureDetectorConfig {
  ml::PcaConfig pca;
  std::size_t refit_buffer_docs = 3000;
};

/// PCA residual-energy baseline (Xu et al., SOSP '09 — extension).
class PcaDetector final : public AnomalyDetector {
 public:
  explicit PcaDetector(const PcaDetectorConfig& config = {});

  void fit(std::span<const LogView> streams, std::size_t vocab) override;
  void update(std::span<const LogView> streams, std::size_t vocab) override;
  void adapt(std::span<const LogView> streams, std::size_t vocab) override;
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t vocab) const override;
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<PcaDetector>(*this);
  }
  bool trained() const override { return model_.trained(); }
  DetectorKind kind() const override { return DetectorKind::kPca; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerDocument;
  }

 private:
  void refit();

  PcaDetectorConfig config_;
  std::size_t feature_vocab_ = 0;
  logproc::TfidfFeaturizer featurizer_;
  std::vector<logproc::Document> buffer_;
  ml::Pca model_;
  mutable nfv::util::Rng rng_;
};

/// Factory over DetectorKind with library defaults.
std::unique_ptr<AnomalyDetector> make_detector(DetectorKind kind,
                                               std::uint64_t seed);

}  // namespace nfv::core
