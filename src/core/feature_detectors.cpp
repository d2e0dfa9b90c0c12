#include "core/feature_detectors.h"

#include <algorithm>

#include "core/hmm_detector.h"
#include "core/lstm_detector.h"
#include "ml/optimizer.h"
#include "util/check.h"

namespace nfv::core {

using logproc::Document;
using nfv::util::Rng;

namespace {

/// Headroom added to the feature width so templates discovered after the
/// initial fit still land inside the (fixed) model input once the
/// featurizer's document frequencies are refreshed.
constexpr std::size_t kVocabHeadroom = 64;

std::vector<Document> make_docs(std::span<const LogView> streams,
                                std::size_t doc_size, std::size_t cap) {
  std::vector<Document> docs;
  for (const LogView& logs : streams) {
    std::vector<Document> part = logproc::build_documents(logs, doc_size);
    docs.insert(docs.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  if (docs.size() > cap) {
    std::vector<Document> kept;
    kept.reserve(cap);
    const double stride =
        static_cast<double>(docs.size()) / static_cast<double>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      kept.push_back(std::move(docs[static_cast<std::size_t>(i * stride)]));
    }
    docs = std::move(kept);
  }
  return docs;
}

}  // namespace

// ---------------------------------------------------------------- AE ----

AutoencoderDetector::AutoencoderDetector(
    const AutoencoderDetectorConfig& config)
    : config_(config), rng_(config.seed) {}

void AutoencoderDetector::train_docs(std::span<const Document> docs,
                                     std::size_t epochs, float lr) {
  if (docs.empty()) return;
  ml::Adam optimizer(lr);
  optimizer.bind(model_->params());
  std::vector<std::size_t> order(docs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, order.size());
      ml::Matrix batch(end - start, feature_vocab_);
      for (std::size_t i = start; i < end; ++i) {
        const std::vector<float> row = featurizer_.transform(docs[order[i]]);
        std::copy(row.begin(), row.end(), batch.row(i - start));
      }
      model_->train_batch(batch, optimizer);
    }
  }
}

void AutoencoderDetector::fit(std::span<const LogView> streams,
                              std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a vocabulary");
  feature_vocab_ = vocab + kVocabHeadroom;
  const std::vector<Document> docs =
      make_docs(streams, config_.doc_size, config_.max_train_docs);
  featurizer_.fit(docs, feature_vocab_);
  ml::AutoencoderConfig ae_config;
  ae_config.input_dim = feature_vocab_;
  ae_config.encoder = config_.encoder;
  Rng init_rng = rng_.fork(1);
  model_.emplace(ae_config, init_rng);
  train_docs(docs, config_.initial_epochs, config_.initial_lr);
}

void AutoencoderDetector::update(std::span<const LogView> streams,
                                 std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  (void)vocab;
  const std::vector<Document> docs =
      make_docs(streams, config_.doc_size, config_.max_train_docs);
  if (docs.empty()) return;
  featurizer_.fit(docs, feature_vocab_);  // refresh document frequencies
  train_docs(docs, config_.update_epochs, config_.update_lr);
}

void AutoencoderDetector::adapt(std::span<const LogView> streams,
                                std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  (void)vocab;
  const std::vector<Document> docs =
      make_docs(streams, config_.doc_size, config_.max_train_docs);
  if (docs.empty()) return;
  featurizer_.fit(docs, feature_vocab_);
  model_->freeze_lower_layers(config_.adapt_trainable_layers);
  train_docs(docs, config_.adapt_epochs, config_.initial_lr);
  model_->freeze_lower_layers(model_->params().size());  // unfreeze all
}

std::vector<ScoredEvent> AutoencoderDetector::score(
    LogView logs, std::size_t vocab) const {
  NFV_CHECK(trained(), "score before fit");
  (void)vocab;
  std::vector<ScoredEvent> out;
  const std::vector<Document> docs =
      logproc::build_documents(logs, config_.doc_size);
  if (docs.empty()) return out;
  const ml::Matrix features = featurizer_.transform_batch(docs);
  const std::vector<double> errors = model_->reconstruction_error(features);
  out.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    out.push_back({docs[i].time, errors[i]});
  }
  return out;
}

// -------------------------------------------------------------- OCSVM ----

OcSvmDetector::OcSvmDetector(const OcSvmDetectorConfig& config)
    : config_(config), model_(config.svm), rng_(config.seed) {}

void OcSvmDetector::refit() {
  if (buffer_.empty()) return;
  if (buffer_.size() > config_.refit_buffer_docs) {
    buffer_.erase(buffer_.begin(),
                  buffer_.end() - static_cast<std::ptrdiff_t>(
                                      config_.refit_buffer_docs));
  }
  featurizer_.fit(buffer_, feature_vocab_);
  const ml::Matrix features = featurizer_.transform_batch(buffer_);
  model_ = ml::OcSvm(config_.svm);
  model_.fit(features);
}

void OcSvmDetector::fit(std::span<const LogView> streams,
                        std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a vocabulary");
  feature_vocab_ = vocab + kVocabHeadroom;
  buffer_ = make_docs(streams, config_.doc_size, config_.max_train_docs);
  refit();
}

void OcSvmDetector::update(std::span<const LogView> streams,
                           std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  (void)vocab;
  std::vector<Document> docs =
      make_docs(streams, config_.doc_size, config_.max_train_docs);
  for (Document& doc : docs) buffer_.push_back(std::move(doc));
  refit();
}

void OcSvmDetector::adapt(std::span<const LogView> streams,
                          std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  (void)vocab;
  // No incremental path for an SVM: adaptation = refit dominated by the
  // fresh post-update documents.
  buffer_ = make_docs(streams, config_.doc_size, config_.max_train_docs);
  refit();
}

std::vector<ScoredEvent> OcSvmDetector::score(
    LogView logs, std::size_t vocab) const {
  NFV_CHECK(trained(), "score before fit");
  (void)vocab;
  std::vector<ScoredEvent> out;
  const std::vector<Document> docs =
      logproc::build_documents(logs, config_.doc_size);
  if (docs.empty()) return out;
  const ml::Matrix features = featurizer_.transform_batch(docs);
  const std::vector<double> scores = model_.anomaly_scores(features);
  out.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    out.push_back({docs[i].time, scores[i]});
  }
  return out;
}

// ---------------------------------------------------------------- PCA ----

PcaDetector::PcaDetector(const PcaDetectorConfig& config)
    : config_(config), model_(config.pca), rng_(config.seed) {}

void PcaDetector::refit() {
  if (buffer_.size() < 2) return;
  if (buffer_.size() > config_.refit_buffer_docs) {
    buffer_.erase(buffer_.begin(),
                  buffer_.end() - static_cast<std::ptrdiff_t>(
                                      config_.refit_buffer_docs));
  }
  featurizer_.fit(buffer_, feature_vocab_);
  const ml::Matrix features = featurizer_.transform_batch(buffer_);
  model_ = ml::Pca(config_.pca);
  Rng fit_rng = rng_.fork(buffer_.size());
  model_.fit(features, fit_rng);
}

void PcaDetector::fit(std::span<const LogView> streams,
                      std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a vocabulary");
  feature_vocab_ = vocab + kVocabHeadroom;
  buffer_ = make_docs(streams, config_.doc_size, config_.max_train_docs);
  refit();
}

void PcaDetector::update(std::span<const LogView> streams,
                         std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  (void)vocab;
  std::vector<Document> docs =
      make_docs(streams, config_.doc_size, config_.max_train_docs);
  for (Document& doc : docs) buffer_.push_back(std::move(doc));
  refit();
}

void PcaDetector::adapt(std::span<const LogView> streams,
                        std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  (void)vocab;
  buffer_ = make_docs(streams, config_.doc_size, config_.max_train_docs);
  refit();
}

std::vector<ScoredEvent> PcaDetector::score(
    LogView logs, std::size_t vocab) const {
  NFV_CHECK(trained(), "score before fit");
  (void)vocab;
  std::vector<ScoredEvent> out;
  const std::vector<Document> docs =
      logproc::build_documents(logs, config_.doc_size);
  if (docs.empty()) return out;
  const ml::Matrix features = featurizer_.transform_batch(docs);
  out.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    out.push_back({docs[i].time, model_.residual_energy(features.row_span(i))});
  }
  return out;
}

std::unique_ptr<AnomalyDetector> AnomalyDetector::clone() const {
  NFV_CHECK(false, to_string(kind()) << " detector cannot be cloned");
  return nullptr;
}

// ------------------------------------------------------------- factory ----

const char* to_string(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kLstm:
      return "LSTM";
    case DetectorKind::kAutoencoder:
      return "Autoencoder";
    case DetectorKind::kOcSvm:
      return "OC-SVM";
    case DetectorKind::kPca:
      return "PCA";
    case DetectorKind::kHmm:
      return "HMM";
  }
  return "Unknown";
}

std::unique_ptr<AnomalyDetector> make_detector(DetectorKind kind,
                                               std::uint64_t seed) {
  switch (kind) {
    case DetectorKind::kLstm: {
      LstmDetectorConfig config;
      config.seed = seed;
      return std::make_unique<LstmDetector>(config);
    }
    case DetectorKind::kAutoencoder: {
      AutoencoderDetectorConfig config;
      config.seed = seed;
      return std::make_unique<AutoencoderDetector>(config);
    }
    case DetectorKind::kOcSvm: {
      OcSvmDetectorConfig config;
      config.seed = seed;
      return std::make_unique<OcSvmDetector>(config);
    }
    case DetectorKind::kPca: {
      PcaDetectorConfig config;
      config.seed = seed;
      return std::make_unique<PcaDetector>(config);
    }
    case DetectorKind::kHmm: {
      HmmDetectorConfig config;
      config.seed = seed;
      return std::make_unique<HmmDetector>(config);
    }
  }
  NFV_CHECK(false, "unknown detector kind");
  return nullptr;
}

}  // namespace nfv::core
