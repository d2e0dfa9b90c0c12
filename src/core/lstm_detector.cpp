#include "core/lstm_detector.h"

#include <algorithm>
#include <cmath>

#include <istream>
#include <ostream>

#include "ml/optimizer.h"
#include "ml/serialize.h"
#include "util/check.h"
#include "util/stats.h"

namespace nfv::core {

using ml::SeqExample;
using nfv::util::Duration;
using nfv::util::Rng;

LstmDetector::LstmDetector(const LstmDetectorConfig& config)
    : config_(config), rng_(config.seed) {}

LstmDetector::LstmDetector(const LstmDetector& other)
    : config_(other.config_), model_(other.model_), rng_(other.rng_) {}

LstmDetector& LstmDetector::operator=(const LstmDetector& other) {
  if (this != &other) {
    config_ = other.config_;
    model_ = other.model_;
    rng_ = other.rng_;
    optimizer_.reset();
  }
  return *this;
}

std::vector<SeqExample> LstmDetector::prepare_examples(
    std::span<const LogView> streams) const {
  std::vector<SeqExample> examples;
  for (const LogView& logs : streams) {
    std::vector<SeqExample> part =
        logproc::build_sequence_examples(logs, config_.window);
    examples.insert(examples.end(),
                    std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  if (examples.size() > config_.max_train_windows) {
    // Deterministic uniform subsample preserving time order.
    std::vector<SeqExample> kept;
    kept.reserve(config_.max_train_windows);
    const double stride = static_cast<double>(examples.size()) /
                          static_cast<double>(config_.max_train_windows);
    for (std::size_t i = 0; i < config_.max_train_windows; ++i) {
      kept.push_back(examples[static_cast<std::size_t>(i * stride)]);
    }
    examples = std::move(kept);
  }
  return examples;
}

void LstmDetector::train_epochs(std::span<const SeqExample> examples,
                                std::size_t epochs, float lr) {
  if (examples.empty()) return;
  // Default path: a fresh Adam per training round (the seed behavior).
  // Persistent path: one instance lives on the detector and is re-pointed
  // at the (possibly moved or vocab-grown) parameters each round, keeping
  // its moment state warm across incremental updates.
  std::optional<ml::Adam> local_optimizer;
  ml::Adam* optimizer = nullptr;
  if (config_.persistent_optimizer) {
    if (!optimizer_) optimizer_ = std::make_unique<ml::Adam>(lr);
    optimizer_->set_learning_rate(lr);
    optimizer_->rebind(model_->params());
    optimizer = optimizer_.get();
  } else {
    local_optimizer.emplace(lr);
    local_optimizer->bind(model_->params());
    optimizer = &*local_optimizer;
  }
  std::vector<std::size_t> order(examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Hoisted out of the batch loop: the pointer buffer (and the model's
  // input scratch, inside train_batch) is reused for every batch.
  std::vector<const SeqExample*> batch;
  batch.reserve(std::min<std::size_t>(config_.batch_size, order.size()));
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(start + config_.batch_size, order.size());
      batch.clear();
      for (std::size_t i = start; i < end; ++i) {
        batch.push_back(&examples[order[i]]);
      }
      model_->train_batch(batch, *optimizer);
    }
  }
}

void LstmDetector::score_windows(const ml::WindowBatch& windows,
                                 std::span<double> out) const {
  // One scratch per call: score paths must stay const and thread-safe (the
  // streaming monitors share a detector across threads), so the scratch
  // cannot live on the detector. Within the call every fused batch reuses
  // its buffers.
  ml::SequenceModel::InferenceScratch scratch;
  if (config_.score_mode == LstmScoreMode::kTargetRank) {
    std::vector<std::size_t> ranks(windows.size());
    model_->score_ranks_batched(windows, config_.score_batch, scratch, ranks);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      out[i] = static_cast<double>(ranks[i]);
    }
  } else {
    model_->score_batched(windows, config_.score_batch, scratch, out);
    for (double& score : out) score = -score;
  }
}

std::vector<double> LstmDetector::score_examples(
    std::span<const SeqExample> examples) const {
  NFV_CHECK(trained(), "score_examples before fit");
  ml::WindowBuffer windows;
  for (const SeqExample& ex : examples) windows.append(ex, config_.window);
  std::vector<double> scores(examples.size());
  score_windows(windows.view(), scores);
  return scores;
}

void LstmDetector::oversample_refine(std::vector<SeqExample> examples) {
  if (examples.empty()) return;
  double previous_fp_rate = 1.0;
  for (std::size_t round = 0; round < config_.oversample_rounds; ++round) {
    const std::vector<double> scores = score_examples(examples);
    // "Misclassified as anomaly": the highest-score (lowest-likelihood)
    // quantile of the *normal* training data.
    const double threshold =
        nfv::util::quantile(scores, 1.0 - config_.oversample_quantile);
    std::vector<std::size_t> minority;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] >= threshold) minority.push_back(i);
    }
    const double fp_rate = static_cast<double>(minority.size()) /
                           static_cast<double>(scores.size());
    if (minority.empty() || fp_rate >= previous_fp_rate) break;
    previous_fp_rate = fp_rate;

    // Over-sample the minority patterns, random-sample the rest (§4.2).
    std::vector<SeqExample> refined;
    refined.reserve(minority.size() * config_.oversample_factor +
                    examples.size() / 2);
    for (std::size_t idx : minority) {
      for (std::size_t r = 0; r < config_.oversample_factor; ++r) {
        refined.push_back(examples[idx]);
      }
    }
    for (std::size_t i = 0; i < examples.size(); ++i) {
      if (rng_.bernoulli(0.5)) refined.push_back(examples[i]);
    }
    train_epochs(refined, 1, config_.update_lr);
  }
}

void LstmDetector::fit(std::span<const LogView> streams, std::size_t vocab) {
  NFV_CHECK(vocab > 0, "fit requires a non-empty vocabulary");
  ml::SequenceModelConfig model_config;
  model_config.vocab = vocab;
  model_config.embed_dim = config_.embed_dim;
  model_config.hidden = config_.hidden;
  model_config.layers = config_.layers;
  model_config.window = config_.window;
  Rng init_rng = rng_.fork(1);
  model_.emplace(model_config, init_rng);
  // A freshly initialized model invalidates any accumulated moment state.
  optimizer_.reset();

  std::vector<SeqExample> examples = prepare_examples(streams);
  train_epochs(examples, config_.initial_epochs, config_.initial_lr);
  if (config_.oversample) oversample_refine(std::move(examples));
  // Calibrate once, after ALL training (including the over-sampling
  // rounds, which score with the fp32 model they just trained).
  pack_scoring_image();
}

void LstmDetector::update(std::span<const LogView> streams,
                          std::size_t vocab) {
  NFV_CHECK(trained(), "update before fit");
  if (vocab > model_->config().vocab) {
    Rng grow_rng = rng_.fork(2);
    model_->grow_vocab(vocab, grow_rng);
  }
  std::vector<SeqExample> examples = prepare_examples(streams);
  train_epochs(examples, config_.update_epochs, config_.update_lr);
  pack_scoring_image();
}

void LstmDetector::adapt(std::span<const LogView> streams,
                         std::size_t vocab) {
  NFV_CHECK(trained(), "adapt before fit");
  if (vocab > model_->config().vocab) {
    Rng grow_rng = rng_.fork(3);
    model_->grow_vocab(vocab, grow_rng);
  }
  // Teacher → student: the current weights are the teacher; fine-tune the
  // top layers on the small fresh dataset. The unfreeze is scope-guarded:
  // if train_epochs throws (e.g. an id-bounds check on a corrupt stream),
  // the lower layers must not stay silently frozen and cripple every
  // later update() on this detector.
  {
    model_->freeze_lower_layers(
        std::min(config_.adapt_frozen_layers, config_.layers));
    struct UnfreezeGuard {
      ml::SequenceModel* model;
      ~UnfreezeGuard() { model->freeze_lower_layers(0); }
    } guard{&*model_};
    std::vector<SeqExample> examples = prepare_examples(streams);
    train_epochs(examples, config_.adapt_epochs, config_.adapt_lr);
  }
  pack_scoring_image();
}

void LstmDetector::pack_scoring_image() {
  if (config_.quantize) {
    model_->quantize();
  } else {
    model_->pack_fused();
  }
}

std::vector<ScoredEvent> LstmDetector::score(LogView logs,
                                             std::size_t vocab) const {
  return std::move(score_streams({&logs, 1}, vocab)[0]);
}

std::vector<std::vector<ScoredEvent>> LstmDetector::score_streams(
    std::span<const LogView> streams, std::size_t vocab) const {
  NFV_CHECK(trained(), "score before fit");
  (void)vocab;
  const std::size_t k = config_.window;
  const auto model_vocab = static_cast<std::int32_t>(model_->config().vocab);
  const double unknown_score =
      config_.score_mode == LstmScoreMode::kTargetRank
          ? static_cast<double>(model_->config().vocab)
          : config_.unknown_score;

  // Gather phase: every log with k predecessors gets a window, whatever
  // the gaps (no gap filter, as build_sequence_examples(logs, k,
  // std::nullopt) builds them), so window j of a stream scores log k + j.
  // Windows touching a template the model has never seen are maximally
  // surprising and take the constant at once; the rest go into one flat
  // window batch, with a pointer to their output slot for the scatter.
  std::vector<std::vector<ScoredEvent>> out(streams.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (streams[s].size() > k) {
      out[s].resize(streams[s].size() - k);
      total += out[s].size();
    }
  }
  ml::WindowBuffer windows;
  windows.ids.reserve(total * k);
  windows.dts.reserve(total * k);
  windows.targets.reserve(total);
  std::vector<ScoredEvent*> slots;
  slots.reserve(total);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const LogView logs = streams[s];
    for (std::size_t i = k; i < logs.size(); ++i) {
      ScoredEvent& event = out[s][i - k];
      event.time = logs[i].time;
      bool unknown = logs[i].template_id >= model_vocab;
      for (std::size_t j = i - k; j < i; ++j) {
        unknown = unknown || logs[j].template_id >= model_vocab;
      }
      if (unknown) {
        event.score = unknown_score;
        continue;
      }
      for (std::size_t j = i - k; j < i; ++j) {
        const Duration dt =
            j == 0 ? Duration{0} : logs[j].time - logs[j - 1].time;
        windows.ids.push_back(logs[j].template_id);
        windows.dts.push_back(static_cast<float>(dt.seconds));
      }
      windows.targets.push_back(logs[i].template_id);
      slots.push_back(&event);
    }
  }

  // Fused scoring across all streams, then the slot-addressed scatter.
  std::vector<double> scores(slots.size());
  score_windows(windows.view(), scores);
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i]->score = scores[i];
  return out;
}

void LstmDetector::set_score_batch(std::size_t score_batch) {
  NFV_CHECK(score_batch >= 1, "score_batch must be >= 1");
  config_.score_batch = score_batch;
}

void LstmDetector::set_quantized(bool on) {
  config_.quantize = on;
  if (!model_) return;  // mode takes effect at the next fit
  if (on) {
    model_->quantize();
  } else {
    model_->clear_quantized();
  }
}

ModelMemoryStats LstmDetector::model_memory() const {
  ModelMemoryStats stats;
  if (!model_) return stats;
  stats.weight_bytes_fp32 = model_->fp32_weight_bytes();
  stats.weight_bytes_quantized = model_->quantized_weight_bytes();
  stats.quantized = model_->quantized();
  return stats;
}

void LstmDetector::save(std::ostream& os) const {
  NFV_CHECK(trained(), "cannot save an untrained detector");
  ml::write_u64(os, 0x4e465644455431ULL);  // "NFVDET1"
  ml::write_u64(os, static_cast<std::uint64_t>(config_.score_mode));
  ml::write_u64(os, config_.window);
  model_->save(os);
}

LstmDetector LstmDetector::load(std::istream& is) {
  NFV_CHECK(ml::read_u64(is) == 0x4e465644455431ULL,
            "not an LstmDetector checkpoint");
  LstmDetectorConfig config;
  config.score_mode = static_cast<LstmScoreMode>(ml::read_u64(is));
  config.window = ml::read_u64(is);
  ml::SequenceModel model = ml::SequenceModel::load(is);
  config.embed_dim = model.config().embed_dim;
  config.hidden = model.config().hidden;
  config.layers = model.config().layers;
  config.quantize = model.quantized();
  LstmDetector detector(config);
  detector.model_.emplace(std::move(model));
  return detector;
}

}  // namespace nfv::core
