#include "ml/sequence_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "ml/loss.h"
#include "ml/lstm.h"
#include "ml/optimizer.h"
#include "util/check.h"
#include "util/rng.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

SequenceModelConfig small_config() {
  SequenceModelConfig config;
  config.vocab = 8;
  config.embed_dim = 6;
  config.hidden = 12;
  config.layers = 2;
  config.window = 4;
  return config;
}

/// Deterministic pattern: template (i % vocab) follows i-1, so the next
/// template is always (last + 1) % vocab. Learnable by a tiny LSTM.
std::vector<SeqExample> cyclic_examples(std::size_t vocab,
                                        std::size_t window,
                                        std::size_t count) {
  std::vector<SeqExample> out;
  for (std::size_t s = 0; s < count; ++s) {
    SeqExample ex;
    for (std::size_t j = 0; j < window; ++j) {
      ex.ids.push_back(static_cast<std::int32_t>((s + j) % vocab));
      ex.dts.push_back(30.0f);
    }
    ex.target = static_cast<std::int32_t>((s + window) % vocab);
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(SequenceModel, LearnsCyclicPattern) {
  Rng rng(3);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 64);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

  Adam adam(5e-3f);
  adam.bind(model.params());
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const double loss = model.train_batch(batch, adam);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);

  // The learned model should assign high probability to the true target.
  const std::vector<double> lls = model.score_log_likelihood(batch);
  double mean_ll = 0.0;
  for (double ll : lls) mean_ll += ll;
  mean_ll /= static_cast<double>(lls.size());
  EXPECT_GT(mean_ll, std::log(0.5));
}

TEST(SequenceModel, AnomalousContinuationScoresLow) {
  Rng rng(3);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 64);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
  Adam adam(5e-3f);
  adam.bind(model.params());
  for (int epoch = 0; epoch < 60; ++epoch) model.train_batch(batch, adam);

  SeqExample normal = examples[0];
  SeqExample anomalous = examples[0];
  anomalous.target = (normal.target + 3) % 8;  // wrong continuation
  const auto lls =
      model.score_log_likelihood({&normal, &anomalous});
  EXPECT_GT(lls[0], lls[1] + 1.0);  // ≥ e× likelihood gap
}

TEST(SequenceModel, PredictReturnsDistribution) {
  Rng rng(5);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 3);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
  Matrix probs;
  model.predict(batch, probs);
  ASSERT_EQ(probs.rows(), 3u);
  ASSERT_EQ(probs.cols(), 8u);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs.at(r, c), 0.0f);
      total += probs.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(SequenceModel, PredictMatchesTrainingForwardPass) {
  // The stateful inference path must agree with the cached training path.
  Rng rng(7);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 5);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

  Matrix probs;
  model.predict(batch, probs);
  // Run a zero-lr train step; the reported loss must equal the mean
  // -log p(target) from predict's probabilities.
  double expected = 0.0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    expected -= log_prob(probs, r, batch[r]->target);
  }
  expected /= static_cast<double>(batch.size());
  Sgd zero_lr(0.0f);
  zero_lr.bind(model.params());
  const double loss = model.train_batch(batch, zero_lr);
  EXPECT_NEAR(loss, expected, 1e-4);
}

TEST(SequenceModel, CopyYieldsIndependentTwin) {
  Rng rng(9);
  SequenceModel teacher(small_config(), rng);
  SequenceModel student = teacher;  // teacher → student copy

  const auto examples = cyclic_examples(8, 4, 16);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

  const auto before = teacher.score_log_likelihood(batch);
  Adam adam(1e-2f);
  adam.bind(student.params());
  for (int i = 0; i < 10; ++i) student.train_batch(batch, adam);
  const auto teacher_after = teacher.score_log_likelihood(batch);
  const auto student_after = student.score_log_likelihood(batch);

  // Teacher unchanged; student moved.
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], teacher_after[i]);
  }
  double diff = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    diff += std::abs(student_after[i] - before[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(SequenceModel, FreezeLowerLayersPinsBottomWeights) {
  Rng rng(11);
  SequenceModel model(small_config(), rng);
  model.freeze_lower_layers(1);

  const auto examples = cyclic_examples(8, 4, 16);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);

  const std::vector<Param*> params = model.params();
  // params order: embedding, lstm0 (w,b), lstm1 (w,b), dense (w,b).
  std::vector<Matrix> before;
  for (Param* p : params) before.push_back(p->value);

  Adam adam(1e-2f);
  adam.bind(params);
  for (int i = 0; i < 5; ++i) model.train_batch(batch, adam);

  auto changed = [&](std::size_t i) {
    double diff = 0.0;
    for (std::size_t j = 0; j < before[i].size(); ++j) {
      diff += std::abs(before[i].data()[j] - params[i]->value.data()[j]);
    }
    return diff > 1e-6;
  };
  EXPECT_FALSE(changed(0));  // embedding frozen
  EXPECT_FALSE(changed(1));  // lstm0 weight frozen
  EXPECT_FALSE(changed(2));  // lstm0 bias frozen
  EXPECT_TRUE(changed(3));   // lstm1 trains
  EXPECT_TRUE(changed(5));   // dense trains

  model.freeze_lower_layers(0);
  for (Param* p : model.params()) EXPECT_FALSE(p->frozen);
}

TEST(SequenceModel, GrowVocabPreservesOldPredictions) {
  Rng rng(13);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 8);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
  const auto before = model.score_log_likelihood(batch);

  Rng grow_rng(99);
  model.grow_vocab(12, grow_rng);
  EXPECT_EQ(model.config().vocab, 12u);
  const auto after = model.score_log_likelihood(batch);
  // New logits shift the softmax denominator slightly but ordering-scale
  // changes must be small (new rows are near-random, low mass).
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1.0);
  }

  // New ids are now legal inputs/targets.
  SeqExample ex = examples[0];
  ex.target = 11;
  EXPECT_NO_THROW(model.score_log_likelihood({&ex}));
}

TEST(SequenceModel, GrowVocabCannotShrink) {
  Rng rng(13);
  SequenceModel model(small_config(), rng);
  Rng grow_rng(1);
  EXPECT_THROW(model.grow_vocab(4, grow_rng), nfv::util::CheckError);
}

TEST(SequenceModel, SaveLoadRoundTrip) {
  Rng rng(17);
  SequenceModel model(small_config(), rng);
  const auto examples = cyclic_examples(8, 4, 8);
  std::vector<const SeqExample*> batch;
  for (const auto& ex : examples) batch.push_back(&ex);
  Adam adam(1e-2f);
  adam.bind(model.params());
  for (int i = 0; i < 5; ++i) model.train_batch(batch, adam);

  std::stringstream stream;
  model.save(stream);
  SequenceModel loaded = SequenceModel::load(stream);
  EXPECT_EQ(loaded.config().vocab, model.config().vocab);
  EXPECT_EQ(loaded.config().window, model.config().window);

  const auto original = model.score_log_likelihood(batch);
  const auto restored = loaded.score_log_likelihood(batch);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original[i], restored[i], 1e-6);
  }
}

TEST(SequenceModel, LoadRejectsGarbage) {
  std::stringstream stream;
  stream << "not a checkpoint";
  EXPECT_THROW(SequenceModel::load(stream), nfv::util::CheckError);
}

TEST(SequenceModel, RejectsBadWindows) {
  Rng rng(19);
  SequenceModel model(small_config(), rng);
  SeqExample bad;
  bad.ids = {0, 1};  // wrong window length
  bad.dts = {1.0f, 1.0f};
  bad.target = 0;
  EXPECT_THROW(model.score_log_likelihood({&bad}), nfv::util::CheckError);

  SeqExample out_of_vocab = cyclic_examples(8, 4, 1)[0];
  out_of_vocab.ids[0] = 99;
  EXPECT_THROW(model.score_log_likelihood({&out_of_vocab}),
               nfv::util::CheckError);
}

/// Runs `body` once per kernel mode (AVX2+FMA where the CPU has it, then
/// baseline), restoring the default mode afterwards.
template <typename Fn>
void for_each_kernel_mode(const Fn& body) {
  const bool simd_default = simd_kernels_enabled();
  for (const bool simd : {true, false}) {
    set_simd_kernels_enabled(simd);
    body(simd_kernels_enabled());
  }
  set_simd_kernels_enabled(simd_default);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Scoring steps the LSTM one timestep at a time; training runs the cached
// full-sequence forward. Both must run the same GEMM, gate and cell
// kernels, so the stepped hidden states equal the training ones bit for
// bit — unpacked or packed, at batch sizes below and above the packing
// threshold, with and without a scalar tail in the hidden width.
TEST(LstmStep, UnrolledStepsEqualForwardHiddenStatesExactly) {
  for_each_kernel_mode([](bool simd) {
    for (const std::size_t hidden : {std::size_t{12}, std::size_t{16}}) {
      for (const std::size_t batch : {std::size_t{3}, std::size_t{9}}) {
        Rng rng(hidden * 100 + batch);
        constexpr std::size_t kInput = 7;
        constexpr std::size_t kSteps = 5;
        Lstm lstm("l", kInput, hidden, rng);
        std::vector<Matrix> inputs(kSteps, Matrix(batch, kInput));
        for (Matrix& x : inputs) {
          for (std::size_t i = 0; i < x.size(); ++i) {
            x.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
          }
        }
        const std::vector<Matrix> forward = lstm.forward(inputs);

        LstmState plain = lstm.make_state(batch);
        LstmState packed = lstm.make_state(batch);
        std::vector<float> packed_weight;
        lstm.pack_weight(packed_weight);
        Matrix concat;
        Matrix gates;
        for (std::size_t t = 0; t < kSteps; ++t) {
          lstm.step(inputs[t], plain);
          lstm.step(inputs[t], packed, packed_weight, concat, gates);
          const std::string label = "simd=" + std::to_string(simd) +
                                    " hidden=" + std::to_string(hidden) +
                                    " batch=" + std::to_string(batch) +
                                    " t=" + std::to_string(t);
          EXPECT_TRUE(same_bits(plain.h, forward[t])) << label;
          EXPECT_TRUE(same_bits(packed.h, forward[t])) << label;
        }
      }
    }
  });
}

// The fused target log-likelihood computes log softmax straight from the
// logits. It must agree with log(softmax) and clamp where log_prob does.
TEST(LogSoftmaxTarget, MatchesLogOfSoftmaxAndClampsAtMinProb) {
  for_each_kernel_mode([](bool simd) {
    Rng rng(41);
    // 13 and 133 columns leave a ragged (masked) tail after 8-wide steps.
    for (const std::size_t cols : {std::size_t{1}, std::size_t{13},
                                   std::size_t{64}, std::size_t{133}}) {
      Matrix logits(6, cols);
      for (std::size_t i = 0; i < logits.size(); ++i) {
        logits.data()[i] = static_cast<float>(rng.uniform(-8.0, 8.0));
      }
      Matrix probs;
      softmax(logits, probs);
      std::vector<std::int32_t> targets(logits.rows());
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        targets[r] = static_cast<std::int32_t>(rng.uniform_index(cols));
      }
      std::vector<double> fused(logits.rows());
      log_softmax_targets(logits, targets, fused);
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        EXPECT_NEAR(fused[r], log_prob(probs, r, targets[r]), 1e-6)
            << "simd=" << simd << " cols=" << cols << " row " << r;
        EXPECT_EQ(fused[r], log_softmax_target(logits, r, targets[r]));
      }
    }

    // A target 100 nats below the best class is floored at log(1e-12).
    Matrix far(1, 20, 0.0f);
    far.at(0, 3) = 100.0f;
    EXPECT_EQ(log_softmax_target(far, 0, 5), std::log(1e-12));
    EXPECT_DOUBLE_EQ(log_softmax_target(far, 0, 5, 1e-50), -100.0);
    EXPECT_NEAR(log_softmax_target(far, 0, 3), 0.0, 1e-6);
    EXPECT_THROW(log_softmax_target(far, 0, 20), nfv::util::CheckError);
    EXPECT_THROW(log_softmax_target(far, 0, -1), nfv::util::CheckError);
  });
}

// The row max runs 8 lanes at a time in the AVX2+FMA mode, a ragged tail
// re-read as the row's last 8 columns. A max missed in the tail would
// shift by the wrong logit: 100 nats past exp's clamp, the result moves
// by ~12 nats instead of rounding.
TEST(LogSoftmaxTarget, MaxInTheTailAndTiesAndScalarFormulaBits) {
  for_each_kernel_mode([](bool simd) {
    for (const std::size_t cols : {std::size_t{3}, std::size_t{8},
                                   std::size_t{13}, std::size_t{84},
                                   std::size_t{133}}) {
      // Max in the last column (the tail whenever cols % 8 != 0).
      Matrix tail(1, cols, 0.0f);
      tail.at(0, cols - 1) = 100.0f;
      EXPECT_NEAR(log_softmax_target(tail, 0,
                                     static_cast<std::int32_t>(cols - 1)),
                  0.0, 1e-6)
          << "simd=" << simd << " cols=" << cols;
      EXPECT_EQ(log_softmax_target(tail, 0, 0), std::log(1e-12));

      // Ties: a flat row, and two equal maxima with one in the tail.
      const Matrix flat(1, cols, -3.5f);
      EXPECT_NEAR(log_softmax_target(flat, 0, 0),
                  -std::log(static_cast<double>(cols)), 1e-6);
      Matrix tie(1, cols, -20.0f);
      tie.at(0, 0) = 7.0f;
      tie.at(0, cols - 1) = 7.0f;
      if (cols > 1) {
        EXPECT_EQ(log_softmax_target(tie, 0, 0),
                  log_softmax_target(tie, 0,
                                     static_cast<std::int32_t>(cols - 1)));
        EXPECT_NEAR(log_softmax_target(tie, 0, 0), -std::log(2.0), 1e-6);
      }

      // Without SIMD the result is the scalar formula, bit for bit.
      if (!simd) {
        Rng rng(cols);
        Matrix logits(4, cols);
        for (std::size_t i = 0; i < logits.size(); ++i) {
          logits.data()[i] = static_cast<float>(rng.uniform(-8.0, 8.0));
        }
        for (std::size_t r = 0; r < logits.rows(); ++r) {
          const float* l = logits.row(r);
          const float m = *std::max_element(l, l + cols);
          float total = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) total += std::exp(l[c] - m);
          const std::size_t t = r % cols;
          const double expected =
              std::max(static_cast<double>(l[t] - m) -
                           std::log(static_cast<double>(total)),
                       std::log(1e-12));
          const double got =
              log_softmax_target(logits, r, static_cast<std::int32_t>(t));
          EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
              << "cols=" << cols << " row " << r;
        }
      }
    }
    // Targets are checked up front, before any row is written.
    Matrix logits(2, 5, 0.0f);
    std::vector<std::int32_t> targets = {1, 5};
    std::vector<double> out(2, 42.0);
    EXPECT_THROW(log_softmax_targets(logits, targets, out),
                 nfv::util::CheckError);
    EXPECT_EQ(out[0], 42.0);
  });
}

TEST(NormalizeDt, MonotoneAndBounded) {
  EXPECT_FLOAT_EQ(normalize_dt(0.0f), 0.0f);
  EXPECT_GT(normalize_dt(100.0f), normalize_dt(10.0f));
  EXPECT_LT(normalize_dt(7200.0f), 1.0f);
  EXPECT_FLOAT_EQ(normalize_dt(-5.0f), 0.0f);  // clamped
}

}  // namespace
}  // namespace nfv::ml
