// The fused AVX-512F LSTM forward against the stepped one (Lstm::step, the
// reference path behind SequenceModel::score_log_likelihood): the same
// bits for every shape, row count (full and partial 4-row tiles) and
// thread count, and no scoring ever reads an image older than the weights.
// Runs only where the CPU has AVX-512F; elsewhere the stepped path is the
// only one and the other suites cover it.
#include "ml/fused_lstm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "core/lstm_detector.h"
#include "logproc/dataset.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfv::ml {
namespace {

using nfv::util::Rng;

constexpr std::size_t kVocab = 37;

/// Runs the test body in the AVX2+FMA kernel mode (the mode the fused
/// kernel replays) and restores the previous mode and pool size.
class FusedLstmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fused_lstm_cpu()) GTEST_SKIP() << "CPU lacks AVX-512F";
    simd_default_ = simd_kernels_enabled();
    set_simd_kernels_enabled(true);
    ASSERT_TRUE(fused_lstm_enabled());
  }
  void TearDown() override {
    set_simd_kernels_enabled(simd_default_);
    nfv::util::set_global_threads(0);
  }

 private:
  bool simd_default_ = true;
};

/// A model with every parameter random, biases included (a fresh model's
/// zero biases would leave the bias add untested).
SequenceModel random_model(std::size_t hidden, std::size_t layers,
                           std::size_t window, bool use_dt,
                           std::uint64_t seed) {
  SequenceModelConfig config;
  config.vocab = kVocab;
  config.embed_dim = 8;
  config.hidden = hidden;
  config.layers = layers;
  config.window = window;
  config.use_dt_feature = use_dt;
  Rng rng(seed);
  SequenceModel model(config, rng);
  for (Param* p : model.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] = static_cast<float>(rng.uniform(-0.6, 0.6));
    }
  }
  return model;
}

std::vector<SeqExample> random_windows(std::size_t rows, std::size_t window,
                                       std::size_t vocab, Rng& rng) {
  std::vector<SeqExample> out(rows);
  for (SeqExample& ex : out) {
    for (std::size_t t = 0; t < window; ++t) {
      ex.ids.push_back(static_cast<std::int32_t>(rng.uniform_index(vocab)));
      // Zero, seconds and days apart: the Δt feature's whole range.
      const double dt = rng.uniform_index(4) == 0 ? 0.0
                                                  : rng.uniform(0.0, 3e5);
      ex.dts.push_back(static_cast<float>(dt));
    }
    ex.target = static_cast<std::int32_t>(rng.uniform_index(vocab));
  }
  return out;
}

std::vector<const SeqExample*> pointers(const std::vector<SeqExample>& v) {
  std::vector<const SeqExample*> out;
  for (const SeqExample& ex : v) out.push_back(&ex);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Batched (fused) log-likelihoods of `examples` with a fresh scratch.
std::vector<double> batched(const SequenceModel& model,
                            const std::vector<const SeqExample*>& examples,
                            std::size_t batch_size = 1024) {
  SequenceModel::InferenceScratch scratch;
  std::vector<double> out(examples.size());
  model.score_batched(examples, batch_size, scratch, out);
  return out;
}

// The kernel alone: fused_lstm_forward's final hidden state against an
// Lstm::step chain over the same embedding, layers and Δt feature.
TEST_F(FusedLstmTest, KernelMatchesSteppedHiddenStateBitForBit) {
  for (const std::size_t hidden : {16, 32, 48}) {
    for (const std::size_t layers : {1, 2, 3}) {
      for (const std::size_t window : {1, 4, 10}) {
        for (const bool use_dt : {true, false}) {
          Rng rng(hidden * 1000 + layers * 100 + window * 10 + use_dt);
          constexpr std::size_t kDim = 8;
          Matrix embedding(kVocab, kDim);
          for (std::size_t i = 0; i < embedding.size(); ++i) {
            embedding.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
          }
          std::vector<Lstm> stack;
          for (std::size_t l = 0; l < layers; ++l) {
            stack.emplace_back("l" + std::to_string(l),
                               l == 0 ? kDim + (use_dt ? 1 : 0) : hidden,
                               hidden, rng);
            Matrix& bias = stack.back().bias().value;
            for (std::size_t i = 0; i < bias.size(); ++i) {
              bias.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            }
          }
          const Matrix output(5, hidden);
          FusedLstmImage image;
          pack_fused_lstm(embedding, stack, use_dt, output, image);

          for (const std::size_t rows : {1, 3, 4, 5, 64}) {
            const std::vector<SeqExample> windows =
                random_windows(rows, window, kVocab, rng);
            std::vector<std::int32_t> ids;
            std::vector<float> dts;
            for (const SeqExample& ex : windows) {
              ids.insert(ids.end(), ex.ids.begin(), ex.ids.end());
              dts.insert(dts.end(), ex.dts.begin(), ex.dts.end());
            }
            std::vector<float> fused(rows * hidden);
            fused_lstm_forward(image, ids.data(), dts.data(), window, rows,
                               fused.data());

            std::vector<LstmState> states;
            for (const Lstm& lstm : stack) {
              states.push_back(lstm.make_state(rows));
            }
            for (std::size_t t = 0; t < window; ++t) {
              Matrix x(rows, kDim + (use_dt ? 1 : 0));
              for (std::size_t r = 0; r < rows; ++r) {
                std::memcpy(x.row(r), embedding.row(windows[r].ids[t]),
                            kDim * sizeof(float));
                if (use_dt) x.at(r, kDim) = normalize_dt(windows[r].dts[t]);
              }
              const Matrix* in = &x;
              for (std::size_t l = 0; l < layers; ++l) {
                stack[l].step(*in, states[l]);
                in = &states[l].h;
              }
            }
            const Matrix& stepped = states.back().h;
            EXPECT_EQ(std::memcmp(fused.data(), stepped.data(),
                                  fused.size() * sizeof(float)),
                      0)
                << "hidden " << hidden << " layers " << layers << " window "
                << window << " dt " << use_dt << " rows " << rows;
          }
        }
      }
    }
  }
}

// Through SequenceModel: score_batched (fused, rows fanned out over the
// pool) against score_log_likelihood (stepped), and the rank path.
TEST_F(FusedLstmTest, BatchedScoresMatchSteppedReferenceForAnyRowsAndThreads) {
  for (const std::size_t hidden : {16, 32, 48}) {
    for (const std::size_t layers : {1, 2, 3}) {
      for (const std::size_t window : {1, 4, 10}) {
        for (const bool use_dt : {true, false}) {
          SequenceModel model =
              random_model(hidden, layers, window, use_dt,
                           hidden * 31 + layers * 7 + window + use_dt);
          model.pack_fused();
          ASSERT_TRUE(model.has_fused_image());
          Rng rng(window * 17 + layers);
          for (const std::size_t rows : {1, 3, 4, 5, 64, 1025}) {
            // The largest batch only at window 10, the longest chains.
            if (rows == 1025 && window != 10) continue;
            const std::vector<SeqExample> examples =
                random_windows(rows, window, kVocab, rng);
            const std::vector<const SeqExample*> batch = pointers(examples);
            nfv::util::set_global_threads(1);
            const std::vector<double> reference =
                model.score_log_likelihood(batch);
            const std::vector<std::size_t> reference_ranks =
                model.score_target_ranks(batch);
            for (const std::size_t threads : {1, 4}) {
              nfv::util::set_global_threads(threads);
              EXPECT_TRUE(same_bits(batched(model, batch), reference))
                  << "hidden " << hidden << " layers " << layers
                  << " window " << window << " dt " << use_dt << " rows "
                  << rows << " threads " << threads;
              SequenceModel::InferenceScratch scratch;
              std::vector<std::size_t> ranks(rows);
              model.score_ranks_batched(batch, 7, scratch, ranks);
              EXPECT_EQ(ranks, reference_ranks);
            }
          }
        }
      }
    }
  }
}

// A model without an image (as when scoring mid-fit) builds one into the
// call's scratch and scores the same bits as with its own.
TEST_F(FusedLstmTest, ScratchImageScoresLikeTheModelsImage) {
  SequenceModel model = random_model(32, 2, 4, true, 5);
  Rng rng(6);
  const std::vector<SeqExample> examples = random_windows(37, 4, kVocab, rng);
  const std::vector<const SeqExample*> batch = pointers(examples);
  ASSERT_FALSE(model.has_fused_image());
  const std::vector<double> from_scratch = batched(model, batch);
  model.pack_fused();
  EXPECT_TRUE(same_bits(batched(model, batch), from_scratch));
  EXPECT_TRUE(same_bits(model.score_log_likelihood(batch), from_scratch));
}

TEST_F(FusedLstmTest, WeightChangesNeverScoreAStaleImage) {
  SequenceModel model = random_model(16, 2, 4, true, 11);
  Rng rng(12);
  const std::vector<SeqExample> examples = random_windows(20, 4, kVocab, rng);
  const std::vector<const SeqExample*> batch = pointers(examples);
  model.pack_fused();
  const std::vector<double> before = batched(model, batch);

  // train_batch moves the weights and drops the image.
  Adam optimizer(0.05f);
  optimizer.bind(model.params());
  model.pack_fused();
  model.train_batch(batch, optimizer);
  EXPECT_FALSE(model.has_fused_image());
  const std::vector<double> trained = batched(model, batch);
  EXPECT_FALSE(same_bits(trained, before));
  EXPECT_TRUE(same_bits(trained, model.score_log_likelihood(batch)));

  // grow_vocab adds embedding rows and output classes.
  model.pack_fused();
  Rng grow_rng(13);
  model.grow_vocab(kVocab + 9, grow_rng);
  EXPECT_FALSE(model.has_fused_image());
  const std::vector<SeqExample> grown =
      random_windows(20, 4, kVocab + 9, rng);
  const std::vector<const SeqExample*> grown_batch = pointers(grown);
  EXPECT_TRUE(same_bits(batched(model, grown_batch),
                        model.score_log_likelihood(grown_batch)));
  model.pack_fused();
  EXPECT_TRUE(same_bits(batched(model, grown_batch),
                        model.score_log_likelihood(grown_batch)));

  // Mutable parameters may be written through, so handing them out
  // drops the image too.
  model.params()[0]->value.at(0, 0) += 0.25f;
  EXPECT_FALSE(model.has_fused_image());
  EXPECT_TRUE(same_bits(batched(model, grown_batch),
                        model.score_log_likelihood(grown_batch)));

  // int8 scoring never reads the image; leaving it rebuilds the image.
  model.pack_fused();
  model.quantize();
  EXPECT_FALSE(model.has_fused_image());
  model.clear_quantized();
  EXPECT_TRUE(model.has_fused_image());
}

TEST_F(FusedLstmTest, CopyAndLoadScoreIdentically) {
  SequenceModel model = random_model(48, 3, 10, true, 21);
  model.pack_fused();
  Rng rng(22);
  const std::vector<SeqExample> examples = random_windows(9, 10, kVocab, rng);
  const std::vector<const SeqExample*> batch = pointers(examples);
  const std::vector<double> original = batched(model, batch);

  const SequenceModel copy = model;
  EXPECT_TRUE(copy.has_fused_image());
  EXPECT_TRUE(same_bits(batched(copy, batch), original));

  std::stringstream stream;
  model.save(stream);
  const SequenceModel loaded = SequenceModel::load(stream);
  EXPECT_TRUE(loaded.has_fused_image());
  EXPECT_TRUE(same_bits(batched(loaded, batch), original));
}

// The detector packs its image after training; clone() and a save/load
// round trip score every stream identically.
TEST_F(FusedLstmTest, DetectorCloneAndLoadScoreIdentically) {
  core::LstmDetectorConfig config;
  config.window = 4;
  config.embed_dim = 8;
  config.hidden = 16;
  config.initial_epochs = 1;
  config.max_train_windows = 300;
  config.oversample = false;
  core::LstmDetector detector(config);
  std::vector<logproc::ParsedLog> logs;
  for (std::size_t i = 0; i < 400; ++i) {
    logs.push_back({nfv::util::SimTime{static_cast<std::int64_t>(i * 37)},
                    static_cast<std::int32_t>((i * 7 + i / 13) % 11)});
  }
  const core::LogView view(logs);
  detector.fit({&view, 1}, 11);
  EXPECT_TRUE(detector.model().has_fused_image());
  const auto scores = detector.score_streams({&view, 1}, 11);

  const auto clone = detector.clone();
  std::stringstream stream;
  detector.save(stream);
  const core::LstmDetector loaded = core::LstmDetector::load(stream);
  for (const auto& other :
       {clone->score_streams({&view, 1}, 11),
        loaded.score_streams({&view, 1}, 11)}) {
    ASSERT_EQ(other.size(), 1u);
    ASSERT_EQ(other[0].size(), scores[0].size());
    for (std::size_t i = 0; i < scores[0].size(); ++i) {
      EXPECT_EQ(std::memcmp(&other[0][i].score, &scores[0][i].score,
                            sizeof(double)),
                0)
          << "window " << i;
    }
  }
}

}  // namespace
}  // namespace nfv::ml
