// Scoring must give every log with k predecessors a score, however far
// apart its lines are. A log that mixes t=0 with epoch-second timestamps
// puts decades between two consecutive lines; windows spanning that gap
// are still scored (the session-break filter belongs to training only).
// Built into its own binary so tools/ci.sh runs it under AddressSanitizer.
#include <gtest/gtest.h>

#include <vector>

#include "core/lstm_detector.h"
#include "core/streaming.h"
#include "logproc/dataset.h"
#include "logproc/signature_tree.h"

namespace nfv::core {
namespace {

using logproc::ParsedLog;
using nfv::util::SimTime;

constexpr std::size_t kWindow = 4;
constexpr std::size_t kVocab = 6;
constexpr std::int64_t kTwentyYears = 20LL * 365 * 86400;

LstmDetector make_trained_detector() {
  LstmDetectorConfig config;
  config.window = kWindow;
  config.embed_dim = 4;
  config.hidden = 8;
  config.initial_epochs = 1;
  config.oversample = false;
  LstmDetector detector(config);
  std::vector<ParsedLog> train;
  for (std::size_t i = 0; i < 200; ++i) {
    train.push_back({SimTime{static_cast<std::int64_t>(30 * i)},
                     static_cast<std::int32_t>(i % kVocab)});
  }
  const LogView view{train};
  detector.fit({&view, 1}, kVocab);
  return detector;
}

/// One line at t=0, then five lines 20 years later.
std::vector<ParsedLog> gap_logs() {
  std::vector<ParsedLog> logs = {{SimTime{0}, 1}};
  for (std::int64_t i = 0; i < 5; ++i) {
    logs.push_back({SimTime{kTwentyYears + 30 * i},
                    static_cast<std::int32_t>((i + 2) % kVocab)});
  }
  return logs;
}

/// -log p of each window, scored alone through the model.
std::vector<double> reference_scores(const LstmDetector& detector,
                                     const std::vector<ParsedLog>& logs) {
  const std::vector<ml::SeqExample> examples =
      logproc::build_sequence_examples(logs, kWindow, std::nullopt);
  std::vector<double> out;
  for (const ml::SeqExample& example : examples) {
    out.push_back(-detector.model().score_log_likelihood({&example})[0]);
  }
  return out;
}

TEST(ScoreGapTest, WindowsSpanningDecadesAreAllScored) {
  const LstmDetector detector = make_trained_detector();
  const std::vector<ParsedLog> logs = gap_logs();
  const std::vector<ScoredEvent> events = detector.score(logs, kVocab);
  ASSERT_EQ(events.size(), logs.size() - kWindow);

  const std::vector<double> expected = reference_scores(detector, logs);
  ASSERT_EQ(expected.size(), events.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(events[e].time.seconds, logs[kWindow + e].time.seconds);
    EXPECT_EQ(events[e].score, expected[e]) << "event " << e;
  }
}

// The monitor scores each line on its own (k+1)-line history, so the
// reference for line i is the window over lines [i-k, i] scored alone.
TEST(ScoreGapTest, StreamMonitorScoresTheLineAfterTheGap) {
  const LstmDetector detector = make_trained_detector();
  const std::vector<ParsedLog> logs = gap_logs();

  StreamMonitorConfig config;
  config.window = kWindow;
  config.threshold = 1e9;  // scores only; no warnings
  logproc::SignatureTree tree;
  StreamMonitor monitor(0, &detector, &tree, config,
                        [](const StreamWarning&) {});
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const double score = monitor.ingest_parsed(logs[i]);
    if (i < kWindow) {
      EXPECT_EQ(score, 0.0) << "line " << i;  // history still filling
    } else {
      const std::vector<ParsedLog> history(logs.begin() + (i - kWindow),
                                           logs.begin() + (i + 1));
      const std::vector<double> expected =
          reference_scores(detector, history);
      ASSERT_EQ(expected.size(), 1u);
      EXPECT_EQ(score, expected[0]) << "line " << i;
    }
  }
}

}  // namespace
}  // namespace nfv::core
