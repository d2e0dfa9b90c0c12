#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/thread_pool.h"

#include <atomic>
#include <memory>
#include <set>

namespace nfv::core {
namespace {

using nfv::util::Duration;
using nfv::util::SimTime;

struct PipelineFixture : ::testing::Test {
  static const simnet::FleetTrace& trace() {
    static const simnet::FleetTrace t =
        simnet::simulate_fleet(simnet::small_fleet_config(61));
    return t;
  }
  static const ParsedFleet& parsed() {
    static const ParsedFleet p = parse_fleet(trace());
    return p;
  }
  static LstmDetectorConfig fast_lstm() {
    LstmDetectorConfig config;
    config.initial_epochs = 2;
    config.update_epochs = 1;
    config.adapt_epochs = 2;
    config.max_train_windows = 1200;
    config.hidden = 16;
    config.oversample_rounds = 1;
    return config;
  }
};

TEST_F(PipelineFixture, EndToEndLstm) {
  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.lstm_config = fast_lstm();
  const PipelineResult result = run_pipeline(trace(), parsed(), options);

  EXPECT_EQ(result.clustering.num_groups, 2u);
  ASSERT_EQ(result.monthly.size(),
            static_cast<std::size_t>(trace().config.months - 1));
  // Scored streams exist for every vPE across the eval span.
  ASSERT_EQ(result.streams.size(),
            static_cast<std::size_t>(trace().num_vpes()));
  std::size_t total_events = 0;
  for (const auto& stream : result.streams) {
    total_events += stream.events.size();
    // Events time-sorted within each stream.
    for (std::size_t i = 1; i < stream.events.size(); ++i) {
      EXPECT_LE(stream.events[i - 1].time.seconds,
                stream.events[i].time.seconds);
    }
  }
  EXPECT_GT(total_events, 1000u);
  // The simulator plants real anomalies; the pipeline should find tickets.
  EXPECT_GT(result.aggregate.recall, 0.3);
  EXPECT_GT(result.aggregate.precision, 0.3);
  EXPECT_GT(result.eval_days, 0.0);

  // Detections deduplicated by ticket id.
  std::set<std::int64_t> ids;
  for (const TicketDetection& d : result.detections) {
    EXPECT_TRUE(ids.insert(d.ticket_id).second);
  }
}

TEST_F(PipelineFixture, BaselineWithoutCustomizationIsOneGroup) {
  PipelineOptions options;
  options.customize = false;
  options.lstm_config = fast_lstm();
  const PipelineResult result = run_pipeline(trace(), parsed(), options);
  EXPECT_EQ(result.clustering.num_groups, 1u);
}

TEST_F(PipelineFixture, FeatureDetectorPipelineRuns) {
  PipelineOptions options;
  options.detector = DetectorKind::kAutoencoder;
  options.clustering.fixed_k = 2;
  const PipelineResult result = run_pipeline(trace(), parsed(), options);
  EXPECT_FALSE(result.monthly.empty());
  std::size_t total_events = 0;
  for (const auto& stream : result.streams) {
    total_events += stream.events.size();
  }
  EXPECT_GT(total_events, 100u);
}

TEST_F(PipelineFixture, TicketsInWindowIntersectsCorrectly) {
  const auto tickets = tickets_in_window(
      trace(), 0, nfv::util::month_start(1), nfv::util::month_start(2),
      Duration::of_days(1));
  for (const auto& t : tickets) {
    EXPECT_EQ(t.vpe, 0);
    // Mapping-relevant span intersects the window.
    EXPECT_LT((t.report - Duration::of_days(1)).seconds,
              nfv::util::month_start(2).seconds);
    EXPECT_GE(t.repair_finish.seconds, nfv::util::month_start(1).seconds);
  }
}

/// Detector double: scores every log 0 and records, on every call,
/// whether the ml kernels underneath would take their serial path.
class RegionProbe final : public AnomalyDetector {
 public:
  struct Calls {
    std::atomic<int> serial{0};
    std::atomic<int> fanned_out{0};
  };
  explicit RegionProbe(std::shared_ptr<Calls> calls)
      : calls_(std::move(calls)) {}

  void fit(std::span<const LogView>, std::size_t) override {
    record();
    trained_ = true;
  }
  void update(std::span<const LogView>, std::size_t) override { record(); }
  void adapt(std::span<const LogView>, std::size_t) override { record(); }
  std::vector<ScoredEvent> score(LogView logs, std::size_t) const override {
    record();
    std::vector<ScoredEvent> out;
    for (const auto& log : logs) out.push_back({log.time, 0.0});
    return out;
  }
  std::unique_ptr<AnomalyDetector> clone() const override {
    return std::make_unique<RegionProbe>(*this);
  }
  bool trained() const override { return trained_; }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }

 private:
  void record() const {
    ++(nfv::util::ThreadPool::in_parallel_region() ? calls_->serial
                                                   : calls_->fanned_out);
  }
  std::shared_ptr<Calls> calls_;
  bool trained_ = false;
};

// threads = 1 is serial all the way down: fit, update, adapt and scoring
// all run where ml kernels take their serial path, not the global pool.
TEST_F(PipelineFixture, SerialRunKeepsKernelsOnTheCallingThread) {
  nfv::util::set_global_threads(4);
  auto calls = std::make_shared<RegionProbe::Calls>();
  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.threads = 1;
  run_pipeline(trace(), parsed(), options, [&calls](std::uint64_t) {
    return std::make_unique<RegionProbe>(calls);
  });
  nfv::util::set_global_threads(0);
  EXPECT_GT(calls->serial.load(), 0);
  EXPECT_EQ(calls->fanned_out.load(), 0);
  EXPECT_FALSE(nfv::util::ThreadPool::in_parallel_region());
}

TEST_F(PipelineFixture, RejectsBadTrainMonths) {
  PipelineOptions options;
  options.initial_train_months = trace().config.months;  // nothing to test
  EXPECT_THROW(run_pipeline(trace(), parsed(), options),
               nfv::util::CheckError);
}

}  // namespace
}  // namespace nfv::core
