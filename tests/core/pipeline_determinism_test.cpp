// Determinism is a hard requirement of the parallel execution layer: the
// pipeline's per-stream fan-out and the blocked matrix kernels must
// produce bit-identical results for every thread count. These tests pin
// that contract by comparing full runs at threads = 1 against threads
// 2, 3, 4 and 7.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfv::core {
namespace {

LstmDetectorConfig fast_lstm() {
  LstmDetectorConfig config;
  config.initial_epochs = 2;
  config.update_epochs = 1;
  config.adapt_epochs = 2;
  config.max_train_windows = 1200;
  config.hidden = 16;
  config.oversample_rounds = 1;
  return config;
}

void expect_identical(const PipelineResult& a, const PipelineResult& b) {
  // Clustering.
  ASSERT_EQ(a.clustering.num_groups, b.clustering.num_groups);
  ASSERT_EQ(a.clustering.group_of_vpe, b.clustering.group_of_vpe);

  // Monthly metrics (Fig. 7 series) — exact double equality, not
  // tolerance: the parallel path must be bit-identical.
  ASSERT_EQ(a.monthly.size(), b.monthly.size());
  for (std::size_t m = 0; m < a.monthly.size(); ++m) {
    EXPECT_EQ(a.monthly[m].month, b.monthly[m].month);
    EXPECT_EQ(a.monthly[m].prf.precision, b.monthly[m].prf.precision);
    EXPECT_EQ(a.monthly[m].prf.recall, b.monthly[m].prf.recall);
    EXPECT_EQ(a.monthly[m].prf.f_measure, b.monthly[m].prf.f_measure);
    EXPECT_EQ(a.monthly[m].false_alarms_per_day,
              b.monthly[m].false_alarms_per_day);
    EXPECT_EQ(a.monthly[m].anomaly_clusters, b.monthly[m].anomaly_clusters);
  }

  // Raw scored streams: every event time and score.
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t v = 0; v < a.streams.size(); ++v) {
    ASSERT_EQ(a.streams[v].events.size(), b.streams[v].events.size())
        << "vpe " << v;
    for (std::size_t e = 0; e < a.streams[v].events.size(); ++e) {
      ASSERT_EQ(a.streams[v].events[e].time.seconds,
                b.streams[v].events[e].time.seconds);
      ASSERT_EQ(a.streams[v].events[e].score, b.streams[v].events[e].score)
          << "vpe " << v << " event " << e;
    }
  }

  // Anomaly clusters and ticket-level detections.
  ASSERT_EQ(a.mapping.anomalies.size(), b.mapping.anomalies.size());
  for (std::size_t i = 0; i < a.mapping.anomalies.size(); ++i) {
    EXPECT_EQ(a.mapping.anomalies[i].time.seconds,
              b.mapping.anomalies[i].time.seconds);
    EXPECT_EQ(a.mapping.anomalies[i].vpe, b.mapping.anomalies[i].vpe);
    EXPECT_EQ(a.mapping.anomalies[i].outcome, b.mapping.anomalies[i].outcome);
    EXPECT_EQ(a.mapping.anomalies[i].ticket_id,
              b.mapping.anomalies[i].ticket_id);
  }
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_EQ(a.detections[i].ticket_id, b.detections[i].ticket_id);
    EXPECT_EQ(a.detections[i].detected, b.detections[i].detected);
    EXPECT_EQ(a.detections[i].detected_before, b.detections[i].detected_before);
    EXPECT_EQ(a.detections[i].detected_after, b.detections[i].detected_after);
    EXPECT_EQ(a.detections[i].best_lead.seconds,
              b.detections[i].best_lead.seconds);
    EXPECT_EQ(a.detections[i].anomaly_count, b.detections[i].anomaly_count);
  }

  // Final per-group operating thresholds.
  ASSERT_EQ(a.group_thresholds, b.group_thresholds);

  // Aggregates.
  EXPECT_EQ(a.mapping.early_warnings, b.mapping.early_warnings);
  EXPECT_EQ(a.mapping.errors, b.mapping.errors);
  EXPECT_EQ(a.mapping.false_alarms, b.mapping.false_alarms);
  EXPECT_EQ(a.aggregate.precision, b.aggregate.precision);
  EXPECT_EQ(a.aggregate.recall, b.aggregate.recall);
  EXPECT_EQ(a.aggregate.f_measure, b.aggregate.f_measure);
  EXPECT_EQ(a.false_alarms_per_day, b.false_alarms_per_day);
}

TEST(PipelineDeterminismTest, ThreadsOneAndFourAreBitIdentical) {
  const simnet::FleetTrace trace =
      simnet::simulate_fleet(simnet::small_fleet_config(61));
  const ParsedFleet parsed = parse_fleet(trace);

  PipelineOptions options;
  options.clustering.fixed_k = 2;
  options.lstm_config = fast_lstm();

  options.threads = 1;
  const PipelineResult serial = run_pipeline(trace, parsed, options);
  options.threads = 4;
  const PipelineResult parallel = run_pipeline(trace, parsed, options);

  expect_identical(serial, parallel);
}

// Unequal groups and a split month (a group adapts after the software
// update, mid-month) exercise every round of the per-stream schedule:
// update tasks beside scoring on month-start clones, adapt, the
// recalibration and tail round, and the adapted groups' update. Exact
// equality against threads = 1 at several thread counts, for the LSTM
// (with its persistent optimizer, which clones leave behind) and for a
// feature detector.
void expect_serial_equivalence(DetectorKind detector) {
  const simnet::FleetTrace trace =
      simnet::simulate_fleet(simnet::small_fleet_config(61));
  const ParsedFleet parsed = parse_fleet(trace);

  PipelineOptions options;
  options.detector = detector;
  options.clustering.fixed_k = 3;
  options.persistent_optimizer = true;
  options.lstm_config = fast_lstm();

  options.threads = 1;
  const PipelineResult serial = run_pipeline(trace, parsed, options);

  // Not vacuous: the groups differ in size, and some evaluated month is
  // split by an adaptation.
  std::vector<std::size_t> sizes(serial.clustering.num_groups, 0);
  for (const std::int32_t g : serial.clustering.group_of_vpe) {
    ++sizes[static_cast<std::size_t>(g)];
  }
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_NE(*std::min_element(sizes.begin(), sizes.end()),
            *std::max_element(sizes.begin(), sizes.end()));
  bool split_month = false;
  for (const nfv::util::SimTime u : trace.update_time_by_vpe) {
    for (int m = options.initial_train_months; m < trace.config.months;
         ++m) {
      const nfv::util::SimTime end = nfv::util::month_start(m + 1);
      split_month = split_month ||
                    (u >= nfv::util::month_start(m) && u < end &&
                     u + options.adapt_span < end);
    }
  }
  ASSERT_TRUE(split_month) << "no evaluated month adapts mid-month";

  for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    expect_identical(serial, run_pipeline(trace, parsed, options));
  }
}

TEST(PipelineDeterminismTest, LstmStreamScheduleMatchesSerial) {
  expect_serial_equivalence(DetectorKind::kLstm);
}

TEST(PipelineDeterminismTest, FeatureDetectorStreamScheduleMatchesSerial) {
  expect_serial_equivalence(DetectorKind::kPca);
}

// The blocked-parallel matrix kernels against their serial references on
// random shapes straddling the parallelism work threshold.
TEST(PipelineDeterminismTest, BlockedParallelMatmulMatchesSerial) {
  nfv::util::set_global_threads(4);
  nfv::util::Rng rng(99);
  const struct {
    std::size_t r, k, c;
  } shapes[] = {
      {1, 1, 1},     {3, 7, 5},      {17, 33, 9},
      {64, 64, 64},  {128, 96, 130}, {300, 128, 77},
  };
  for (const auto& shape : shapes) {
    ml::Matrix a(shape.r, shape.k);
    ml::Matrix b(shape.k, shape.c);
    ml::Matrix bt(shape.c, shape.k);
    for (float& x : a.storage()) x = static_cast<float>(rng.normal());
    for (float& x : b.storage()) x = static_cast<float>(rng.normal());
    for (float& x : bt.storage()) x = static_cast<float>(rng.normal());

    ml::Matrix serial, parallel;
    ml::matmul_serial(a, b, serial);
    ml::matmul(a, b, parallel);
    ASSERT_EQ(serial.storage(), parallel.storage())
        << shape.r << "x" << shape.k << "x" << shape.c;

    ml::matmul_transb_serial(a, bt, serial);
    ml::matmul_transb(a, bt, parallel);
    ASSERT_EQ(serial.storage(), parallel.storage())
        << "transb " << shape.r << "x" << shape.k << "x" << shape.c;

    // Accumulating kernel: seed both accumulators identically.
    ml::Matrix b2(shape.r, shape.c);
    for (float& x : b2.storage()) x = static_cast<float>(rng.normal());
    ml::Matrix acc_serial(shape.k, shape.c);
    for (float& x : acc_serial.storage()) {
      x = static_cast<float>(rng.normal());
    }
    ml::Matrix acc_parallel = acc_serial;
    ml::matmul_transa_accumulate_serial(a, b2, acc_serial);
    ml::matmul_transa_accumulate(a, b2, acc_parallel);
    ASSERT_EQ(acc_serial.storage(), acc_parallel.storage())
        << "transa " << shape.r << "x" << shape.k << "x" << shape.c;
  }
  nfv::util::set_global_threads(0);  // restore auto sizing
}

}  // namespace
}  // namespace nfv::core
