// Observability substrate: the power-of-two latency histogram's bucket
// layout, merge and quantile math against a scalar reference, and the
// end-to-end guarantee that a stats snapshot of an AsyncIngest run is
// deterministic — the same trace produces the same final per-shard
// counters for ANY worker count, with the histogram accounting for every
// submitted line. (ctest -L observability.)
#include "core/runtime_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "util/json.h"

namespace nfv::core {
namespace {

TEST(LatencyHistogramTest, BucketLayoutIdentities) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3u);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_floor(i)),
              i)
        << "floor of bucket " << i;
    EXPECT_EQ(
        LatencyHistogram::bucket_index(LatencyHistogram::bucket_ceil(i) - 1),
        i)
        << "last value of bucket " << i;
  }
  // Everything past the top bucket's floor clamps into the top bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
  // Boundaries tile the line: ceil(i) == floor(i+1).
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_ceil(i),
              LatencyHistogram::bucket_floor(i + 1));
  }
}

TEST(LatencyHistogramTest, RecordClearAndMergeAreBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 1023ull}) a.record(v);
  for (std::uint64_t v : {7ull, 100000ull}) b.record(v);

  HistogramSnapshot sa;
  sa.buckets = a.buckets();
  HistogramSnapshot sb;
  sb.buckets = b.buckets();
  EXPECT_EQ(sa.total(), 5u);
  EXPECT_EQ(sb.total(), 2u);

  HistogramSnapshot merged = sa;
  merged.merge(sb);
  EXPECT_EQ(merged.total(), 7u);
  for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i], sa.buckets[i] + sb.buckets[i]) << i;
  }

  a.clear();
  sa.buckets = a.buckets();
  EXPECT_EQ(sa.total(), 0u);
}

TEST(HistogramSnapshotTest, QuantileEdgeCases) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // One value: every quantile lands in that value's bucket.
  LatencyHistogram one;
  one.record(777);
  HistogramSnapshot s;
  s.buckets = one.buckets();
  const std::size_t bucket = LatencyHistogram::bucket_index(777);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_GE(s.quantile(q),
              static_cast<double>(LatencyHistogram::bucket_floor(bucket)));
    EXPECT_LE(s.quantile(q),
              static_cast<double>(LatencyHistogram::bucket_ceil(bucket)));
  }
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(s.quantile(-1.0), s.quantile(0.0));
  EXPECT_EQ(s.quantile(2.0), s.quantile(1.0));
}

TEST(HistogramSnapshotTest, QuantileTracksScalarReferenceWithinOneBucket) {
  // Deterministic pseudo-random latencies spanning many octaves.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % (1ull << (5 + i % 30)));
  }
  LatencyHistogram hist;
  for (const std::uint64_t v : values) hist.record(v);
  HistogramSnapshot snap;
  snap.buckets = hist.buckets();
  ASSERT_EQ(snap.total(), values.size());

  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Scalar reference (util::quantile convention): fractional rank
    // q*(n-1); the histogram answer must stay within the bucket span of
    // the two order statistics bracketing that rank.
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::uint64_t lo =
        sorted[static_cast<std::size_t>(std::floor(rank))];
    const std::uint64_t hi = sorted[static_cast<std::size_t>(std::ceil(rank))];
    const double got = snap.quantile(q);
    EXPECT_GE(got, static_cast<double>(LatencyHistogram::bucket_floor(
                       LatencyHistogram::bucket_index(lo))))
        << "q=" << q;
    EXPECT_LE(got, static_cast<double>(LatencyHistogram::bucket_ceil(
                       LatencyHistogram::bucket_index(hi))))
        << "q=" << q;
  }
}

// ---------------------------------------------------------------------
// Snapshot-under-load determinism. A trivial deterministic detector keeps
// the test about the runtime's accounting, not about model math.
// ---------------------------------------------------------------------

class StepDetector final : public AnomalyDetector {
 public:
  void fit(std::span<const LogView>, std::size_t) override {}
  void update(std::span<const LogView>, std::size_t) override {}
  void adapt(std::span<const LogView>, std::size_t) override {}
  std::vector<ScoredEvent> score(LogView logs,
                                 std::size_t /*vocab*/) const override {
    std::vector<ScoredEvent> events;
    events.reserve(logs.size());
    for (const auto& log : logs) {
      events.push_back({log.time, log.template_id >= 100 ? 50.0 : 0.0});
    }
    return events;
  }
  bool trained() const override { return true; }
  DetectorKind kind() const override { return DetectorKind::kLstm; }
  EventGranularity granularity() const override {
    return EventGranularity::kPerLog;
  }
};

logproc::ParsedLog trace_log(std::size_t vpe, std::size_t i) {
  logproc::ParsedLog log;
  log.time = nfv::util::SimTime{static_cast<std::int64_t>(i) * 30};
  // Occasional adjacent pairs of "anomalous" ids (>= 100) so warning
  // clusters actually form; everything else cycles benign ids.
  if (i % 41 == 20 || i % 41 == 21) {
    log.template_id = static_cast<std::int32_t>(100 + vpe);
  } else {
    log.template_id = static_cast<std::int32_t>((i + vpe * 3) % 17);
  }
  return log;
}

TEST(RuntimeStatsSnapshotTest, SameTraceSameFinalCountersForAnyWorkerCount) {
  constexpr std::size_t kVpes = 5;
  constexpr std::size_t kLines = 600;
  StepDetector detector;

  std::vector<ShardStatsSnapshot> reference;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    AsyncIngestConfig config;
    config.workers = workers;
    config.flush_batch = 16;
    config.queue_capacity = 64;
    AsyncIngest ingest(&detector, config);
    StreamMonitorConfig monitor;
    monitor.threshold = 10.0;
    monitor.window = 4;
    for (std::size_t v = 0; v < kVpes; ++v) {
      ingest.add_shard(static_cast<std::int32_t>(v), monitor);
    }
    ingest.start();
    for (std::size_t i = 0; i < kLines; ++i) {
      for (std::size_t v = 0; v < kVpes; ++v) {
        ingest.submit_parsed(v, trace_log(v, i));
      }
    }
    ingest.flush();

    // Queryable while running: the post-flush snapshot already has every
    // line accounted for, before stop() was ever called.
    const RuntimeStatsSnapshot live = ingest.snapshot();
    EXPECT_EQ(live.totals.lines_scored, kVpes * kLines);
    ingest.stop();

    const RuntimeStatsSnapshot snap = ingest.snapshot();
    EXPECT_EQ(snap.totals.lines_submitted, kVpes * kLines);
    EXPECT_EQ(snap.totals.lines_scored, kVpes * kLines);
    ASSERT_EQ(snap.shards.size(), kVpes);
    ASSERT_EQ(snap.workers.size(), std::min(workers, kVpes));

    std::uint64_t worker_lines = 0;
    for (const WorkerStatsSnapshot& w : snap.workers) {
      EXPECT_GT(w.epoch, 0u) << "worker " << w.worker;
      EXPECT_EQ(w.queue.depth, 0u) << "worker " << w.worker;
      EXPECT_GT(w.queue.capacity, 0u) << "worker " << w.worker;
      worker_lines += w.lines;
    }
    EXPECT_EQ(worker_lines, kVpes * kLines);

    std::uint64_t warnings = 0;
    for (std::size_t v = 0; v < kVpes; ++v) {
      const ShardStatsSnapshot& shard = snap.shards[v];
      EXPECT_EQ(shard.shard, v);
      EXPECT_EQ(shard.vpe, static_cast<std::int32_t>(v));
      EXPECT_EQ(shard.worker, v % snap.workers.size());
      EXPECT_FALSE(shard.paused);
      EXPECT_EQ(shard.held, 0u);
      // Every submitted line was ingested and latency-recorded.
      EXPECT_EQ(shard.lines, kLines) << "shard " << v;
      EXPECT_EQ(shard.latency.total(), kLines) << "shard " << v;
      warnings += shard.warnings;
    }
    EXPECT_GT(warnings, 0u) << "vacuous trace: no warning clusters";
    EXPECT_EQ(warnings, snap.totals.warnings_published);
    EXPECT_EQ(snap.merged_latency().total(), kVpes * kLines);

    // Determinism across worker counts: identical per-shard counters.
    if (reference.empty()) {
      reference = snap.shards;
    } else {
      for (std::size_t v = 0; v < kVpes; ++v) {
        EXPECT_EQ(snap.shards[v].lines, reference[v].lines)
            << "workers=" << workers << " shard " << v;
        EXPECT_EQ(snap.shards[v].warnings, reference[v].warnings)
            << "workers=" << workers << " shard " << v;
        EXPECT_EQ(snap.shards[v].latency.total(), reference[v].latency.total())
            << "workers=" << workers << " shard " << v;
      }
    }
  }
}

// Workers publish only the shards a micro-batch touched. With shards far
// beyond flush_batch and most of them idle, every state change must
// still reach the snapshot: the primed tree bytes of never-touched shards,
// lines and warnings of sparsely hit shards (including a warning raised
// by a deadline flush), the paused flag and held gauge of an untouched
// shard, the tree bytes of a shard re-primed while no traffic was in
// flight, and the force-resume of a shard still paused at stop().
TEST(RuntimeStatsSnapshotTest, SparseTouchPublishMatchesGroundTruth) {
  constexpr std::size_t kShards = 1024;
  constexpr std::size_t kHot = 8;
  constexpr std::size_t kCold = 900;        // shards kHot.. take a sprinkle
  constexpr std::size_t kActive = 3;        // hot shard paused mid-run
  constexpr std::size_t kUntouched = 1000;  // paused, then resumed
  constexpr std::size_t kReprimed = 1001;   // tree grows while quiesced
  constexpr std::size_t kBurst = 1002;      // one late warning cluster
  constexpr std::size_t kPausedAtStop = 1003;
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 8;
  config.queue_capacity = 256;
  AsyncIngest ingest(&detector, config);
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < kShards; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
    ingest.mutable_tree(v).learn("boot complete on slot " + std::to_string(v));
  }
  ingest.start();

  // Mid-run cuts from a reader thread: per-shard counters never go
  // backwards and the histogram never runs ahead of the lines. (EXPECT
  // only until it is joined: an ASSERT return would leave it joinable.)
  std::atomic<bool> done{false};
  std::atomic<std::size_t> cuts{0};
  std::atomic<std::size_t> violations{0};
  std::thread reader([&] {
    std::vector<ShardStatsSnapshot> last(kShards);
    while (!done.load(std::memory_order_acquire)) {
      const RuntimeStatsSnapshot snap = ingest.snapshot();
      for (std::size_t s = 0; s < kShards; ++s) {
        const ShardStatsSnapshot& now = snap.shards[s];
        if (now.lines < last[s].lines || now.warnings < last[s].warnings ||
            now.tree_bytes < last[s].tree_bytes ||
            now.latency.total() < last[s].latency.total() ||
            now.latency.total() > now.lines) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last[s] = now;
      }
      cuts.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Skewed traffic: a few hot shards carry nearly every line (parsed,
  // with warning clusters; every 5th one raw so their trees mine), and a
  // sparse sprinkle of single lines touches some of the cold shards.
  std::vector<std::uint64_t> submitted(kShards, 0);
  std::size_t step = 0;
  const auto send = [&](std::size_t shard) {
    const std::size_t i = submitted[shard]++;
    if (shard < kHot && i % 5 == 4) {
      ingest.submit(shard,
                    nfv::util::SimTime{static_cast<std::int64_t>(i) * 30},
                    "link flap on port " + std::to_string(shard) + " id " +
                        std::to_string(i % 3));
    } else {
      ingest.submit_parsed(shard, trace_log(shard, i));
    }
  };
  const auto traffic = [&](std::size_t lines) {
    for (std::size_t n = 0; n < lines; ++n, ++step) {
      send(step % kHot);
      if (step % 13 == 0) send(kHot + (step * 37) % kCold);
    }
    // Let the reader land a cut while this phase may still be in flight.
    const std::size_t seen = cuts.load(std::memory_order_relaxed);
    while (cuts.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
  };

  traffic(1200);
  {
    // Both workers have published many micro-batches by now, none of
    // which touched these shards: their primed bytes came from the
    // first publish alone. (No worker writes these trees; reading them
    // here races nothing.)
    const RuntimeStatsSnapshot snap = ingest.snapshot();
    for (std::size_t s = kHot + kCold; s < kShards; ++s) {
      EXPECT_GT(snap.shards[s].tree_bytes, 0u) << "shard " << s;
      EXPECT_EQ(snap.shards[s].tree_bytes, ingest.tree(s).memory_bytes())
          << "shard " << s;
    }
  }
  // A pause alone (no parked lines yet) must show once it is applied.
  ingest.pause_shard(kUntouched);
  ingest.wait_commands();
  EXPECT_TRUE(ingest.shard_paused(kUntouched));

  ingest.flush();  // a pause parks queued lines too: drain them first
  ingest.pause_shard(kActive);
  ingest.wait_commands();
  EXPECT_TRUE(ingest.shard_paused(kActive));
  const std::uint64_t active_before = submitted[kActive];
  traffic(400);
  for (int n = 0; n < 5; ++n) send(kUntouched);
  ingest.flush();
  {
    // Held lines are parked, not ingested: the gauges show them, the
    // line counters do not.
    const RuntimeStatsSnapshot snap = ingest.snapshot();
    EXPECT_TRUE(snap.shards[kActive].paused);
    EXPECT_TRUE(snap.shards[kUntouched].paused);
    EXPECT_EQ(snap.shards[kActive].held, submitted[kActive] - active_before);
    EXPECT_EQ(snap.shards[kUntouched].held, 5u);
    EXPECT_EQ(snap.shards[kActive].lines, active_before);
    EXPECT_EQ(snap.shards[kUntouched].lines, 0u);
  }
  ingest.resume_shard(kUntouched);
  ingest.resume_shard(kActive);
  ingest.wait_commands();
  ingest.flush();

  // Re-prime an idle shard's tree between barriers, then traffic that
  // never touches it: only the epoch barrier can republish its bytes.
  const std::size_t tree_before = ingest.tree(kReprimed).memory_bytes();
  for (const char* line : {"bgp peer reset by neighbour", "fan tray missing",
                           "power supply degraded"}) {
    ingest.mutable_tree(kReprimed).learn(line);
  }
  EXPECT_GT(ingest.tree(kReprimed).memory_bytes(), tree_before);
  traffic(800);

  // One warning cluster that completes in a partial batch: the worker
  // idles with it staged (publishing on the idle path while histograms
  // lag), and the deadline flush that scores it raises the warning.
  for (std::size_t i = 0; i < 22; ++i) send(kBurst);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ingest.flush();

  std::vector<StreamWarning> drained;
  ingest.drain_warnings(drained);
  std::vector<std::uint64_t> warned(kShards, 0);
  for (const StreamWarning& w : drained) {
    ++warned[static_cast<std::size_t>(w.vpe)];
  }
  EXPECT_EQ(warned[kBurst], 1u);

  const auto expect_ground_truth = [&](const RuntimeStatsSnapshot& snap,
                                       const char* when) {
    std::size_t touched = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const ShardStatsSnapshot& sh = snap.shards[s];
      SCOPED_TRACE(std::string(when) + " shard " + std::to_string(s));
      EXPECT_EQ(sh.lines, submitted[s]);
      EXPECT_EQ(sh.warnings, warned[s]);
      EXPECT_EQ(sh.held, 0u);
      EXPECT_FALSE(sh.paused);
      EXPECT_EQ(sh.tree_bytes, ingest.tree(s).memory_bytes());
      EXPECT_EQ(sh.latency.total(), sh.lines);
      if (submitted[s] > 0) ++touched;
    }
    EXPECT_LT(touched, kShards / 4) << "traffic is not sparse";
    EXPECT_EQ(snap.totals.warnings_published, drained.size());
  };
  expect_ground_truth(ingest.snapshot(), "after flush");

  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(cuts.load(), 3u);
  EXPECT_EQ(violations.load(), 0u);

  // stop() force-resumes a shard still paused with nothing held.
  ingest.pause_shard(kPausedAtStop);
  ingest.wait_commands();
  ingest.stop();
  expect_ground_truth(ingest.snapshot(), "after stop");
}

// flush() must cover a line submitted immediately before it, even when
// the owning worker is polling an empty queue at that moment. A worker
// that read the barrier request after its failed poll could park with
// that line still queued: before the barrier read moved ahead of the
// poll, this loop missed a few lines per run on a 4-vCPU x86 VM.
TEST(RuntimeStatsSnapshotTest, FlushCoversTheLineSubmittedJustBeforeIt) {
  StepDetector detector;
  for (const bool single_producer : {false, true}) {
    AsyncIngestConfig config;
    config.workers = 2;
    config.single_producer = single_producer;
    AsyncIngest ingest(&detector, config);
    StreamMonitorConfig monitor;
    monitor.window = 4;
    for (std::size_t v = 0; v < 4; ++v) {
      ingest.add_shard(static_cast<std::int32_t>(v), monitor);
    }
    ingest.start();
    std::uint64_t missed = 0;
    constexpr std::uint64_t kRounds = 20000;
    for (std::uint64_t n = 1; n <= kRounds; ++n) {
      ingest.submit_parsed(n % 4, trace_log(n % 4, n));
      ingest.flush();
      if (ingest.stats().lines_scored != n) ++missed;
    }
    ingest.stop();
    EXPECT_EQ(missed, 0u) << "single_producer=" << single_producer;
  }
}

// The snapshot totals come from one consistent cut: no reader ever sees
// more lines scored than submitted. Four producers, more threads than a
// small CI box has cores, feed two workers that flush every line, through
// blocking submits and rejecting try_submits on small queues, while a
// reader takes stats cuts and snapshots. With try_submit counting a line
// after its push and stats() loading lines_submitted first, 25 of 30 runs
// of this test failed on a 4-core host. Afterwards every accepted line is
// scored and every other one counted as rejected.
TEST(RuntimeStatsSnapshotTest, TotalsNeverScoreMoreLinesThanSubmitted) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kLinesPerProducer = 150000;
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  config.flush_batch = 1;
  config.queue_capacity = 8;
  AsyncIngest ingest(&detector, config);
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < kProducers; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
  }
  ingest.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> cuts{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    // Every 16th cut is a full snapshot(); the others read stats(), the
    // cut snapshot() takes its totals from, to sample the race often.
    for (std::uint64_t n = 0; !done.load(std::memory_order_acquire); ++n) {
      AsyncIngestStats totals;
      if (n % 16 == 0) {
        const RuntimeStatsSnapshot snap = ingest.snapshot();
        totals.lines_submitted = snap.totals.lines_submitted;
        totals.lines_scored = snap.totals.lines_scored;
      } else {
        totals = ingest.stats();
      }
      if (totals.lines_scored > totals.lines_submitted) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      cuts.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Producer p owns shard p, so each shard's lines stay in time order.
  std::atomic<std::uint64_t> accepted{0};
  const auto produce = [&](std::size_t p) {
    for (std::size_t i = 0; i < kLinesPerProducer; ++i) {
      if (i % 4 == 0) {
        ingest.submit_parsed(p, trace_log(p, i));
      } else if (!ingest.try_submit_parsed(p, trace_log(p, i))) {
        continue;
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back(produce, p);
  }
  for (std::thread& producer : producers) producer.join();
  ingest.flush();
  done.store(true, std::memory_order_release);
  reader.join();
  ingest.stop();

  EXPECT_EQ(violations.load(), 0u) << "of " << cuts.load() << " snapshots";
  EXPECT_GT(cuts.load(), 0u);
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  EXPECT_EQ(snap.totals.lines_submitted, accepted.load());
  EXPECT_EQ(snap.totals.lines_scored, accepted.load());
  EXPECT_EQ(snap.totals.rejected_submits,
            kProducers * kLinesPerProducer - accepted.load());
}

TEST(RuntimeStatsSnapshotTest, UninstrumentedRunKeepsCountersDropsLatency) {
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  config.instrument = false;
  AsyncIngest ingest(&detector, config);
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < 3; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
  }
  ingest.start();
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t v = 0; v < 3; ++v) ingest.submit_parsed(v, trace_log(v, i));
  }
  ingest.flush();
  ingest.stop();
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  EXPECT_EQ(snap.totals.lines_scored, 600u);
  for (const ShardStatsSnapshot& shard : snap.shards) {
    EXPECT_EQ(shard.lines, 200u);            // counters stay on
    EXPECT_EQ(shard.latency.total(), 0u);    // histograms gated off
  }
}

TEST(RuntimeStatsSnapshotTest, JsonDumpRoundTripsThroughTheParser) {
  StepDetector detector;
  AsyncIngestConfig config;
  config.workers = 2;
  AsyncIngest ingest(&detector, config);
  StreamMonitorConfig monitor;
  monitor.threshold = 10.0;
  monitor.window = 4;
  for (std::size_t v = 0; v < 3; ++v) {
    ingest.add_shard(static_cast<std::int32_t>(v), monitor);
  }
  ingest.start();
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t v = 0; v < 3; ++v) ingest.submit_parsed(v, trace_log(v, i));
  }
  ingest.flush();
  const std::string json = ingest.stats_json();
  ingest.stop();

  std::string error;
  const auto doc = nfv::util::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const nfv::util::JsonValue* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("lines_scored")->number, 900.0);
  const nfv::util::JsonValue* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items.size(), 3u);
  for (const nfv::util::JsonValue& shard : shards->items) {
    EXPECT_EQ(shard.find("lines")->number, 300.0);
    ASSERT_NE(shard.find("latency"), nullptr);
    EXPECT_EQ(shard.find("latency")->find("count")->number, 300.0);
  }
  const nfv::util::JsonValue* latency = doc->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->number, 900.0);
  EXPECT_GT(latency->find("buckets")->items.size(), 0u);
}

// Fleet-memory aggregates: the snapshot and its JSON dump must report
// the shared structures (arena, forest) exactly ONCE fleet-wide — never
// re-summed per shard — plus per-shard tree bytes and the combined
// bytes/vPE figure, in every sharing mode.
TEST(RuntimeStatsSnapshotTest, FleetMemoryAggregatesInSnapshotAndJson) {
  StepDetector detector;
  for (const bool shared : {true, false}) {
    AsyncIngestConfig config;
    config.workers = 2;
    config.share_token_arena = shared;
    config.share_template_forest = shared;
    AsyncIngest ingest(&detector, config);
    StreamMonitorConfig monitor;
    monitor.threshold = 10.0;
    monitor.window = 4;
    for (std::size_t v = 0; v < 3; ++v) {
      ingest.add_shard(static_cast<std::int32_t>(v), monitor);
    }
    ingest.start();
    // Raw lines (not pre-parsed) so the shard trees actually mine and
    // the token arena fills.
    for (std::size_t i = 0; i < 200; ++i) {
      for (std::size_t v = 0; v < 3; ++v) {
        ingest.submit(v, nfv::util::SimTime{static_cast<std::int64_t>(i)},
                      "daemon restarted peer 10.0." + std::to_string(v) +
                          "." + std::to_string(i % 7) + " session up");
      }
    }
    ingest.flush();
    const RuntimeStatsSnapshot snap = ingest.snapshot();
    const std::string json = ingest.stats_json();
    ingest.stop();

    EXPECT_EQ(snap.memory.shared_arena, shared);
    EXPECT_EQ(snap.memory.shards, 3u);
    std::uint64_t total = 0, max_tree = 0;
    for (const ShardStatsSnapshot& shard : snap.shards) {
      EXPECT_GT(shard.tree_bytes, 0u) << "shared=" << shared;
      total += shard.tree_bytes;
      max_tree = std::max(max_tree, shard.tree_bytes);
    }
    EXPECT_EQ(snap.memory.tree_bytes_total, total);
    EXPECT_EQ(snap.memory.tree_bytes_max, max_tree);
    if (shared) {
      ASSERT_NE(ingest.token_arena(), nullptr);
      EXPECT_GT(snap.memory.arena_tokens, 2u);
      EXPECT_GT(snap.memory.arena_bytes, 0u);
      ASSERT_NE(ingest.template_forest(), nullptr);
      EXPECT_TRUE(snap.memory.shared_forest);
      EXPECT_GT(snap.memory.forest_templates, 0u);
      EXPECT_GT(snap.memory.forest_bytes, 0u);
      // Counted once: the aggregates are the live structures' own byte
      // counters, independent of the shard count.
      EXPECT_EQ(snap.memory.arena_bytes, ingest.token_arena()->bytes());
      EXPECT_EQ(snap.memory.forest_bytes, ingest.template_forest()->bytes());
    } else {
      EXPECT_EQ(ingest.token_arena(), nullptr);
      EXPECT_EQ(snap.memory.arena_tokens, 0u);
      EXPECT_EQ(snap.memory.arena_bytes, 0u);
      EXPECT_EQ(ingest.template_forest(), nullptr);
      EXPECT_FALSE(snap.memory.shared_forest);
      EXPECT_EQ(snap.memory.forest_templates, 0u);
      EXPECT_EQ(snap.memory.forest_bytes, 0u);
    }
    // bytes/vPE amortizes each shared structure exactly once over the
    // fleet: (arena + forest + per-shard trees) / shards.
    EXPECT_NEAR(snap.memory.bytes_per_vpe,
                static_cast<double>(snap.memory.arena_bytes +
                                    snap.memory.forest_bytes + total) /
                    3.0,
                1.0);

    std::string error;
    const auto doc = nfv::util::json_parse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
    const nfv::util::JsonValue* memory = doc->find("memory");
    ASSERT_NE(memory, nullptr);
    EXPECT_EQ(memory->find("shared_arena")->boolean, shared);
    EXPECT_EQ(memory->find("shared_forest")->boolean, shared);
    EXPECT_EQ(memory->find("forest_bytes")->number,
              static_cast<double>(snap.memory.forest_bytes));
    EXPECT_EQ(memory->find("forest_templates")->number,
              static_cast<double>(snap.memory.forest_templates));
    EXPECT_EQ(memory->find("tree_bytes_total")->number,
              static_cast<double>(total));
    // Round trip: the parsed bytes_per_vpe reproduces the once-counted
    // aggregate formula bit-for-bit within JSON double precision.
    EXPECT_NEAR(memory->find("bytes_per_vpe")->number,
                snap.memory.bytes_per_vpe, 1e-6);
    const nfv::util::JsonValue* shards = doc->find("shards");
    ASSERT_NE(shards, nullptr);
    for (const nfv::util::JsonValue& shard : shards->items) {
      EXPECT_GT(shard.find("tree_bytes")->number, 0.0);
    }
  }
}

TEST(RuntimeStatsSnapshotTest, EmptySnapshotJsonRoundTripsWithFiniteFields) {
  // A default-constructed snapshot models a never-started / zero-shard
  // runtime: bytes_per_vpe must finalize to 0.0 (not NaN from 0/0) and
  // the JSON dump must parse cleanly with every field present.
  RuntimeStatsSnapshot empty;
  empty.memory.finalize_bytes_per_vpe();
  EXPECT_EQ(empty.memory.shards, 0u);
  EXPECT_EQ(empty.memory.bytes_per_vpe, 0.0);
  EXPECT_TRUE(std::isfinite(empty.memory.bytes_per_vpe));

  const std::string json = to_json(empty);
  std::string error;
  const auto doc = nfv::util::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const nfv::util::JsonValue* memory = doc->find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->find("bytes_per_vpe")->number, 0.0);
  const nfv::util::JsonValue* retrain = doc->find("retrain");
  ASSERT_NE(retrain, nullptr);
  EXPECT_FALSE(retrain->find("enabled")->boolean);
  EXPECT_EQ(retrain->find("samples_seen")->number, 0.0);
  EXPECT_EQ(retrain->find("swaps")->number, 0.0);
  EXPECT_EQ(retrain->find("train_seconds")->number, 0.0);
}

TEST(RuntimeStatsSnapshotTest, NonFiniteBytesPerVpeStillDumpsParseableJson) {
  // Belt and braces: even a hand-built snapshot carrying NaN/inf (the
  // old zero-shard division) must not poison the JSON document.
  for (const double poison : {std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    RuntimeStatsSnapshot snap;
    snap.memory.bytes_per_vpe = poison;
    std::string error;
    const auto doc = nfv::util::json_parse(to_json(snap), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("memory")->find("bytes_per_vpe")->number, 0.0);
  }
}

TEST(RuntimeStatsSnapshotTest, ConstructedButNeverStartedRuntimeSnapshots) {
  // An AsyncIngest that registered no shards and never started must
  // still produce a finite, parseable stats cut.
  LstmDetectorConfig config;
  config.window = 3;
  config.embed_dim = 4;
  config.hidden = 4;
  config.initial_epochs = 1;
  config.oversample = false;
  LstmDetector detector(config);
  std::vector<logproc::ParsedLog> stream;
  for (std::size_t i = 0; i < 60; ++i) {
    stream.push_back({nfv::util::SimTime{static_cast<std::int64_t>(i) * 30},
                      static_cast<std::int32_t>(i % 4)});
  }
  const std::vector<LogView> views{stream};
  detector.fit(views, 4);

  AsyncIngest ingest(&detector);
  const RuntimeStatsSnapshot snap = ingest.snapshot();
  EXPECT_EQ(snap.memory.shards, 0u);
  EXPECT_EQ(snap.memory.bytes_per_vpe, 0.0);
  EXPECT_TRUE(std::isfinite(snap.memory.bytes_per_vpe));
  std::string error;
  ASSERT_TRUE(nfv::util::json_parse(ingest.stats_json(), &error).has_value())
      << error;
}

}  // namespace
}  // namespace nfv::core
