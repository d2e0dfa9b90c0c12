// Scoring throughput: window-by-window vs fused cross-stream batching,
// with an optional int8-quantized tier of the batched regime.
//
// The paper's deployment budget (§5.1: "<1 hour" for model maintenance
// across 38 vPEs) is dominated by how fast trained models can score log
// windows. This benchmark measures windows/sec for the inference regimes
// over the same fleet of streams:
//   - window-by-window: one detector.score() call per (k+1)-log window,
//     the granularity of the immediate streaming monitor;
//   - batched: one detector.score_streams() call over all streams, which
//     packs every window into fused forward batches via the batch planner;
//   - batched+int8 (--quantize): the same fused path with the detector's
//     per-channel int8 sidecar installed, so every GEMM runs the packed
//     vpmaddubsw kernels of ml::matmul_quant.
// fp32 scores are bit-identical between the first two (see
// batch_invariance_test); the quantized tier trades exact score equality
// for the rank-agreement gate checked by `--smoke` below.
//
// Run with `--json FILE` to skip google-benchmark and emit a
// machine-readable summary, e.g. BENCH_scoring.json: for each model shape
// (hidden 128 / window 10, the inference-heavy sizing, and hidden 16 /
// window 4, the live fleet workloads' model) and 1 and 4 threads, the min
// and median wall time over the repeats of each regime, the windows/sec
// they give, and the core count. Add `--quantize` to include the int8 rows
// and the fp32-vs-int8 model weight bytes.
//
// The hidden 16 shape also gets a "live_flush" row: one AsyncIngest-sized
// flush of 64 single-window streams at 1 thread, score_streams against
// score_batched on prebuilt windows, per window.
//
// Run with `--smoke` for the CI gate: trains a small model on a
// *patterned* corpus (cyclic template sequence + 10% noise, so the
// predicted distributions are sharp, unlike the uniform-random throughput
// fixture), quantizes it, and checks
//   1. DeepLog top-k rank agreement fp32 vs int8 >= 99.5% of windows,
//   2. quantized scores are bit-identical between the AVX2 and serial
//      kernel tiers, and
//   3. quantized scores are bit-identical across thread counts.
// Exit code is non-zero if any gate fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/detector.h"
#include "core/lstm_detector.h"
#include "logproc/dataset.h"
#include "ml/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace nfv;

constexpr std::size_t kStreams = 12;
constexpr std::size_t kStreamLen = 600;
constexpr std::size_t kVocab = 64;

std::vector<logproc::ParsedLog> sample_logs(std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(count);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(60.0)) + 1;
    logs.push_back({util::SimTime{t},
                    static_cast<std::int32_t>(rng.uniform_index(kVocab))});
  }
  return logs;
}

struct Fixture {
  core::LstmDetector detector;
  /// Same trained weights with the int8 sidecar installed.
  core::LstmDetector quantized;
  std::vector<std::vector<logproc::ParsedLog>> streams;
  std::size_t window = 0;
  std::size_t total_windows = 0;
};

Fixture make_fixture(std::size_t hidden, std::size_t window) {
  Fixture fx;
  core::LstmDetectorConfig config;
  config.initial_epochs = 1;
  config.oversample = false;
  config.hidden = hidden;
  config.window = window;
  fx.detector = core::LstmDetector(config);
  fx.window = config.window;
  const auto train = sample_logs(2000, 2);
  const core::LogView view{train};
  fx.detector.fit({&view, 1}, kVocab);
  fx.quantized = fx.detector;
  fx.quantized.set_quantized(true);
  fx.streams.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    fx.streams.push_back(sample_logs(kStreamLen, 100 + s));
    fx.total_windows += kStreamLen - fx.window;
  }
  return fx;
}

const Fixture& fixture() {
  // Inference-heavy sizing: at the library default (hidden=32) the
  // forward pass is dominated by the fixed fp32 work every tier shares
  // (gate sigmoids/tanh, softmax, embedding gather), which hides what
  // this benchmark exists to compare — the GEMM regimes. hidden=128
  // makes the per-step GEMMs the dominant term, the regime a
  // production-scale model lives in.
  static const Fixture f = make_fixture(128, 10);
  return f;
}

// One detector.score() call per sliding (k+1)-log window — exactly what an
// immediate (unbatched) streaming monitor does per ingested line.
double run_window_by_window(const Fixture& f) {
  double sink = 0.0;
  for (const auto& stream : f.streams) {
    for (std::size_t i = f.window; i < stream.size(); ++i) {
      const core::LogView view{stream.data() + (i - f.window), f.window + 1};
      const std::vector<core::ScoredEvent> events =
          f.detector.score(view, kVocab);
      sink += events.back().score;
    }
  }
  return sink;
}

// One fused call over all streams (the batch planner packs every window).
double run_batched_with(const core::LstmDetector& detector, const Fixture& f) {
  std::vector<core::LogView> views(f.streams.begin(), f.streams.end());
  const std::vector<std::vector<core::ScoredEvent>> events =
      detector.score_streams(views, kVocab);
  double sink = 0.0;
  for (const auto& stream_events : events) {
    for (const core::ScoredEvent& event : stream_events) sink += event.score;
  }
  return sink;
}

double run_batched(const Fixture& f) { return run_batched_with(f.detector, f); }

double run_batched_quant(const Fixture& f) {
  return run_batched_with(f.quantized, f);
}

// One live flush: kFlushStreams single-window streams, the shape of an
// AsyncIngest micro-batch where every shard staged one line.
// score_streams builds the windows from the log views; score_batched
// reads windows prebuilt outside the timing, so the difference is
// score_streams' gather and scatter.
constexpr std::size_t kFlushStreams = 64;
constexpr std::size_t kFlushes = 2000;

struct FlushFixture {
  std::vector<core::LogView> views;
  std::vector<ml::SeqExample> examples;
  std::vector<const ml::SeqExample*> batch;
};

FlushFixture make_flush(const Fixture& f) {
  FlushFixture flush;
  for (std::size_t s = 0; s < kFlushStreams; ++s) {
    const auto& stream = f.streams[s % f.streams.size()];
    const std::size_t start = (s * 37) % (stream.size() - f.window);
    flush.views.push_back({stream.data() + start, f.window + 1});
    const auto ex = logproc::build_sequence_examples(flush.views.back(),
                                                     f.window, std::nullopt);
    flush.examples.push_back(ex.front());
  }
  for (const ml::SeqExample& ex : flush.examples) flush.batch.push_back(&ex);
  return flush;
}

double run_flush_streams(const Fixture& f, const FlushFixture& flush) {
  double sink = 0.0;
  for (std::size_t i = 0; i < kFlushes; ++i) {
    const auto events = f.detector.score_streams(flush.views, kVocab);
    sink += events.back().back().score;
  }
  return sink;
}

double run_flush_batched(const Fixture& f, const FlushFixture& flush) {
  double sink = 0.0;
  std::vector<double> out(flush.batch.size());
  for (std::size_t i = 0; i < kFlushes; ++i) {
    ml::SequenceModel::InferenceScratch scratch;  // per call, as score_streams
    f.detector.model().score_batched(flush.batch,
                                     f.detector.config().score_batch,
                                     scratch, out);
    sink += out.back();
  }
  return sink;
}

void BM_ScoreWindowByWindow(benchmark::State& state) {
  const Fixture& f = fixture();
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_window_by_window(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
  util::set_global_threads(0);
}
BENCHMARK(BM_ScoreWindowByWindow)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ScoreBatchedCrossStream(benchmark::State& state) {
  const Fixture& f = fixture();
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batched(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
  util::set_global_threads(0);
}
BENCHMARK(BM_ScoreBatchedCrossStream)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ScoreBatchedQuantized(benchmark::State& state) {
  const Fixture& f = fixture();
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batched_quant(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.total_windows));
  util::set_global_threads(0);
}
BENCHMARK(BM_ScoreBatchedQuantized)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --json mode: interleaved repeats of wall-clock timing, summarized by
// the min (least disturbed by neighbouring processes) and the median.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  volatile double sink = fn();
  (void)sink;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct Timing {
  double min_s = 0.0;
  double median_s = 0.0;
};

Timing summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  const std::size_t n = seconds.size();
  const double median = n % 2 == 1
                            ? seconds[n / 2]
                            : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
  return {seconds.front(), median};
}

void write_regime(nfv::util::JsonWriter& w, const char* name,
                  const Timing& t, double windows) {
  w.key(name)
      .begin_object()
      .kv("min_s", t.min_s)
      .kv("median_s", t.median_s)
      .kv("windows_per_sec", windows / t.min_s)
      .kv("windows_per_sec_median", windows / t.median_s)
      .end_object();
}

// One live flush, 1 thread: score_streams against score_batched.
void write_live_flush(nfv::util::JsonWriter& w, const Fixture& f,
                      std::size_t repeats) {
  util::set_global_threads(1);
  const FlushFixture flush = make_flush(f);
  run_flush_streams(f, flush);
  run_flush_batched(f, flush);
  std::vector<double> streams_s, batched_s;
  for (std::size_t r = 0; r < repeats; ++r) {
    streams_s.push_back(
        timed_seconds([&] { return run_flush_streams(f, flush); }));
    batched_s.push_back(
        timed_seconds([&] { return run_flush_batched(f, flush); }));
  }
  util::set_global_threads(0);
  const double flush_windows = static_cast<double>(kFlushes * kFlushStreams);
  const Timing streams_t = summarize(streams_s);
  const Timing batched_t = summarize(batched_s);
  const double us = 1e6 / flush_windows;
  w.key("live_flush")
      .begin_object()
      .kv("nproc", std::max(1u, std::thread::hardware_concurrency()))
      .kv("threads", 1)
      .kv("repeats", repeats)
      .kv("streams", kFlushStreams)
      .kv("flushes", kFlushes)
      .kv("score_streams_us_per_window_min", streams_t.min_s * us)
      .kv("score_streams_us_per_window_median", streams_t.median_s * us)
      .kv("score_batched_us_per_window_min", batched_t.min_s * us)
      .kv("score_batched_us_per_window_median", batched_t.median_s * us)
      .kv("overhead_us_per_window_min",
          (streams_t.min_s - batched_t.min_s) * us)
      .end_object();
  std::cerr << "hidden=" << f.detector.config().hidden
            << " live flush: score_streams " << streams_t.min_s * us
            << " us/window, score_batched " << batched_t.min_s * us
            << " us/window\n";
}

void write_shape(nfv::util::JsonWriter& w, const Fixture& f, bool quantize,
                 std::size_t repeats, bool live_flush) {
  const double windows = static_cast<double>(f.total_windows);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  w.begin_object();
  w.kv("hidden", f.detector.config().hidden);
  w.kv("window", f.window);
  w.kv("total_windows", f.total_windows);
  if (quantize) {
    const core::ModelMemoryStats fp32_mem = f.detector.model_memory();
    const core::ModelMemoryStats quant_mem = f.quantized.model_memory();
    w.key("model").begin_object();
    w.kv("weight_bytes_fp32", fp32_mem.weight_bytes_fp32);
    w.kv("weight_bytes_quantized", quant_mem.weight_bytes_quantized);
    w.kv("weight_bytes_ratio",
         static_cast<double>(fp32_mem.weight_bytes_fp32) /
             static_cast<double>(quant_mem.weight_bytes_quantized));
    w.end_object();
  }
  w.key("results").begin_array();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::set_global_threads(threads);
    run_window_by_window(f);  // warm-up (also stabilizes scratch shapes)
    run_batched(f);
    if (quantize) run_batched_quant(f);
    // Alternate the regimes so a burst of external CPU load cannot
    // penalize only one of them.
    std::vector<double> wbw_s, batched_s, quant_s;
    for (std::size_t r = 0; r < repeats; ++r) {
      wbw_s.push_back(timed_seconds([&] { return run_window_by_window(f); }));
      batched_s.push_back(timed_seconds([&] { return run_batched(f); }));
      if (quantize) {
        quant_s.push_back(timed_seconds([&] { return run_batched_quant(f); }));
      }
    }
    const Timing wbw = summarize(wbw_s);
    const Timing batched = summarize(batched_s);
    w.begin_object()
        .kv("nproc", nproc)
        .kv("threads", threads)
        .kv("repeats", repeats);
    write_regime(w, "window_by_window", wbw, windows);
    write_regime(w, "batched", batched, windows);
    w.kv("speedup", wbw.min_s / batched.min_s);
    std::cerr << "hidden=" << f.detector.config().hidden
              << " window=" << f.window << " threads=" << threads
              << " window-by-window=" << windows / wbw.min_s
              << " windows/s, batched=" << windows / batched.min_s
              << " windows/s (speedup " << wbw.min_s / batched.min_s << "x)";
    if (quantize) {
      const Timing quant = summarize(quant_s);
      write_regime(w, "quantized_batched", quant, windows);
      w.kv("quantized_speedup_vs_fp32_batched", batched.min_s / quant.min_s);
      std::cerr << ", batched+int8=" << windows / quant.min_s
                << " windows/s (" << batched.min_s / quant.min_s
                << "x over fp32 batched)";
    }
    std::cerr << "\n";
    w.end_object();
  }
  util::set_global_threads(0);
  w.end_array();
  if (live_flush) write_live_flush(w, f, repeats);
  w.end_object();
}

int run_json_mode(const std::string& path, bool quantize) {
  constexpr std::size_t kRepeats = 7;
  nfv::util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "scoring_throughput");
  w.kv("streams", kStreams);
  w.kv("stream_length", kStreamLen);
  w.kv("score_batch", fixture().detector.config().score_batch);
  w.kv("simd_kernels", ml::simd_kernels_enabled());
  w.key("shapes").begin_array();
  write_shape(w, fixture(), quantize, kRepeats, /*live_flush=*/false);
  write_shape(w, make_fixture(16, 4), quantize, kRepeats, /*live_flush=*/true);
  w.end_array();
  w.end_object();
  return bench::write_json_file(path, w) ? 0 : 1;
}

// --smoke: the int8 correctness gate (see file comment). Uses a patterned
// corpus — a cyclic template walk with 10% uniform noise — because rank
// agreement is only a meaningful gate when the model has sharp predictions
// to rank; the uniform-random throughput fixture trains to a nearly flat
// distribution whose ranks are tie-break noise.
std::vector<logproc::ParsedLog> patterned_logs(std::size_t count,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(count);
  std::int64_t t = 0;
  std::int32_t prev = static_cast<std::int32_t>(rng.uniform_index(kVocab));
  for (std::size_t i = 0; i < count; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(60.0)) + 1;
    const std::int32_t id =
        rng.uniform_index(10) == 0
            ? static_cast<std::int32_t>(rng.uniform_index(kVocab))
            : (prev + 1) % static_cast<std::int32_t>(kVocab);
    logs.push_back({util::SimTime{t}, id});
    prev = id;
  }
  return logs;
}

std::vector<std::vector<double>> score_all(
    const core::LstmDetector& detector,
    const std::vector<std::vector<logproc::ParsedLog>>& streams) {
  std::vector<core::LogView> views(streams.begin(), streams.end());
  const auto events = detector.score_streams(views, kVocab);
  std::vector<std::vector<double>> scores;
  scores.reserve(events.size());
  for (const auto& stream_events : events) {
    std::vector<double> row;
    row.reserve(stream_events.size());
    for (const core::ScoredEvent& event : stream_events) {
      row.push_back(event.score);
    }
    scores.push_back(std::move(row));
  }
  return scores;
}

int run_smoke_mode() {
  util::set_global_threads(1);
  core::LstmDetectorConfig config;
  config.initial_epochs = 3;
  config.oversample = false;
  config.score_mode = core::LstmScoreMode::kTargetRank;
  core::LstmDetector detector(config);
  const auto train = patterned_logs(4000, 11);
  const core::LogView view{train};
  detector.fit({&view, 1}, kVocab);

  core::LstmDetector quantized = detector;
  quantized.set_quantized(true);

  std::vector<std::vector<logproc::ParsedLog>> streams;
  for (std::size_t s = 0; s < 6; ++s) {
    streams.push_back(patterned_logs(400, 500 + s));
  }

  // Gate 1: DeepLog top-k agreement, window for window. The anomaly rule
  // thresholds the rank at k (anomalous iff the observed template is not
  // among the k most likely continuations), so the quantity that must
  // survive quantization is that decision — exact ranks deep in the flat
  // tail of the distribution (the noise windows) are tie-break order
  // among near-equal probabilities and are reported informationally.
  constexpr double kTopK = 9.0;
  const auto fp32_ranks = score_all(detector, streams);
  const auto quant_ranks = score_all(quantized, streams);
  std::size_t total = 0, decision_agree = 0, exact_agree = 0;
  for (std::size_t s = 0; s < fp32_ranks.size(); ++s) {
    for (std::size_t i = 0; i < fp32_ranks[s].size(); ++i) {
      ++total;
      if (fp32_ranks[s][i] == quant_ranks[s][i]) ++exact_agree;
      if ((fp32_ranks[s][i] <= kTopK) == (quant_ranks[s][i] <= kTopK)) {
        ++decision_agree;
      }
    }
  }
  const double agreement =
      total == 0 ? 0.0
                 : static_cast<double>(decision_agree) /
                       static_cast<double>(total);
  std::cerr << "smoke: top-k (k=" << kTopK
            << ") decision agreement fp32 vs int8 = " << decision_agree << "/"
            << total << " = " << agreement * 100.0 << "% (exact ranks: "
            << exact_agree << "/" << total << ")\n";
  bool ok = true;
  if (total == 0 || agreement < 0.995) {
    std::cerr << "smoke: FAIL top-k agreement below 99.5%\n";
    ok = false;
  }

  // Gate 2: quantized scores bit-identical AVX2 vs serial kernels.
  ml::set_simd_kernels_enabled(false);
  const auto serial_ranks = score_all(quantized, streams);
  ml::set_simd_kernels_enabled(true);
  if (serial_ranks != quant_ranks) {
    std::cerr << "smoke: FAIL int8 AVX2 vs serial scores differ\n";
    ok = false;
  } else {
    std::cerr << "smoke: int8 AVX2 == serial (bit-identical)\n";
  }

  // Gate 3: quantized scores bit-identical across thread counts.
  util::set_global_threads(4);
  const auto mt_ranks = score_all(quantized, streams);
  util::set_global_threads(0);
  if (mt_ranks != quant_ranks) {
    std::cerr << "smoke: FAIL int8 scores differ between 1 and 4 threads\n";
    ok = false;
  } else {
    std::cerr << "smoke: int8 threads=1 == threads=4 (bit-identical)\n";
  }

  std::cerr << (ok ? "smoke: PASS\n" : "smoke: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quantize = false;
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quantize") == 0) {
      quantize = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-avx2") == 0) {
      // Same escape hatch as the NFVPRED_NO_AVX2 environment variable:
      // score through the reference kernels instead of the AVX2 clones.
      ml::set_simd_kernels_enabled(false);
    }
  }
  if (smoke) return run_smoke_mode();
  if (!json_path.empty()) return run_json_mode(json_path, quantize);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
