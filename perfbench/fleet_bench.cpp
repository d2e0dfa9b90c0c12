// Fleet-monitor benchmark driver.
//
//   fleet_bench --workload {fleet-10k|shift-64|offline-18mo} --seed N
//               --seconds S --trace {0|1} [--short] [--out-dir DIR]
//
// Every workload runs a live leg through the deployed path (raw syslog
// line -> shard tree / shared forest -> StreamMonitorGroup staging ->
// LSTM score_streams -> cluster rule -> AsyncIngest warning drain) and a
// batch leg, checks every warning against its oracle, and prints one
// metadata row and, as its last stdout line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run (spans written under --out-dir).
// A run whose measurement is not valid (generator late, polling too
// coarsely or without headroom) prints no result and exits 3.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parsed_fleet.h"
#include "core/pipeline.h"
#include "logproc/tokenizer.h"
#include "passes.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fleet_bench: " << error << "\n"
            << "usage: fleet_bench --workload {fleet-10k|shift-64|"
               "offline-18mo} --seed N --seconds S --trace {0|1} [--short] "
               "[--out-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage(std::string("bad value for ") + flag + ": '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint("--seconds", value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint("--trace", value);
      if (t > 1) usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return args;
}

Kind parse_kind(const std::string& name) {
  if (name == "fleet-10k") return Kind::kFleet10k;
  if (name == "shift-64") return Kind::kShift64;
  if (name == "offline-18mo") return Kind::kOffline18mo;
  usage("unknown workload '" + name + "'");
}

std::size_t trace_bytes(const nfv::simnet::FleetTrace& trace) {
  std::size_t bytes = 0;
  for (const auto& logs : trace.logs_by_vpe) {
    bytes += logs.capacity() * sizeof(nfv::simnet::RawLogRecord);
    for (const auto& record : logs) {
      if (record.text.capacity() > 15) bytes += record.text.capacity() + 1;
    }
  }
  return bytes;
}

/// The fields of a PipelineResult the offline oracles compare: per month,
/// the group thresholds, the aggregate, and a summary of the model's
/// scores.
struct PipelineDigest {
  std::vector<std::vector<double>> monthly;
  std::vector<double> thresholds;
  std::vector<double> aggregate;
  std::vector<double> scores;
};

std::vector<double> prf_fields(const nfv::core::PrfMetrics& prf) {
  return {prf.precision,
          prf.recall,
          prf.f_measure,
          static_cast<double>(prf.true_anomalies),
          static_cast<double>(prf.false_alarms),
          static_cast<double>(prf.tickets_total),
          static_cast<double>(prf.tickets_detected)};
}

PipelineDigest digest(const nfv::core::PipelineResult& r,
                      double unknown_score) {
  PipelineDigest d;
  for (const auto& m : r.monthly) {
    std::vector<double> row = prf_fields(m.prf);
    row.push_back(m.month);
    row.push_back(m.false_alarms_per_day);
    row.push_back(static_cast<double>(m.anomaly_clusters));
    d.monthly.push_back(std::move(row));
  }
  d.thresholds = r.group_thresholds;
  d.aggregate = prf_fields(r.aggregate);
  d.aggregate.push_back(r.false_alarms_per_day);
  d.aggregate.push_back(r.eval_days);
  d.aggregate.push_back(static_cast<double>(r.mapping.anomalies.size()));
  d.aggregate.push_back(static_cast<double>(r.detections.size()));
  // Windows that hold an unknown template all score the constant
  // unknown_score; the others are the model's output: their count, mean
  // and two quantiles.
  std::size_t events = 0;
  std::vector<double> known;
  for (const auto& stream : r.streams) {
    events += stream.events.size();
    for (const auto& e : stream.events) {
      if (e.score != unknown_score) known.push_back(e.score);
    }
  }
  const double count = static_cast<double>(known.size());
  const double mean =
      known.empty() ? 0.0
                    : std::accumulate(known.begin(), known.end(), 0.0) / count;
  const Summary q = summarize(std::move(known));
  d.scores = {static_cast<double>(events), count, mean, q.p50, q.p99};
  return d;
}

void write_numbers(nfv::util::JsonWriter& j, const std::vector<double>& xs) {
  j.begin_array();
  for (const double x : xs) j.value(x);
  j.end_array();
}

void write_digest(nfv::util::JsonWriter& j, const PipelineDigest& d) {
  j.begin_object();
  j.key("monthly").begin_array();
  for (const auto& row : d.monthly) write_numbers(j, row);
  j.end_array();
  j.key("thresholds");
  write_numbers(j, d.thresholds);
  j.key("aggregate");
  write_numbers(j, d.aggregate);
  j.key("scores");
  write_numbers(j, d.scores);
  j.end_object();
}

std::vector<double> read_numbers(const nfv::util::JsonValue* v) {
  std::vector<double> out;
  if (v == nullptr) return out;
  for (const auto& item : v->items) out.push_back(item.number);
  return out;
}

std::optional<PipelineDigest> read_digest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = nfv::util::json_parse(text);
  if (!doc || doc->find("monthly") == nullptr) return std::nullopt;
  PipelineDigest d;
  for (const auto& row : doc->find("monthly")->items) {
    d.monthly.push_back(read_numbers(&row));
  }
  d.thresholds = read_numbers(doc->find("thresholds"));
  d.aggregate = read_numbers(doc->find("aggregate"));
  d.scores = read_numbers(doc->find("scores"));
  return d;
}

/// Offline oracle: one op per month, per group threshold, for the
/// aggregate and for the score summary. Two values agree when they are
/// within `rel_tol` of the larger magnitude (0: bit-identical).
std::pair<std::uint64_t, std::uint64_t> compare_digests(
    const PipelineDigest& got, const PipelineDigest& ref, double rel_tol) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto close = [rel_tol](double a, double b) {
    return a == b ||
           std::abs(a - b) <= rel_tol * std::max(std::abs(a), std::abs(b));
  };
  const auto compare = [&](const std::vector<double>* a,
                           const std::vector<double>* b) {
    ++attempted;
    bool same = a != nullptr && b != nullptr && a->size() == b->size();
    for (std::size_t k = 0; same && k < a->size(); ++k) {
      same = close((*a)[k], (*b)[k]);
    }
    if (!same) ++failed;
  };
  const auto at = [](const auto& xs, std::size_t k) {
    return k < xs.size() ? &xs[k] : nullptr;
  };
  for (std::size_t k = 0; k < std::max(got.monthly.size(), ref.monthly.size());
       ++k) {
    compare(at(got.monthly, k), at(ref.monthly, k));
  }
  for (std::size_t g = 0;
       g < std::max(got.thresholds.size(), ref.thresholds.size()); ++g) {
    const double* a = at(got.thresholds, g);
    const double* b = at(ref.thresholds, g);
    ++attempted;
    if (a == nullptr || b == nullptr || !close(*a, *b)) ++failed;
  }
  compare(&got.aggregate, &ref.aggregate);
  compare(&got.scores, &ref.scores);
  return {attempted, failed};
}

void write_summary(nfv::util::JsonWriter& j, const char* key,
                   const Summary& s) {
  j.key(key).begin_object();
  j.kv("p50", s.p50);
  j.kv("top_q", s.top_q);
  j.kv("top", s.top);
  j.kv("samples", s.n);
  j.end_object();
}

double quarter_median(const std::vector<double>& xs, bool last) {
  if (xs.size() < 4) return xs.empty() ? 0.0 : (last ? xs.back() : xs.front());
  const std::size_t q = xs.size() / 4;
  return last ? median(std::vector<double>(xs.end() - q, xs.end()))
              : median(std::vector<double>(xs.begin(), xs.begin() + q));
}

/// JsonWriter indents; the output protocol is one object per line. No
/// key or string value here contains a newline.
std::string one_line(const std::string& json) {
  std::string out;
  bool skip = false;
  for (const char c : json) {
    if (c == '\n') {
      skip = true;
      continue;
    }
    if (skip && c == ' ') continue;
    skip = false;
    out.push_back(c);
  }
  return out;
}

// Set-up runs at least this often, and until this much set-up time has
// accumulated, so that the median of a short set-up is not one moment's.
constexpr std::size_t kMinSetups = 6;
constexpr double kMinSetupSeconds = 3.0;
constexpr std::size_t kMinRepeats = 2;

// Service target for warning latency. Every warning of an overloaded
// open-loop pass (input backlog grew through it) counts as missing it.
constexpr double kWarnTargetMs = 100.0;
// warn_p99_ms is the median, over consecutive windows of this many
// warnings (in due order, per pass), of each window's p99: a host stall on
// a worker's core then moves the windows it falls in, not the figure.
// 500 warnings leave 5 beyond a window's p99; windows this short keep the
// share of windows a host stall touches well below half.
constexpr std::size_t kWindowWarnings = 500;

// Open-loop passes discarded as invalid before the run itself is.
constexpr std::size_t kMaxDiscards = 5;

// The offline batch leg's input is the same on every run, so its digest is
// also compared with one committed under golden/. Counts and PRF must
// match; real values may move by this share, as when a kernel changes its
// summation order. A change that moves them further on purpose rewrites
// the golden file (README.md says how).
constexpr double kGoldenRelTol = 1e-4;

/// Validity of one open-loop pass, judged on causes outside the program:
/// the generator kept its schedule and polled the warning queue finely
/// enough relative to the warning latency it measured (both net of time the
/// runtime held it inside a call).
std::vector<std::string> open_loop_invalid(double warn_p50_ms,
                                           double late_p99_ms,
                                           double poll_p99_ms,
                                           std::size_t samples) {
  std::vector<std::string> reasons;
  if (samples == 0) reasons.push_back("no warning-latency samples");
  if (late_p99_ms > warn_p50_ms / 2.0) reasons.push_back("generator late");
  if (poll_p99_ms > warn_p50_ms / 10.0) {
    reasons.push_back("drain polling too coarse");
  }
  return reasons;
}

/// p99 of each consecutive window of kWindowWarnings latencies; the last
/// window takes the remainder when it is short.
std::vector<double> window_p99s(const std::vector<double>& ms) {
  std::vector<double> out;
  for (std::size_t b = 0; b < ms.size(); b += kWindowWarnings) {
    const std::size_t e =
        ms.size() - b < 2 * kWindowWarnings ? ms.size() : b + kWindowWarnings;
    out.push_back(summarize(std::vector<double>(
                                ms.begin() + static_cast<std::ptrdiff_t>(b),
                                ms.begin() + static_cast<std::ptrdiff_t>(e)))
                      .p99);
    if (e == ms.size()) break;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  const Kind kind = parse_kind(args.workload);
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::cerr << "[perfbench] generating " << args.workload << " seed "
            << args.seed << (args.short_mode ? " (short)" : "") << "\n";
  Workload w = make_workload(kind, args.seed, args.short_mode);
  const LiveInput& in = w.input;
  Tracer tracer(args.trace);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Generator alone: the per-line work of the sending loop (one line copy)
  // with nothing submitted.
  double gen_max_lines_per_s = 0.0;
  {
    std::size_t sink = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < in.size(); ++i) {
      std::string line(in.line(i));
      sink += line.size();
    }
    gen_max_lines_per_s = static_cast<double>(in.size()) / seconds_since(start);
    if (sink == 0) std::cerr << "[perfbench] empty input\n";
  }

  // References, computed before and outside every timed region.
  const Models models = train_models(w);
  const std::vector<nfv::core::StreamWarning> replay =
      serial_replay(w, models);
  std::vector<Expected> expected = w.expected;
  if (kind == Kind::kOffline18mo) {
    const DecompositionResult ref = run_decomposition(
        w, models, runtime_config(1).flush_batch, false, true, tracer);
    expected = expected_from_reference(w, models, ref);
  }

  CheckResult totals;
  const auto check = [&](const std::vector<nfv::core::StreamWarning>& got,
                         std::uint64_t rejected) {
    CheckResult c = check_warnings(w, expected, replay, got);
    totals.missing += c.missing;
    totals.extra += c.extra;
    totals.differing += c.differing;
    totals.replay_mismatch += c.replay_mismatch;
    attempted += c.attempted + in.size();
    failed += c.failed + rejected;
    return c;
  };
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  const auto track_setup = [&](const System& sys) {
    setup_s.push_back(sys.setup_s);
    fit_s.push_back(sys.models.fit_s);
    ++attempted;
    if (sys.models.threshold != models.threshold) {
      ++failed;
      std::cerr << "[perfbench] set-up is not deterministic (threshold)\n";
    }
  };
  // Each pass gets a fresh set-up (a stream is ingested once per runtime);
  // freed memory is returned to the OS between passes so every pass's
  // resident-set peak is its own.
  const auto finish_pass = [](System& sys) {
    sys.ingest.reset();
    malloc_trim(0);
  };

  // Timed passes: repeats of (saturation, open loop), at least
  // kMinRepeats and until --seconds of passes have run; a traced run makes
  // one repeat.
  std::vector<double> sat_rates;
  std::vector<double> window_rates;
  std::vector<double> peak_rss;
  SaturationResult first_sat;
  std::vector<double> warn_ms;
  std::vector<double> late_p99;
  nfv::core::HistogramSnapshot poll_gaps;
  std::vector<double> queue_depth;
  double open_swap_ms = 0.0;
  double scored_p99_ms = 0.0;
  std::vector<std::string> invalid;    // validity verdicts of kept passes
  std::vector<std::string> discarded;  // reason per discarded pass
  std::vector<double> backlog_growth;  // last - first quarter, lines
  std::size_t overloaded_passes = 0;
  std::vector<double> window_p99;  // every window of every kept pass
  // An overloaded pass's warnings are recorded at least this late.
  const double over_target = std::nextafter(kWarnTargetMs, 2 * kWarnTargetMs);
  std::uint64_t stalls = 0;
  double pass_s = 0.0;
  for (std::size_t rep = 0; pass_s < args.seconds || rep < kMinRepeats;
       ++rep) {
    {
      System sys = set_up(w, kLiveWorkers);
      track_setup(sys);
      SaturationResult sat = run_saturation(w, sys, args.trace, tracer);
      finish_pass(sys);
      check(sat.warnings, sat.snapshot.totals.rejected_submits);
      sat_rates.push_back(sat.lines_per_s);
      window_rates.insert(window_rates.end(), sat.window_lines_per_s.begin(),
                          sat.window_lines_per_s.end());
      peak_rss.push_back(sat.peak_rss);
      pass_s += sat.wall_s;
      sat.warnings.clear();
      if (rep == 0) first_sat = std::move(sat);
    }
    {
      // A pass in which the generator could not keep its schedule or
      // polled too coarsely measured the host, not the system: it is
      // discarded (its warnings are still checked) and run again, at most
      // kMaxDiscards times per run. A pass whose input backlog grew is the
      // system's own overload: it is kept, and all its warnings count as
      // missing the target.
      for (;;) {
        System sys = set_up(w, kLiveWorkers);
        track_setup(sys);
        OpenLoopResult o = run_open_loop(w, sys, args.trace, tracer);
        finish_pass(sys);
        pass_s += o.wall_s;
        const CheckResult c = check(o.warnings, 0);
        const double first = quarter_median(o.backlog, false);
        const double last = quarter_median(o.backlog, true);
        const bool overloaded = last > std::max(2.0 * first, 2048.0);
        // (due time, latency) of every timed warning, in due order.
        std::vector<std::pair<double, double>> timed;
        for (std::size_t j = 0; j < o.warnings.size(); ++j) {
          if (c.completer[j] == kNoCompleter) continue;
          const double due = static_cast<double>(o.start_ns) +
                             static_cast<double>(c.completer[j]) * o.period_ns;
          const double ms = (static_cast<double>(o.drained_ns[j]) - due) * 1e-6;
          timed.emplace_back(due, overloaded ? std::max(ms, over_target) : ms);
        }
        std::sort(timed.begin(), timed.end());
        std::vector<double> pass_warn_ms;
        for (const auto& [due, ms] : timed) pass_warn_ms.push_back(ms);
        const Summary pass_warn = summarize(pass_warn_ms);
        const double pass_late_p99 = summarize(std::move(o.late_ms)).p99;
        const std::vector<std::string> reasons =
            open_loop_invalid(pass_warn.p50, pass_late_p99,
                              o.poll_gaps.p99() * 1e-6, pass_warn.n);
        if (!reasons.empty() && discarded.size() < kMaxDiscards &&
            !args.short_mode) {
          for (const std::string& reason : reasons) {
            std::cerr << "[perfbench] discarding open-loop pass: " << reason
                      << "\n";
          }
          discarded.push_back(reasons.front() + " (late p99 " +
                              std::to_string(pass_late_p99) +
                              " ms, warn p50 " +
                              std::to_string(pass_warn.p50) + " ms)");
          continue;
        }
        invalid.insert(invalid.end(), reasons.begin(), reasons.end());
        if (overloaded) {
          ++overloaded_passes;
          std::cerr << "[perfbench] open-loop pass overloaded: backlog "
                    << first << " -> " << last << " lines\n";
        }
        warn_ms.insert(warn_ms.end(), pass_warn_ms.begin(),
                       pass_warn_ms.end());
        const std::vector<double> windows = window_p99s(pass_warn_ms);
        window_p99.insert(window_p99.end(), windows.begin(), windows.end());
        late_p99.push_back(pass_late_p99);
        poll_gaps.merge(o.poll_gaps);
        queue_depth.insert(queue_depth.end(), o.queue_depth.begin(),
                           o.queue_depth.end());
        peak_rss.push_back(o.peak_rss);
        backlog_growth.push_back(last - first);
        stalls += o.stalls;
        if (rep == 0) {
          open_swap_ms = o.swap_ms;
          scored_p99_ms = o.scored_p99_ms;
        }
        break;
      }
    }
    std::cerr << "[perfbench] repeat " << rep + 1 << ": "
              << sat_rates.back() << " lines/s saturated, setup "
              << setup_s.back() << " s\n";
    if (args.trace) break;
  }
  // Set-up alone, until its median rests on enough samples.
  while (setup_s.size() < kMinSetups ||
         std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
             kMinSetupSeconds) {
    System sys = set_up(w, kLiveWorkers);
    track_setup(sys);
    finish_pass(sys);
  }

  // Batch leg of offline-18mo: parse_fleet + run_pipeline at nproc threads,
  // then the one-thread reference (outside the timed region).
  double parse_fleet_s = 0.0;
  double run_pipeline_s = 0.0;
  PipelineDigest batch_digest;
  if (kind == Kind::kOffline18mo) {
    nfv::core::PipelineResult eval;
    nfv::core::ParsedFleet parsed;
    {
      RssSampler rss;
      const std::int32_t span = tracer.open("offline.eval");
      std::uint64_t t = now_ns();
      parsed = nfv::core::parse_fleet(w.trace);
      parse_fleet_s = seconds_since(t);
      t = now_ns();
      eval = nfv::core::run_pipeline(w.trace, parsed, w.pipeline);
      run_pipeline_s = seconds_since(t);
      tracer.close(span);
      peak_rss.push_back(rss.stop());
    }
    std::cerr << "[perfbench] offline eval " << parse_fleet_s + run_pipeline_s
              << " s\n";
    // References: a threads = 1 run on the same input must match exactly,
    // and the committed golden digest within kGoldenRelTol.
    const double unknown_score =
        w.pipeline.lstm_config ? w.pipeline.lstm_config->unknown_score
                               : nfv::core::LstmDetectorConfig{}.unknown_score;
    batch_digest = digest(eval, unknown_score);
    nfv::core::PipelineOptions serial = w.pipeline;
    serial.threads = 1;
    const PipelineDigest ref =
        digest(nfv::core::run_pipeline(w.trace, parsed, serial), unknown_score);
    const auto tally = [&](std::pair<std::uint64_t, std::uint64_t> result,
                           const std::string& reference) {
      attempted += result.first;
      failed += result.second;
      if (result.second != 0) {
        std::cerr << "[perfbench] pipeline differs from " << reference << "\n";
      }
    };
    tally(compare_digests(batch_digest, ref, 0.0), "threads=1");
    const std::string golden_path = std::string(PERFBENCH_GOLDEN_DIR) +
                                    "/offline-18mo" +
                                    (args.short_mode ? "-short" : "") + ".json";
    const std::optional<PipelineDigest> golden = read_digest(golden_path);
    tally(golden ? compare_digests(batch_digest, *golden, kGoldenRelTol)
                 : std::pair<std::uint64_t, std::uint64_t>{1, 1},
          golden_path);
  }
  // The generator's buffers: the rendered lines and the per-line lateness
  // record of an open-loop pass.
  std::size_t generator_bytes = in.buffer_bytes() + in.size() * sizeof(double);
  if (kind == Kind::kOffline18mo) generator_bytes += trace_bytes(w.trace);
  const double peak_rss_mb =
      (*std::max_element(peak_rss.begin(), peak_rss.end()) -
       static_cast<double>(generator_bytes)) /
      (1024.0 * 1024.0);

  // Traced-run extras: the tokenizer alone, the one-thread decomposition
  // pass (untraced, then traced) and a 1-worker saturation pass.
  double tokenize_ns_per_line = 0.0;
  DecompositionResult decomp;
  double decomp_untraced_s = 0.0;
  double sat1_wall_s = 0.0;
  double sat1_lines_per_s = 0.0;
  if (args.trace) {
    std::vector<std::string_view> tokens;
    std::vector<unsigned char> variable;
    std::size_t count = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < in.size(); ++i) {
      nfv::logproc::tokenize_spans(in.line(i), tokens, variable);
      count += tokens.size();
    }
    tokenize_ns_per_line = static_cast<double>(now_ns() - start) /
                           static_cast<double>(in.size());
    if (count == 0) std::cerr << "[perfbench] no tokens\n";

    const std::size_t flush_batch = runtime_config(1).flush_batch;
    decomp_untraced_s =
        run_decomposition(w, models, flush_batch, false, false, tracer).wall_s;
    decomp = run_decomposition(w, models, flush_batch, true, false, tracer);
    check(decomp.warnings, 0);

    System sys = set_up(w, 1);
    track_setup(sys);
    SaturationResult sat1 = run_saturation(w, sys, false, tracer);
    finish_pass(sys);
    check(sat1.warnings, sat1.snapshot.totals.rejected_submits);
    sat1_wall_s = sat1.wall_s;
    sat1_lines_per_s = median(sat1.window_lines_per_s.empty()
                                  ? std::vector<double>{sat1.lines_per_s}
                                  : sat1.window_lines_per_s);
  }
  const bool correct = failed == 0;

  // Warning latency over every kept open-loop pass: the pooled median, and
  // the median of the windows' p99 (pooled percentiles go to the metadata
  // row). One overloaded pass makes the run miss the target: both figures
  // are then at least over_target.
  const Summary warn = summarize(warn_ms);
  const double floor_ms = overloaded_passes > 0 ? over_target : 0.0;
  const double warn_p50_ms = std::max(warn.p50, floor_ms);
  const double warn_p99_ms = std::max(median(window_p99), floor_ms);
  const double poll_p99_ms = poll_gaps.p99() * 1e-6;
  const Summary setup = summarize(setup_s);
  const double gen_late_p99 = median(late_p99);
  // Sustained throughput: the median over the saturation passes' windows
  // (whole passes when the input is shorter than two windows).
  const double lines_per_s =
      median(window_rates.empty() ? sat_rates : window_rates);
  const nfv::core::FleetMemoryStats& mem = first_sat.snapshot.memory;

  // Run-level validity: the generator must have headroom over the
  // system (open-loop passes were checked one by one above).
  if (gen_max_lines_per_s < 2.0 * lines_per_s) {
    invalid.push_back("generator headroom below 2x lines_per_s");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup.p50, "s"},
        {"lines_per_s", lines_per_s, "lines/s"},
        {"warn_p50_ms", warn_p50_ms, "ms"},
        {"warn_p99_ms", warn_p99_ms, "ms"},
        {"bytes_per_vpe", mem.bytes_per_vpe, "B"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"eval_s",
         kind == Kind::kOffline18mo
             ? parse_fleet_s + run_pipeline_s
             : static_cast<double>(in.size()) / lines_per_s,
         "s"},
    };
  } else {
    const double lines = static_cast<double>(in.size());
    const bool offline = kind == Kind::kOffline18mo;
    std::uint64_t worker_lines = 0;
    std::uint64_t worker_flushes = 0;
    for (const auto& worker : first_sat.snapshot.workers) {
      worker_lines += worker.lines;
      worker_flushes += worker.flushes;
    }
    const double layer_ns = static_cast<double>(decomp.mine_ns +
                                                decomp.stage_ns +
                                                decomp.flush_ns);
    const auto per = [](double num, std::uint64_t den) {
      return num / static_cast<double>(std::max<std::uint64_t>(1, den));
    };
    metrics = {
        {"gen.late_p99_ms", gen_late_p99, "ms"},
        {"gen.max_lines_per_s", gen_max_lines_per_s, "lines/s"},
        {"gen.simulate_s", w.simulate_s, "s"},
        {"logproc.tokenize_ns_per_line", tokenize_ns_per_line, "ns"},
        {"logproc.mine_ns_per_line",
         static_cast<double>(decomp.mine_ns) / lines, "ns"},
        {"logproc.templates_learned",
         static_cast<double>(decomp.templates_learned), "count"},
        {"logproc.tree_bytes_per_vpe",
         per(static_cast<double>(mem.tree_bytes_total), mem.shards), "B"},
        {"logproc.shared_bytes",
         static_cast<double>(mem.arena_bytes + mem.forest_bytes), "B"},
        {"logproc.parse_fleet_s",
         offline ? parse_fleet_s : static_cast<double>(decomp.mine_ns) * 1e-9,
         "s"},
        {"core.stage_ns_per_line",
         static_cast<double>(decomp.stage_ns) / lines, "ns"},
        {"core.flush_self_ns_per_line",
         static_cast<double>(decomp.flush_ns - decomp.score_ns) / lines, "ns"},
        {"core.score_calls_per_flush",
         per(static_cast<double>(decomp.score_calls), decomp.flushes),
         "count"},
        {"core.run_pipeline_s",
         offline ? run_pipeline_s
                 : static_cast<double>(decomp.stage_ns + decomp.flush_ns) *
                       1e-9,
         "s"},
        {"ml.score_ns_per_window",
         per(static_cast<double>(decomp.score_ns), decomp.windows), "ns"},
        {"ml.windows_per_call",
         per(static_cast<double>(decomp.windows), decomp.score_calls),
         "count"},
        {"ml.fit_s", median(fit_s), "s"},
        {"ml.train_examples_per_s", models.train_examples / models.fit_s,
         "1/s"},
        {"ml.score_windows_per_s", models.calib_windows / models.calib_s,
         "1/s"},
        {"runtime.overhead_share", 1.0 - layer_ns * 1e-9 / sat1_wall_s,
         "fraction"},
        {"runtime.worker_scaling", lines_per_s / sat1_lines_per_s, "ratio"},
        {"runtime.lines_per_flush",
         per(static_cast<double>(worker_lines), worker_flushes), "lines"},
        {"runtime.submit_blocked_share",
         first_sat.submit_s / first_sat.wall_s, "fraction"},
        {"runtime.queue_depth_p99", summarize(queue_depth).p99, "lines"},
        {"runtime.scored_p99_ms", scored_p99_ms, "ms"},
        {"runtime.swap_ms", open_swap_ms, "ms"},
        {"trace.overhead_share", decomp.wall_s / decomp_untraced_s - 1.0,
         "fraction"},
    };
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-spans.json";
    if (!tracer.write(path)) {
      std::cerr << "[perfbench] cannot write " << path << "\n";
      return 2;
    }
  }

  // Metadata row (ROADMAP's per-row fields) — every line but the last.
  nfv::util::JsonWriter row;
  row.begin_object();
  row.kv("workload", w.name);
  row.kv("seed", args.seed);
  row.kv("short", args.short_mode);
  row.kv("trace", args.trace);
  row.kv("nproc", nproc);
  row.kv("workers", kLiveWorkers);
  row.kv("offered_lines_per_s", in.offered_rate);
  row.kv("lines", in.size());
  row.kv("vpes", in.vpes);
  row.kv("threshold", models.threshold);
  row.key("repeats").begin_object();
  row.kv("setup", setup_s.size());
  row.kv("saturation", sat_rates.size());
  row.kv("open_loop", late_p99.size());
  row.kv("eval", kind == Kind::kOffline18mo ? 1 : 0);
  row.end_object();
  row.key("timings").begin_object();
  write_summary(row, "warn_ms", warn);
  row.kv("gen_late_p99_ms", gen_late_p99);
  row.kv("poll_gap_p99_ms", poll_p99_ms);
  write_summary(row, "setup_s", setup);
  write_summary(row, "lines_per_s_per_pass", summarize(sat_rates));
  write_summary(row, "lines_per_s_per_window", summarize(window_rates));
  write_summary(row, "peak_rss_bytes", summarize(peak_rss));
  row.kv("eval_samples",
         kind == Kind::kOffline18mo ? std::size_t{1} : window_rates.size());
  row.end_object();
  row.key("oracle").begin_object();
  row.kv("expected_warnings", expected.size());
  row.kv("replay_warnings", replay.size());
  row.kv("missing", totals.missing);
  row.kv("extra", totals.extra);
  row.kv("differing", totals.differing);
  row.kv("replay_mismatch", totals.replay_mismatch);
  row.end_object();
  row.kv("warn_p99_target_ms", kWarnTargetMs);
  row.kv("target_met", invalid.empty() && warn_p99_ms <= kWarnTargetMs);
  row.kv("overloaded_open_loop_passes", overloaded_passes);
  row.key("warn_p99_ms_per_window").begin_array();
  for (const double v : window_p99) row.value(v);
  row.end_array();
  row.key("backlog_growth_lines").begin_array();
  for (const double v : backlog_growth) row.value(v);
  row.end_array();
  row.kv("open_loop_ring_stalls", stalls);
  row.key("discarded_open_loop_passes").begin_array();
  for (const std::string& reason : discarded) row.value(reason);
  row.end_array();
  row.key("invalid").begin_array();
  for (const std::string& reason : invalid) row.value(reason);
  row.end_array();
  if (kind == Kind::kOffline18mo) {
    row.key("batch_digest");
    write_digest(row, batch_digest);
  }
  row.end_object();
  std::cout << one_line(row.str()) << "\n";

  // A --short run checks oracles and metric emission, not performance:
  // its passes are too short for the validity gates to mean anything.
  if (!invalid.empty() && !args.short_mode) {
    for (const std::string& reason : invalid) {
      std::cerr << "[perfbench] invalid run: " << reason << "\n";
    }
    return 3;
  }

  nfv::util::JsonWriter out;
  out.begin_object();
  out.kv("correct", correct);
  out.kv("attempted", attempted);
  out.kv("failed", failed);
  out.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    out.key(m.name).begin_object();
    out.kv("value", m.value);
    out.kv("unit", m.unit);
    out.end_object();
  }
  out.end_object();
  out.end_object();
  std::cout << one_line(out.str()) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "fleet_bench: " << e.what() << "\n";
    return 1;
  }
}
