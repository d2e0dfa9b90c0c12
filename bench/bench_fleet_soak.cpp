// Fleet-scale soak: simnet-driven syslog through the async ingest runtime
// at 1k / 10k vPEs on one box.
//
// The paper validates on 38 vPEs (§2); the production target is a box
// multiplexing thousands of monitors, where per-vPE MEMORY — not per-line
// CPU — is the scaling wall. Every shard mines raw rendered syslog from
// the shared simnet TemplateCatalog, so the fleet token set AND
// template set overlap almost completely across vPEs: exactly the
// workload the shared token arena (util::SharedInterner) and the shared
// signature forest (logproc::SharedSignatureForest, cross-vPE template
// dedup with copy-on-write divergence) exist for. This bench measures,
// per {vpes, sharing tier, quantize} configuration:
//   - sustained lines/sec over the submit -> flush soak window,
//   - bytes/vPE from the runtime's fleet memory stats (arena + forest
//     counted once + per-shard tree bytes) across the three sharing
//     tiers: fully private, shared arena, arena + forest; plus a
//     per-row breakdown (per-vPE tree bytes vs amortized shared bytes
//     vs amortized model bytes). All tiers' rows land in the JSON,
//   - warning latency p50/p99/p999 (ingest -> scored, µs) from the
//     runtime's per-shard histograms,
//   - model bytes (fp32 vs --quantize int8 sidecar from the quant tier).
// and proves determinism at scale: per-vPE warning streams are compared
// byte-for-byte against a serial StreamMonitor replay at the FULL vPE
// count for multiple worker counts. Lines are regenerated on demand from
// (template id, vpe, line index) via TemplateCatalog::render_seeded, so
// the serial replay never needs the multi-million-line workload in memory.
//
// Every --json row is soaked 3 times and records nproc, workers and the
// repeat count; timings and latencies are given as min and median over
// the repeats (lines_per_sec from the fastest run, lines_per_sec_median
// from the median one). The latency columns measure queue fill behind a
// saturating producer, not the system's warning latency at a set load.
//
// Modes:
//   --json FILE   full soak (1k and 10k vPE rows) → BENCH_soak.json
//   --smoke       fast CI gate: small fleet; asserts warning parity with
//                 the serial replay at 2 worker counts AND that each
//                 sharing tier cuts bytes/vPE over the previous one:
//                 arena + forest < shared arena < private baseline
//   --vpes N      replace the default 1k/10k row scales with a single N
//                 (local iteration; acceptance runs use the default)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "logproc/signature_tree.h"
#include "simnet/template_catalog.h"
#include "util/stats.h"

namespace {

using namespace nfv;

constexpr std::size_t kWindow = 4;
constexpr std::int64_t kStepSeconds = 30;

// Two synthetic fault shapes NOT in the catalog: letters-only heads so
// the tokenizer keeps them stable, mined online during the soak onto ids
// >= the model vocabulary (the deterministic unknown-template score
// path). Pairs land 30s apart — inside the 2-minute cluster span.
std::string anomaly_line(std::size_t vpe, std::size_t i) {
  const char* shape = (vpe % 2 == 0) ? "zulufault cascade overload detected"
                                     : "yankeefault thermal runaway shutdown";
  return std::string(shape) + " code " + std::to_string(i);
}

bool is_anomaly_slot(std::size_t i) { return i % 47 == 20 || i % 47 == 21; }

struct Workload {
  simnet::TemplateCatalog catalog;
  std::vector<std::int32_t> stream_ids;  // normal traffic the soak draws on
  core::LstmDetector detector;
  core::LstmDetector detector_quantized;
  double threshold = 0.0;
  std::size_t vocab = 0;
};

/// Mine every catalog template once, in catalog order. All variable
/// fields render digit-bearing (masked to wildcards by the tokenizer), so
/// one pass per template yields a deterministic template set — identical
/// ids in every tree primed this way, which is what aligns mined ids with
/// the detector vocabulary across 10k shards and the serial replay.
void prime_tree(logproc::SignatureTree& tree,
                const simnet::TemplateCatalog& catalog) {
  for (const simnet::LogTemplate& t : catalog.all()) {
    tree.learn(catalog.render_seeded(t.id, 0));
  }
}

std::uint64_t line_salt(std::size_t vpe, std::size_t i) {
  return (static_cast<std::uint64_t>(vpe) << 32) | static_cast<std::uint64_t>(i);
}

/// The catalog template behind normal line i of vPE v (deterministic mix
/// with different phase per vPE).
std::int32_t stream_template(const Workload& w, std::size_t vpe,
                             std::size_t i) {
  const std::size_t n = w.stream_ids.size();
  return w.stream_ids[(i * 7 + vpe * 3 + i / 31) % n];
}

std::string render_line(const Workload& w, std::size_t vpe, std::size_t i) {
  if (is_anomaly_slot(i)) return anomaly_line(vpe, i);
  return w.catalog.render_seeded(stream_template(w, vpe, i),
                                 line_salt(vpe, i));
}

util::SimTime line_time(std::size_t i) {
  return util::SimTime{static_cast<std::int64_t>(i) * kStepSeconds};
}

Workload build_workload() {
  Workload w;
  w.catalog = simnet::TemplateCatalog::standard();
  for (const auto kind :
       {simnet::TemplateKind::kNormal, simnet::TemplateKind::kMaintenance}) {
    for (const std::int32_t id : w.catalog.ids_of_kind(kind)) {
      w.stream_ids.push_back(id);
    }
  }

  logproc::SignatureTree train_tree;
  prime_tree(train_tree, w.catalog);
  w.vocab = train_tree.size();

  // Training streams: the same deterministic normal mix the soak replays
  // (no anomaly slots), mined through an identically-primed tree.
  constexpr std::size_t kTrainVpes = 4;
  constexpr std::size_t kTrainLen = 400;
  std::vector<std::vector<logproc::ParsedLog>> streams(kTrainVpes);
  for (std::size_t v = 0; v < kTrainVpes; ++v) {
    for (std::size_t i = 0; i < kTrainLen; ++i) {
      const std::int32_t tid = stream_template(w, v, i);
      streams[v].push_back(
          {line_time(i),
           train_tree.learn(w.catalog.render_seeded(tid, line_salt(v, i)))});
    }
  }

  core::LstmDetectorConfig config;
  config.window = kWindow;
  config.embed_dim = 8;
  config.hidden = 16;
  config.initial_epochs = 1;
  config.max_train_windows = 1200;
  config.oversample = false;
  config.seed = 20260809;
  w.detector = core::LstmDetector(config);
  std::vector<core::LogView> views(streams.begin(), streams.end());
  w.detector.fit(views, w.vocab);

  std::vector<double> scores;
  for (const auto& stream : streams) {
    for (const core::ScoredEvent& e : w.detector.score(stream, w.vocab)) {
      scores.push_back(e.score);
    }
  }
  w.threshold = util::quantile(scores, 0.995);

  // Same fp32 weights + the int8 sidecar for the --quantize rows.
  w.detector_quantized = w.detector;
  w.detector_quantized.set_quantized(true);
  return w;
}

core::StreamMonitorConfig monitor_config(const Workload& w) {
  core::StreamMonitorConfig config;
  config.threshold = w.threshold;
  config.window = kWindow;
  return config;
}

/// The three sharing tiers under measurement, strictly ordered by how
/// much fleet state is deduped: nothing / token arena / arena + forest.
enum class Sharing { kPrivate, kArena, kForest };

const char* sharing_name(Sharing sharing) {
  switch (sharing) {
    case Sharing::kPrivate: return "private";
    case Sharing::kArena: return "arena";
    case Sharing::kForest: return "arena+forest";
  }
  return "?";
}

struct SoakResult {
  double seconds = 0.0;  // submit -> flush soak window
  std::size_t total_lines = 0;
  std::size_t warnings = 0;
  std::vector<core::StreamWarning> merged;  // per-vPE canonical order
  core::FleetMemoryStats memory;
  std::uint64_t model_bytes_fp32 = 0;
  std::uint64_t model_bytes_quantized = 0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
};

/// One soak run: prime, start, submit the full fleet interleaved, flush,
/// read the epoch-consistent stats cut, stop, drain.
SoakResult run_soak(const Workload& w, const core::AnomalyDetector& detector,
                    std::size_t vpes, std::size_t lines_per_vpe,
                    std::size_t workers, Sharing sharing) {
  core::AsyncIngestConfig config;
  config.workers = workers;
  config.flush_batch = 64;
  config.flush_deadline = std::chrono::microseconds(2000);
  config.single_producer = true;
  config.share_token_arena = sharing != Sharing::kPrivate;
  config.share_template_forest = sharing == Sharing::kForest;
  core::AsyncIngest ingest(&detector, config);
  for (std::size_t v = 0; v < vpes; ++v) {
    const std::size_t shard =
        ingest.add_shard(static_cast<std::int32_t>(v), monitor_config(w));
    prime_tree(ingest.mutable_tree(shard), w.catalog);
  }
  ingest.start();

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lines_per_vpe; ++i) {
    for (std::size_t v = 0; v < vpes; ++v) {
      ingest.submit(v, line_time(i), render_line(w, v, i));
    }
  }
  ingest.flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  SoakResult r;
  r.total_lines = vpes * lines_per_vpe;
  r.seconds = elapsed.count();
  const core::RuntimeStatsSnapshot snap = ingest.snapshot();
  r.memory = snap.memory;
  if (!snap.shards.empty()) {
    r.model_bytes_fp32 = snap.shards[0].model_bytes_fp32;
    r.model_bytes_quantized = snap.shards[0].model_bytes_quantized;
  }
  const core::HistogramSnapshot latency = snap.merged_latency();
  r.latency_p50_us = latency.p50() / 1000.0;
  r.latency_p99_us = latency.p99() / 1000.0;
  r.latency_p999_us = latency.p999() / 1000.0;

  ingest.stop();
  std::vector<core::StreamWarning> drained;
  ingest.drain_warnings(drained);
  r.merged = core::merge_warnings_by_vpe(std::move(drained));
  r.warnings = r.merged.size();
  return r;
}

/// Serial reference at the same fleet size: one monitor at a time (O(1)
/// trees alive, whatever the vPE count), lines regenerated on demand.
std::vector<core::StreamWarning> run_serial(
    const Workload& w, const core::AnomalyDetector& detector,
    std::size_t vpes, std::size_t lines_per_vpe) {
  std::vector<core::StreamWarning> warnings;
  for (std::size_t v = 0; v < vpes; ++v) {
    logproc::SignatureTree tree;
    prime_tree(tree, w.catalog);
    core::StreamMonitor monitor(
        static_cast<std::int32_t>(v), &detector, &tree, monitor_config(w),
        [&warnings](const core::StreamWarning& warning) {
          warnings.push_back(warning);
        });
    for (std::size_t i = 0; i < lines_per_vpe; ++i) {
      monitor.ingest(line_time(i), render_line(w, v, i));
    }
  }
  return warnings;  // per-vPE streams concatenated in ascending vPE order
}

bool same_warnings(const std::vector<core::StreamWarning>& serial,
                   const std::vector<core::StreamWarning>& merged,
                   const std::string& label) {
  if (serial.size() != merged.size()) {
    std::cerr << label << ": warning count " << merged.size() << " != serial "
              << serial.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::StreamWarning& a = serial[i];
    const core::StreamWarning& b = merged[i];
    if (a.vpe != b.vpe || a.time.seconds != b.time.seconds ||
        a.anomaly_count != b.anomaly_count || a.peak_score != b.peak_score ||
        a.trigger_template != b.trigger_template) {
      std::cerr << label << ": warning " << i
                << " diverges from serial replay\n";
      return false;
    }
  }
  return true;
}

/// Min and median of one measurement over a row's repeats.
struct Spread {
  double min = 0.0;
  double median = 0.0;
};

Spread spread(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return {xs.front(),
          n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2])};
}

/// One configuration, soaked `repeats` times. `result` is the first run
/// (memory and warnings do not vary between runs); the timings vary and
/// are summarized over all runs.
struct Row {
  std::size_t vpes = 0;
  std::size_t lines_per_vpe = 0;
  std::size_t workers = 0;
  Sharing sharing = Sharing::kPrivate;
  bool quantize = false;
  bool parity_checked = false;
  SoakResult result;
  Spread seconds;
  Spread latency_p50_us;
  Spread latency_p99_us;
  Spread latency_p999_us;
};

double lines_per_sec(const Row& row, double seconds) {
  return static_cast<double>(row.result.total_lines) / seconds;
}

/// Per-vPE bytes of one component of the row's footprint; shared and
/// model bytes are amortized over the fleet (counted once, divided by
/// the vPE count), mirroring how FleetMemoryStats::bytes_per_vpe is
/// built. Together the three components decompose bytes/vPE + model.
double per_vpe(const Row& row, std::uint64_t fleet_bytes) {
  return static_cast<double>(fleet_bytes) / static_cast<double>(row.vpes);
}

double tree_bytes_per_vpe(const Row& row) {
  return per_vpe(row, row.result.memory.tree_bytes_total);
}

double shared_bytes_per_vpe(const Row& row) {
  return per_vpe(row,
                 row.result.memory.arena_bytes + row.result.memory.forest_bytes);
}

double model_bytes_per_vpe(const Row& row) {
  return per_vpe(row, row.quantize ? row.result.model_bytes_quantized
                                   : row.result.model_bytes_fp32);
}

void write_spread(util::JsonWriter& w, const std::string& name,
                  const Spread& s) {
  w.kv(name + "_min", s.min);
  w.kv(name + "_median", s.median);
}

void write_row(util::JsonWriter& w, const Row& row, std::size_t repeats) {
  w.begin_object();
  w.kv("vpes", row.vpes);
  w.kv("lines_per_vpe", row.lines_per_vpe);
  w.kv("total_lines", row.result.total_lines);
  w.kv("nproc", std::max(1u, std::thread::hardware_concurrency()));
  w.kv("workers", row.workers);
  w.kv("repeats", repeats);
  w.kv("sharing", sharing_name(row.sharing));
  w.kv("quantize", row.quantize);
  write_spread(w, "seconds", row.seconds);
  // Throughput of the fastest run (min seconds) and of the median run.
  w.kv("lines_per_sec", lines_per_sec(row, row.seconds.min));
  w.kv("lines_per_sec_median", lines_per_sec(row, row.seconds.median));
  w.kv("bytes_per_vpe", row.result.memory.bytes_per_vpe);
  // The bytes/vPE breakdown: private tree state vs the amortized shared
  // structures (arena + forest) vs the amortized model.
  w.kv("bytes_per_vpe_tree", tree_bytes_per_vpe(row));
  w.kv("bytes_per_vpe_shared", shared_bytes_per_vpe(row));
  w.kv("bytes_per_vpe_model", model_bytes_per_vpe(row));
  w.kv("arena_bytes", row.result.memory.arena_bytes);
  w.kv("arena_tokens", row.result.memory.arena_tokens);
  w.kv("forest_bytes", row.result.memory.forest_bytes);
  w.kv("forest_templates", row.result.memory.forest_templates);
  w.kv("tree_bytes_total", row.result.memory.tree_bytes_total);
  w.kv("tree_bytes_max", row.result.memory.tree_bytes_max);
  w.kv("model_bytes_fp32", row.result.model_bytes_fp32);
  w.kv("model_bytes_quantized", row.result.model_bytes_quantized);
  write_spread(w, "latency_p50_us", row.latency_p50_us);
  write_spread(w, "latency_p99_us", row.latency_p99_us);
  write_spread(w, "latency_p999_us", row.latency_p999_us);
  w.kv("warnings", row.result.warnings);
  w.kv("serial_parity_checked", row.parity_checked);
  w.end_object();
}

void log_row(const Row& row) {
  std::cerr << "vpes=" << row.vpes << " sharing=" << sharing_name(row.sharing)
            << (row.quantize ? " quantized" : "")
            << " workers="
            << row.workers << ": " << lines_per_sec(row, row.seconds.median)
            << " lines/s (median), " << row.result.memory.bytes_per_vpe
            << " bytes/vPE (" << tree_bytes_per_vpe(row) << " tree + "
            << shared_bytes_per_vpe(row) << " shared), p99="
            << row.latency_p99_us.median << "us, p999="
            << row.latency_p999_us.median << "us, " << row.result.warnings
            << " warnings\n";
}

int run_smoke() {
  const Workload w = build_workload();
  constexpr std::size_t kVpes = 48;
  constexpr std::size_t kLines = 120;

  const std::vector<core::StreamWarning> serial =
      run_serial(w, w.detector, kVpes, kLines);
  if (serial.empty()) {
    std::cerr << "smoke: serial replay produced no warnings (vacuous)\n";
    return 1;
  }

  // The forest tier must hold warning parity at multiple worker counts —
  // template storage location can never leak into scores.
  SoakResult forest1;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SoakResult r =
        run_soak(w, w.detector, kVpes, kLines, workers, Sharing::kForest);
    if (!same_warnings(serial, r.merged,
                       "arena+forest workers=" + std::to_string(workers))) {
      return 1;
    }
    if (workers == 1) forest1 = std::move(r);
  }
  const SoakResult arena1 =
      run_soak(w, w.detector, kVpes, kLines, 1, Sharing::kArena);
  if (!same_warnings(serial, arena1.merged, "shared arena workers=1")) {
    return 1;
  }
  const SoakResult priv =
      run_soak(w, w.detector, kVpes, kLines, 1, Sharing::kPrivate);
  if (!same_warnings(serial, priv.merged, "private workers=1")) {
    return 1;
  }

  // bytes/vPE regression gates: each sharing tier must beat the previous
  // one even with the shared structures' own bytes charged against it.
  if (!(arena1.memory.bytes_per_vpe < priv.memory.bytes_per_vpe)) {
    std::cerr << "smoke: shared arena bytes/vPE (" << arena1.memory.bytes_per_vpe
              << ") did not beat private baseline ("
              << priv.memory.bytes_per_vpe << ")\n";
    return 1;
  }
  if (!(forest1.memory.bytes_per_vpe < arena1.memory.bytes_per_vpe)) {
    std::cerr << "smoke: arena+forest bytes/vPE ("
              << forest1.memory.bytes_per_vpe
              << ") did not beat arena-only (" << arena1.memory.bytes_per_vpe
              << ")\n";
    return 1;
  }
  if (forest1.memory.forest_templates == 0) {
    std::cerr << "smoke: forest row published no templates (vacuous)\n";
    return 1;
  }
  std::cerr << "smoke ok: " << serial.size() << " warnings identical across "
            << "serial and async (1 and 3 workers; private, arena and "
            << "arena+forest tiers); bytes/vPE "
            << forest1.memory.bytes_per_vpe << " forest < "
            << arena1.memory.bytes_per_vpe << " arena < "
            << priv.memory.bytes_per_vpe << " private\n";
  return 0;
}

int run_json_mode(const std::string& path, std::size_t vpes_override) {
  constexpr std::size_t kRepeats = 3;
  const Workload w = build_workload();

  struct Scale {
    std::size_t vpes;
    std::size_t lines_per_vpe;
  };
  std::vector<Scale> scales;
  if (vpes_override != 0) {
    scales.push_back({vpes_override, 96});
  } else {
    scales.push_back({1000, 192});
    scales.push_back({10000, 96});
  }

  std::vector<Row> rows;
  bool parity_ok = true;
  for (const Scale scale : scales) {
    // Serial reference once per scale; every fp32 async run at ANY worker
    // count must reproduce it byte-for-byte.
    const std::vector<core::StreamWarning> serial =
        run_serial(w, w.detector, scale.vpes, scale.lines_per_vpe);
    if (serial.empty()) {
      std::cerr << "soak: serial replay produced no warnings at "
                << scale.vpes << " vPEs (vacuous)\n";
      return 1;
    }

    const auto add_row = [&](std::size_t workers, Sharing sharing,
                             bool quantize) {
      const core::AnomalyDetector& det =
          quantize ? static_cast<const core::AnomalyDetector&>(
                         w.detector_quantized)
                   : w.detector;
      Row row;
      row.vpes = scale.vpes;
      row.lines_per_vpe = scale.lines_per_vpe;
      row.workers = workers;
      row.sharing = sharing;
      row.quantize = quantize;
      std::vector<double> seconds, p50, p99, p999;
      for (std::size_t r = 0; r < kRepeats; ++r) {
        SoakResult run = run_soak(w, det, scale.vpes, scale.lines_per_vpe,
                                  workers, sharing);
        seconds.push_back(run.seconds);
        p50.push_back(run.latency_p50_us);
        p99.push_back(run.latency_p99_us);
        p999.push_back(run.latency_p999_us);
        // Quantized scoring legitimately shifts scores; parity is pinned
        // on every fp32 run (the quant tier has its own rank-agreement
        // gate).
        if (!quantize) {
          row.parity_checked = true;
          parity_ok = same_warnings(serial, run.merged,
                                    "vpes=" + std::to_string(scale.vpes) +
                                        " sharing=" + sharing_name(sharing) +
                                        " workers=" +
                                        std::to_string(workers)) &&
                      parity_ok;
        }
        if (r == 0) row.result = std::move(run);
      }
      row.seconds = spread(seconds);
      row.latency_p50_us = spread(p50);
      row.latency_p99_us = spread(p99);
      row.latency_p999_us = spread(p999);
      log_row(row);
      rows.push_back(std::move(row));
    };

    add_row(1, Sharing::kPrivate, false);  // pre-sharing baseline
    add_row(1, Sharing::kArena, false);    // token arena only
    add_row(1, Sharing::kForest, false);   // arena + template forest
    add_row(4, Sharing::kForest, false);   // forest, multi-worker
    // The full stack: int8 scoring over the shared arena + forest.
    add_row(1, Sharing::kForest, true);
  }
  if (!parity_ok) return 1;

  // All three bytes/vPE figures are in the JSON; also enforce the cuts
  // here so a regression cannot silently ship numbers where a sharing
  // tier fails to pay for itself.
  for (const Scale scale : scales) {
    double forest_bpv = -1.0, arena_bpv = -1.0, private_bpv = -1.0;
    for (const Row& row : rows) {
      if (row.vpes != scale.vpes || row.quantize || row.workers != 1) {
        continue;
      }
      switch (row.sharing) {
        case Sharing::kPrivate: private_bpv = row.result.memory.bytes_per_vpe; break;
        case Sharing::kArena: arena_bpv = row.result.memory.bytes_per_vpe; break;
        case Sharing::kForest: forest_bpv = row.result.memory.bytes_per_vpe; break;
      }
    }
    if (!(arena_bpv >= 0.0 && private_bpv >= 0.0 && arena_bpv < private_bpv)) {
      std::cerr << "soak: shared arena bytes/vPE (" << arena_bpv
                << ") did not beat private baseline (" << private_bpv
                << ") at " << scale.vpes << " vPEs\n";
      return 1;
    }
    if (!(forest_bpv >= 0.0 && forest_bpv < arena_bpv)) {
      std::cerr << "soak: arena+forest bytes/vPE (" << forest_bpv
                << ") did not beat arena-only (" << arena_bpv << ") at "
                << scale.vpes << " vPEs\n";
      return 1;
    }
  }

  util::JsonWriter jw;
  jw.begin_object();
  jw.kv("bench", "fleet_soak");
  jw.kv("window", kWindow);
  jw.kv("flush_batch", 64);
  jw.kv("catalog_templates", w.catalog.size());
  jw.kv("model_vocab", w.vocab);
  jw.kv("threshold", w.threshold);
  jw.key("rows").begin_array();
  for (const Row& row : rows) write_row(jw, row, kRepeats);
  jw.end_array();
  jw.end_object();
  return bench::write_json_file(path, jw) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t vpes_override = 0;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--vpes") == 0 && i + 1 < argc) {
      vpes_override =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--vpes=", 7) == 0) {
      vpes_override =
          static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else {
      std::cerr << "usage: bench_fleet_soak [--smoke | --json FILE] "
                << "[--vpes N]\n";
      return 1;
    }
  }
  if (smoke) return run_smoke();
  if (!json_path.empty()) return run_json_mode(json_path, vpes_override);
  return run_json_mode("BENCH_soak.json", vpes_override);
}
