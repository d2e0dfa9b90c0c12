// nfvpred — command-line front end for the library.
//
// Works on plain text log files, one event per line:
//     <epoch-seconds> <free-form syslog message>
// so it can be pointed at real (suitably exported) router logs, not just
// the simulator. Subcommands:
//
//   simulate --out FILE [--vpe N] [--months M] [--seed S] [--tickets FILE]
//       Generate a synthetic vPE log stream (and optionally its ticket
//       feed) in the CLI's log format.
//
//   mine --logs FILE [--max N]
//       Run signature-tree template mining and print the learned patterns.
//
//   train --logs FILE --model FILE [--window K] [--epochs E]
//       Train the LSTM detector on a (normal) log file; write a
//       checkpoint.
//
//   score --logs FILE --model FILE [--threshold-quantile Q]
//       Score a log file with a trained model and print warning
//       signatures (clusters of >=2 anomalies within 2 minutes).
//
// Exit codes: 0 ok, 1 usage error, 2 runtime failure.
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "core/mapper.h"
#include "core/parsed_fleet.h"
#include "logproc/dataset.h"
#include "logproc/signature_tree.h"
#include "simnet/fleet.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace nfv;

// A malformed number is a usage error, never a silent default.
[[noreturn]] void reject_number(const std::string& key,
                                const std::string& value,
                                const char* expected) {
  std::cerr << "error: --" << key << " expects " << expected << ", got '"
            << value << "'\n";
  std::exit(1);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value) {
      std::cerr << "error: missing required option --" << key << "\n";
      std::exit(1);
    }
    return *value;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
      reject_number(key, *value, "an integer");
    }
    return parsed;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
      reject_number(key, *value, "a number");
    }
    return parsed;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "error: expected --option, got '" << key << "'\n";
      std::exit(1);
    }
    args.options[key.substr(2)] = argv[i + 1];
  }
  return args;
}

void usage() {
  std::cerr <<
      "usage: nfvpred <command> [options]\n"
      "  simulate --out FILE [--vpe N] [--months M] [--seed S]"
      " [--tickets FILE]\n"
      "  mine     --logs FILE [--max N]\n"
      "  train    --logs FILE --model FILE [--window K] [--epochs E]\n"
      "           [--persistent-optimizer 1]  keep Adam moment state\n"
      "           across the over-sampling refinement rounds\n"
      "  score    --logs FILE --model FILE [--threshold-quantile Q]\n"
      "           [--async-ingest 1]    replay the file through the\n"
      "           asynchronous streaming ingest runtime (per-line warning\n"
      "           rule; identical warnings for any worker count)\n"
      "           [--ingest-workers N]  shard workers (default: auto)\n"
      "           [--flush-batch N]     micro-batch size (default 64)\n"
      "           [--flush-deadline US] micro-batch deadline in\n"
      "           microseconds (default 2000; 0 = immediate)\n"
      "           [--share-arena 0|1]   fleet-wide shared token arena\n"
      "           (default 1; 0 = fully private per-shard interners)\n"
      "           [--share-forest 0|1]  fleet-wide shared signature\n"
      "           forest: cross-vPE template dedup with copy-on-write\n"
      "           divergence (default 1; needs --share-arena 1; never\n"
      "           changes mined templates or warnings)\n"
      "           [--stats-json FILE]   dump the runtime observability\n"
      "           snapshot (per-shard counters, ingest-to-scored latency\n"
      "           histograms, queue gauges) as JSON after the replay\n"
      "           [--online-retrain 1]  continual learning: a background\n"
      "           trainer samples the template stream, fine-tunes a\n"
      "           shadow model (update / post-update adapt) and installs\n"
      "           it via the epoch barrier — detection never stops\n"
      "           [--retrain-interval N] retrain every N scored lines\n"
      "           (default 50000; 0 = never on its own)\n"
      "           [--retrain-samples N] per-shard recency-window sample\n"
      "           budget for each retrain round (default 2048)\n"
      "common options:\n"
      "  --threads N   worker threads for training/scoring kernels\n"
      "                (default: NFVPRED_THREADS env, else all cores;\n"
      "                 results are identical for any thread count)\n"
      "  --score-batch N  max windows per fused inference batch\n"
      "                (train/score; default 1024, min 1; scores are\n"
      "                 identical for any batch size)\n"
      "  --quantize 1  int8 quantized scoring (train: calibrate the int8\n"
      "                sidecar after training and store it in the\n"
      "                checkpoint; score: calibrate after load). Training\n"
      "                stays fp32; see README \"Quantized scoring\"\n"
      "log file format: '<epoch-seconds> <syslog message>' per line\n";
}

struct RawLine {
  util::SimTime time;
  std::string text;
};

std::vector<RawLine> read_log_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    std::exit(2);
  }
  std::vector<RawLine> lines;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto space = trimmed.find(' ');
    if (space == std::string_view::npos) {
      std::cerr << "warning: line " << lineno << " has no message; skipped\n";
      continue;
    }
    const std::string stamp(trimmed.substr(0, space));
    char* end = nullptr;
    errno = 0;
    const long long ts = std::strtoll(stamp.c_str(), &end, 10);
    if (end == stamp.c_str() || *end != '\0' || errno == ERANGE) {
      std::cerr << "error: " << path << ":" << lineno << ": timestamp '"
                << stamp << "' is not an integer\n";
      std::exit(2);
    }
    lines.push_back(
        {util::SimTime{ts}, std::string(util::trim(trimmed.substr(space)))});
  }
  if (lines.empty()) {
    std::cerr << "error: no usable lines in " << path << "\n";
    std::exit(2);
  }
  return lines;
}

int cmd_simulate(const Args& args) {
  simnet::FleetConfig config;
  config.profiles.num_vpes = static_cast<int>(args.get_long("vpe", 1));
  config.profiles.num_clusters =
      std::min(config.profiles.num_vpes, 4);
  config.profiles.num_outliers = 0;
  config.months = static_cast<int>(args.get_long("months", 3));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  config.syslog.gap_scale = args.get_double("gap-scale", 2.0);
  const auto trace = simnet::simulate_fleet(config);

  std::ofstream out(args.require("out"));
  if (!out) {
    std::cerr << "error: cannot write output file\n";
    return 2;
  }
  std::size_t written = 0;
  for (const auto& stream : trace.logs_by_vpe) {
    for (const auto& rec : stream) {
      out << rec.time.seconds << ' ' << rec.text << '\n';
      ++written;
    }
  }
  std::cerr << "wrote " << written << " log lines\n";

  if (const auto tickets_path = args.get("tickets")) {
    std::ofstream tickets_out(*tickets_path);
    for (const auto& t : trace.tickets) {
      tickets_out << t.report.seconds << ' ' << t.vpe << ' '
                  << simnet::to_string(t.category) << ' '
                  << t.repair_finish.seconds << '\n';
    }
    std::cerr << "wrote " << trace.tickets.size() << " tickets\n";
  }
  return 0;
}

int cmd_mine(const Args& args) {
  const auto lines = read_log_file(args.require("logs"));
  logproc::SignatureTree tree;
  for (const auto& line : lines) tree.learn(line.text);
  const auto max_shown =
      static_cast<std::size_t>(args.get_long("max", 1000));
  std::cout << tree.size() << " templates from " << lines.size()
            << " lines\n";
  for (std::size_t i = 0; i < tree.size() && i < max_shown; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    std::cout << "[" << id << "] x" << tree.match_count(id) << "  "
              << tree.pattern(id) << "\n";
  }
  return 0;
}

int cmd_train(const Args& args) {
  const auto lines = read_log_file(args.require("logs"));
  logproc::SignatureTree tree;
  std::vector<logproc::ParsedLog> logs;
  logs.reserve(lines.size());
  for (const auto& line : lines) {
    logs.push_back({line.time, tree.learn(line.text)});
  }
  core::LstmDetectorConfig config;
  config.window = static_cast<std::size_t>(args.get_long("window", 10));
  config.initial_epochs =
      static_cast<std::size_t>(args.get_long("epochs", 4));
  config.persistent_optimizer =
      args.get_long("persistent-optimizer", 0) != 0;
  config.quantize = args.get_long("quantize", 0) != 0;
  const long score_batch = args.get_long("score-batch", 0);
  if (score_batch < 0) {
    std::cerr << "error: --score-batch must be positive\n";
    return 1;
  }
  if (score_batch > 0) {
    config.score_batch = static_cast<std::size_t>(score_batch);
  }
  core::LstmDetector detector(config);
  std::cerr << "training on " << logs.size() << " events ("
            << tree.size() << " templates)...\n";
  const core::LogView view{logs};
  detector.fit({&view, 1}, tree.size());

  std::ofstream out(args.require("model"), std::ios::binary);
  if (!out) {
    std::cerr << "error: cannot write model file\n";
    return 2;
  }
  detector.save(out);
  std::cerr << "model written\n";
  return 0;
}

int cmd_score(const Args& args) {
  const auto lines = read_log_file(args.require("logs"));
  std::ifstream model_in(args.require("model"), std::ios::binary);
  if (!model_in) {
    std::cerr << "error: cannot open model file\n";
    return 2;
  }
  core::LstmDetector detector = core::LstmDetector::load(model_in);
  if (args.get_long("quantize", 0) != 0) {
    // Calibrate the int8 sidecar from the loaded fp32 weights (a no-op if
    // the checkpoint already carried one).
    detector.set_quantized(true);
  }
  const long score_batch = args.get_long("score-batch", 0);
  if (score_batch < 0) {
    std::cerr << "error: --score-batch must be positive\n";
    return 1;
  }
  if (score_batch > 0) {
    detector.set_score_batch(static_cast<std::size_t>(score_batch));
  }

  // Template ids must be assigned consistently with training: the
  // signature tree is rebuilt from the scored file itself (the tree is
  // deterministic given the same message shapes; novel shapes map to new
  // ids, which the detector treats as maximally surprising).
  logproc::SignatureTree tree;
  std::vector<logproc::ParsedLog> logs;
  for (const auto& line : lines) {
    logs.push_back({line.time, tree.learn(line.text)});
  }
  const auto events = detector.score(logs, tree.size());
  if (events.empty()) {
    std::cerr << "not enough events to score (need window+1)\n";
    return 2;
  }
  std::vector<double> scores;
  scores.reserve(events.size());
  for (const auto& e : events) scores.push_back(e.score);
  const double q = args.get_double("threshold-quantile", 0.99);
  const double threshold = util::quantile(scores, q);

  if (args.get_long("async-ingest", 0) != 0) {
    // Streaming replay: raw lines flow through the asynchronous ingest
    // runtime (online template mining + micro-batched scoring + the
    // >=2-anomalies-within-minutes warning rule). The threshold comes
    // from the batch calibration above; warnings are deterministic for
    // any worker count / flush batch / deadline.
    core::AsyncIngestConfig ingest_config;
    ingest_config.workers =
        static_cast<std::size_t>(args.get_long("ingest-workers", 0));
    ingest_config.flush_batch =
        static_cast<std::size_t>(args.get_long("flush-batch", 64));
    ingest_config.flush_deadline =
        std::chrono::microseconds(args.get_long("flush-deadline", 2000));
    ingest_config.share_token_arena = args.get_long("share-arena", 1) != 0;
    ingest_config.share_template_forest =
        args.get_long("share-forest", 1) != 0;
    ingest_config.single_producer = true;
    ingest_config.online_retrain = args.get_long("online-retrain", 0) != 0;
    const long retrain_interval = args.get_long("retrain-interval", 50000);
    const long retrain_samples = args.get_long("retrain-samples", 2048);
    if (retrain_interval < 0 || retrain_samples < 1) {
      std::cerr << "error: --retrain-interval must be >= 0 and"
                   " --retrain-samples >= 1\n";
      return 1;
    }
    ingest_config.retrain_interval_lines =
        static_cast<std::uint64_t>(retrain_interval);
    ingest_config.retrain_samples =
        static_cast<std::size_t>(retrain_samples);
    core::AsyncIngest ingest(&detector, ingest_config);
    core::StreamMonitorConfig monitor_config;
    monitor_config.threshold = threshold;
    monitor_config.window = detector.config().window;
    const std::size_t shard = ingest.add_shard(0, monitor_config);
    ingest.start();
    for (const auto& line : lines) {
      ingest.submit(shard, line.time, line.text);
    }
    ingest.flush();
    const auto stats_path = args.get("stats-json");
    const auto dump_stats = [&ingest, &stats_path]() -> bool {
      std::ofstream stats_out(*stats_path);
      if (!stats_out) {
        std::cerr << "error: cannot write " << *stats_path << "\n";
        return false;
      }
      stats_out << ingest.stats_json() << "\n";
      std::cerr << "wrote runtime stats to " << *stats_path << "\n";
      return true;
    };
    if (stats_path && !ingest_config.online_retrain) {
      // flush() is an epoch barrier, so the snapshot's counters and
      // latency buckets are exact for every submitted line — and the
      // queue gauges still describe the live (not yet stopped) runtime.
      if (!dump_stats()) return 2;
    }
    ingest.stop();
    if (stats_path && ingest_config.online_retrain) {
      // With the trainer running, a pre-stop cut could catch a retrain
      // round mid-flight (train_seconds advanced, rounds/swaps not yet);
      // stop() joins the trainer, making the retrain block final.
      if (!dump_stats()) return 2;
    }
    std::vector<core::StreamWarning> warnings;
    ingest.drain_warnings(warnings);
    const core::AsyncIngestStats stats = ingest.stats();
    std::cout << "async ingest: " << stats.lines_scored << " lines over "
              << ingest.workers() << " worker(s); threshold " << threshold
              << " (q=" << q << ")\n";
    if (ingest_config.online_retrain) {
      const core::RetrainStats retrain = ingest.snapshot().retrain;
      std::cout << "online retrain: " << retrain.rounds << " round(s), "
                << retrain.adapt_rounds << " adapt, " << retrain.swaps
                << " model swap(s), " << retrain.samples_seen
                << " sampled events (" << retrain.samples_dropped
                << " dropped), " << retrain.train_seconds
                << "s shadow training\n";
    }
    std::cout << warnings.size() << " warning signature(s):\n";
    for (const auto& warning : warnings) {
      std::cout << "  t=" << warning.time.seconds
                << " anomalies=" << warning.anomaly_count
                << " peak=" << warning.peak_score << "\n";
    }
    return 0;
  }

  core::MappingConfig mapping;
  const auto clusters = core::cluster_anomalies(events, threshold, mapping);

  std::cout << "scored " << events.size() << " events; threshold "
            << threshold << " (q=" << q << ")\n";
  std::cout << clusters.size() << " warning signature(s):\n";
  for (const auto& t : clusters) {
    std::cout << "  t=" << t.seconds << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const long threads = args.get_long("threads", 0);
    if (threads < 0) {
      std::cerr << "error: --threads must be positive\n";
      return 1;
    }
    if (threads > 0) {
      util::set_global_threads(static_cast<std::size_t>(threads));
    }
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "mine") return cmd_mine(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "score") return cmd_score(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage();
  return args.command.empty() ? 1 : 1;
}
