#include "workloads.h"

#include <algorithm>

#include "trace.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using nfv::core::LogView;
using nfv::logproc::ParsedLog;
using nfv::logproc::SignatureTree;
using nfv::simnet::TemplateKind;
using nfv::util::SimTime;

// Live workloads: one line every 30 simulated seconds per vPE, so a
// two-line burst (30 s apart) is inside the 2-minute cluster span, and a
// two-line fault burst every 47 lines.
constexpr std::int64_t kStep = 30;
constexpr std::size_t kBurstPeriod = 47;

// shift-64: the fleet software update lands at kUpdateAt, the adapted
// model is installed at kSwapAt. Both are multiples of the burst period
// and every vPE's bursts are shifted back by its phase (< kPhases), so no
// burst cluster touches either point: the burst before the update ends at
// least 22 lines ahead of it, the bursts right after it fall inside the
// drift run, and the first burst after the swap starts at least 4 lines
// after it (cluster gap rule: more than 4 lines after the last anomaly).
// The phases spread each burst wave over 17 line indices, so warnings do
// not complete in lockstep across the fleet.
constexpr std::size_t kUpdateAt = kBurstPeriod * 160;
constexpr std::size_t kSwapAt = kUpdateAt + kBurstPeriod * 6;
constexpr std::size_t kShiftLines = kBurstPeriod * 320;
constexpr std::size_t kPhases = 17;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t line_salt(std::uint64_t seed, std::size_t vpe, std::size_t i) {
  return mix(seed ^ mix((static_cast<std::uint64_t>(vpe) << 32) | i));
}

void shuffle(std::vector<std::int32_t>& ids, std::uint64_t seed) {
  std::uint64_t state = mix(seed);
  for (std::size_t i = ids.size(); i > 1; --i) {
    state = mix(state);
    std::swap(ids[i - 1], ids[state % i]);
  }
}

bool is_burst(std::size_t i, std::size_t phase = 0) {
  const std::size_t r = (i + phase) % kBurstPeriod;
  return r == 20 || r == 21;
}

// Letters-only rendering of a number: digit-bearing tokens are masked to
// wildcards by the tokenizer, so template identity must ride on letters.
std::string letters(std::size_t n) {
  std::string out;
  do {
    out.push_back(static_cast<char>('a' + n % 10));
    n /= 10;
  } while (n != 0);
  return out;
}

std::vector<std::int32_t> ids_of(const nfv::simnet::TemplateCatalog& catalog,
                                 std::initializer_list<TemplateKind> kinds) {
  std::vector<std::int32_t> ids;
  for (const TemplateKind kind : kinds) {
    for (const std::int32_t id : catalog.ids_of_kind(kind)) ids.push_back(id);
  }
  return ids;
}

std::int32_t mix_template(const std::vector<std::int32_t>& ids, std::size_t vpe,
                          std::size_t i) {
  return ids[(i * 7 + vpe * 3 + i / 31) % ids.size()];
}

// ---- fleet-10k --------------------------------------------------------

// The two fault shapes are primed into every tree after the catalog (ids
// beyond the model vocabulary, so they score as unknown templates), which
// keeps mining read-only after priming.
const char* fleet_fault(std::size_t vpe) {
  return (vpe % 2 == 0) ? "zulufault cascade overload detected code "
                        : "yankeefault thermal runaway shutdown code ";
}

void make_fleet10k(Workload& w) {
  const std::size_t vpes = w.short_mode ? 300 : 10000;
  constexpr std::size_t kLines = 96;
  std::vector<std::int32_t> mix_ids =
      ids_of(w.catalog, {TemplateKind::kNormal, TemplateKind::kMaintenance});
  shuffle(mix_ids, w.seed);

  const auto render = [&](std::size_t v, std::size_t i) {
    if (is_burst(i)) return fleet_fault(v) + std::to_string(i);
    return w.catalog.render_seeded(mix_template(mix_ids, v, i),
                                   line_salt(w.seed, v, i));
  };

  LiveInput& in = w.input;
  in.vpes = vpes;
  for (std::size_t i = 0; i < kLines; ++i) {
    for (std::size_t v = 0; v < vpes; ++v) {
      in.add(static_cast<std::uint32_t>(v),
             static_cast<std::int64_t>(i) * kStep, render(v, i));
    }
  }
  in.swap_at = (kLines / 2) * vpes;
  in.offered_rate = 150000.0;  // ~1/3 of the 3-worker saturation here
  for (std::size_t k = 0; k < 16; ++k) {
    in.replay_vpes.push_back(static_cast<std::uint32_t>(k * vpes / 16));
  }
  for (std::size_t v = 0; v < vpes; ++v) {
    for (std::size_t i = 0; i + 1 < kLines; ++i) {
      if (i % kBurstPeriod != 20) continue;
      Expected e;
      e.vpe = static_cast<std::int32_t>(v);
      e.time = static_cast<std::int64_t>(i) * kStep;
      e.completer = (i + 1) * vpes + v;
      w.expected.push_back(e);
    }
  }

  for (const auto& t : w.catalog.all()) {
    w.prime_lines.push_back(w.catalog.render_seeded(t.id, 0));
  }
  w.model_prime_lines = w.prime_lines.size();
  w.prime_lines.push_back(fleet_fault(0) + std::string("0"));
  w.prime_lines.push_back(fleet_fault(1) + std::string("0"));

  // Training: the same normal mix on four phases not tied to any vPE.
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<TrainLine> stream;
    for (std::size_t i = 0; i < 400; ++i) {
      const std::size_t phase = vpes + s;
      stream.push_back({static_cast<std::int64_t>(i) * kStep,
                        w.catalog.render_seeded(
                            mix_template(mix_ids, phase, i),
                            line_salt(w.seed, phase, i)),
                        false});
    }
    w.train.push_back(std::move(stream));
  }
  w.lstm.window = 4;
  w.lstm.embed_dim = 8;
  w.lstm.hidden = 16;
  w.lstm.initial_epochs = 1;
  w.lstm.max_train_windows = 1200;
  w.threshold_quantile = 0.999;
  w.threshold_margin = 6.0;
}

// ---- shift-64 ---------------------------------------------------------

std::string shift_burst(std::size_t vpe, std::size_t i) {
  return "fault" + letters(vpe) + "x" +
         letters((i + vpe % kPhases) / kBurstPeriod) + " event code " +
         std::to_string(i);
}

void make_shift64(Workload& w) {
  const std::size_t vpes = w.short_mode ? 8 : 64;
  std::vector<std::int32_t> pre_ids =
      ids_of(w.catalog, {TemplateKind::kNormal, TemplateKind::kMaintenance});
  shuffle(pre_ids, w.seed);
  std::vector<std::int32_t> post_ids =
      ids_of(w.catalog, {TemplateKind::kPostUpdate});
  shuffle(post_ids, w.seed + 1);

  const auto render = [&](std::size_t v, std::size_t i) {
    if (is_burst(i, v % kPhases)) return shift_burst(v, i);
    if (i >= kUpdateAt && i % 3 == 0) {
      return w.catalog.render_seeded(post_ids[(i / 3) % post_ids.size()],
                                     line_salt(w.seed, v, i));
    }
    return w.catalog.render_seeded(mix_template(pre_ids, v, i),
                                   line_salt(w.seed, v, i));
  };

  LiveInput& in = w.input;
  in.vpes = vpes;
  for (std::size_t i = 0; i < kShiftLines; ++i) {
    for (std::size_t v = 0; v < vpes; ++v) {
      in.add(static_cast<std::uint32_t>(v),
             static_cast<std::int64_t>(i) * kStep, render(v, i));
    }
  }
  in.swap_at = kSwapAt * vpes;
  in.offered_rate = 160000.0;  // ~40% of the 3-worker saturation here
  in.replay_vpes = {0, static_cast<std::uint32_t>(vpes - 1)};

  std::size_t first_post = kUpdateAt;
  while (first_post % 3 != 0) ++first_post;
  for (std::size_t v = 0; v < vpes; ++v) {
    const auto add = [&](std::size_t i, bool timed) {
      Expected e;
      e.vpe = static_cast<std::int32_t>(v);
      e.time = static_cast<std::int64_t>(i) * kStep;
      e.completer = (i + 1) * vpes + v;
      e.timed = timed;
      w.expected.push_back(e);
    };
    for (std::size_t i = 0; i + 1 < kShiftLines; ++i) {
      // The stale model sees every post-update window as novel: one
      // continuous anomaly run (one warning) from the first post-update
      // line until the adapted model is installed absorbs the bursts in
      // between.
      if (i == first_post) add(i, false);
      if ((i + v % kPhases) % kBurstPeriod != 20) continue;
      if (i >= kUpdateAt && i < kSwapAt) continue;
      add(i, true);
    }
  }

  for (const std::int32_t id : pre_ids) {
    w.prime_lines.push_back(w.catalog.render_seeded(id, 0));
  }
  w.model_prime_lines = w.prime_lines.size();

  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<TrainLine> stream;
    for (std::size_t i = 0; i < 400; ++i) {
      const std::size_t phase = vpes + s;
      stream.push_back({static_cast<std::int64_t>(i) * kStep,
                        w.catalog.render_seeded(mix_template(pre_ids, phase, i),
                                                line_salt(w.seed, phase, i)),
                        false});
    }
    w.train.push_back(std::move(stream));
  }
  // Adaptation material: the first vPEs' own histories up to the swap, so
  // that mined template ids line up with the live trees'.
  for (std::size_t v = 0; v < std::min<std::size_t>(8, vpes); ++v) {
    std::vector<TrainLine> stream;
    for (std::size_t i = 0; i < kSwapAt; ++i) {
      stream.push_back(
          {static_cast<std::int64_t>(i) * kStep, render(v, i),
           is_burst(i, v % kPhases)});
    }
    w.adapt.push_back(std::move(stream));
  }
  w.adapt_from = kUpdateAt;
  w.lstm.window = 4;
  w.lstm.embed_dim = 8;
  w.lstm.hidden = 16;
  w.lstm.initial_epochs = 2;
  w.lstm.max_train_windows = 2000;
  w.threshold_quantile = 0.999;
  w.threshold_margin = 6.0;
}

// ---- offline-18mo -----------------------------------------------------

constexpr std::int64_t kMonth = 30 * 86400;
// The figure benches' standard fleet (NFV_BENCH_SEED's default).
constexpr std::uint64_t kFleetSeed = 42;

void make_offline18mo(Workload& w) {
  nfv::simnet::FleetConfig config;
  config.seed = kFleetSeed;
  config.months = w.short_mode ? 3 : 18;
  config.syslog.gap_scale = 3.0;
  const std::uint64_t start = now_ns();
  w.trace = nfv::simnet::simulate_fleet(config);
  // The batch leg evaluates the figure benches' standard fleet with the
  // pipeline's default seed on every run: its work (over-sampling rounds in
  // particular) moves by up to 40% between fleet or pipeline seeds. The
  // seed re-renders the live leg's lines (same templates and times, new
  // variable fields) and seeds its model.
  const auto render = [&](std::size_t v, std::size_t k) {
    return w.trace.catalog.render_seeded(
        w.trace.logs_by_vpe[v][k].true_template, line_salt(w.seed, v, k));
  };

  // Live leg: months 2..5 (short: month 2) of the same trace, streamed in
  // time order to catalog-primed shard trees.
  const std::int64_t leg_begin = kMonth;
  const std::int64_t leg_end = kMonth * (w.short_mode ? 2 : 5);
  struct Ref {
    std::int64_t time;
    std::uint32_t vpe;
    std::uint32_t index;
  };
  std::vector<Ref> order;
  for (std::size_t v = 0; v < w.trace.logs_by_vpe.size(); ++v) {
    const auto& logs = w.trace.logs_by_vpe[v];
    std::vector<TrainLine> month1;
    for (std::size_t k = 0; k < logs.size(); ++k) {
      const std::int64_t t = logs[k].time.seconds;
      if (t < leg_begin && !logs[k].anomalous) {
        month1.push_back({t, render(v, k), false});
      }
      if (t >= leg_begin && t < leg_end) {
        order.push_back({t, static_cast<std::uint32_t>(v),
                         static_cast<std::uint32_t>(k)});
      }
    }
    w.train.push_back(std::move(month1));
  }
  std::stable_sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.vpe < b.vpe;
  });
  LiveInput& in = w.input;
  in.vpes = w.trace.logs_by_vpe.size();
  in.swap_at = order.size() / 2;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Ref& r = order[k];
    if (!w.short_mode && r.time < kMonth * 3) in.swap_at = k + 1;
    in.add(r.vpe, r.time, render(r.vpe, r.index));
  }
  in.offered_rate = 30000.0;  // ~40% of the 3-worker saturation here
  in.replay_vpes = {0, 1};
  w.simulate_s = seconds_since(start);

  for (const auto& t : w.catalog.all()) {
    w.prime_lines.push_back(w.catalog.render_seeded(t.id, 0));
  }
  w.model_prime_lines = w.prime_lines.size();

  // The paper's configuration at bench scale (as the figure benches run
  // it), without over-sampling so training examples can be counted.
  w.lstm.max_train_windows = 3000;
  w.lstm.initial_epochs = 3;
  w.lstm.oversample = false;
  w.threshold_quantile = 0.99;
  w.threshold_margin = 0.0;

  nfv::core::LstmDetectorConfig lstm;
  lstm.max_train_windows = 3000;
  lstm.initial_epochs = 3;
  lstm.update_epochs = 1;
  lstm.adapt_epochs = 3;
  w.pipeline.lstm_config = lstm;
  w.pipeline.threads = nfv::util::ThreadPool::resolve_threads(0);
}

}  // namespace

void LiveInput::add(std::uint32_t v, std::int64_t t, std::string_view line) {
  vpe.push_back(v);
  time.push_back(t);
  offset.push_back(text.size());
  length.push_back(static_cast<std::uint32_t>(line.size()));
  text.append(line);
}

std::size_t LiveInput::buffer_bytes() const {
  return text.size() + vpe.size() * sizeof(std::uint32_t) +
         time.size() * sizeof(std::int64_t) +
         offset.size() * sizeof(std::uint64_t) +
         length.size() * sizeof(std::uint32_t);
}

Workload make_workload(Kind kind, std::uint64_t seed, bool short_mode) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  w.short_mode = short_mode;
  w.catalog = nfv::simnet::TemplateCatalog::standard();
  w.lstm.oversample = false;
  w.lstm.seed = mix(seed + 17);
  const std::uint64_t start = now_ns();
  switch (kind) {
    case Kind::kFleet10k:
      w.name = "fleet-10k";
      make_fleet10k(w);
      break;
    case Kind::kShift64:
      w.name = "shift-64";
      make_shift64(w);
      break;
    case Kind::kOffline18mo:
      w.name = "offline-18mo";
      make_offline18mo(w);
      break;
  }
  if (kind != Kind::kOffline18mo) w.simulate_s = seconds_since(start);
  LiveInput& in = w.input;
  in.vpe.shrink_to_fit();
  in.time.shrink_to_fit();
  in.offset.shrink_to_fit();
  in.length.shrink_to_fit();
  in.text.shrink_to_fit();
  return w;
}

void prime_tree(const Workload& w, SignatureTree& tree) {
  for (const std::string& line : w.prime_lines) tree.learn(line);
}

nfv::core::StreamMonitorConfig monitor_config(const Models& m) {
  nfv::core::StreamMonitorConfig config;
  config.threshold = m.threshold;
  config.window = m.window;
  return config;
}

nfv::core::AsyncIngestConfig runtime_config(std::size_t workers) {
  // The CLI's runtime configuration: library defaults, one producer.
  nfv::core::AsyncIngestConfig config;
  config.workers = workers;
  config.single_producer = true;
  return config;
}

namespace {

std::vector<double> flat_scores(
    const std::vector<std::vector<nfv::core::ScoredEvent>>& events) {
  std::vector<double> out;
  for (const auto& stream : events) {
    for (const auto& e : stream) out.push_back(e.score);
  }
  return out;
}

}  // namespace

Models train_models(const Workload& w) {
  Models m;
  SignatureTree tree;
  for (std::size_t k = 0; k < w.model_prime_lines; ++k) {
    tree.learn(w.prime_lines[k]);
  }
  m.model_vocab = tree.size();
  std::vector<std::vector<ParsedLog>> streams(w.train.size());
  for (std::size_t s = 0; s < w.train.size(); ++s) {
    for (const TrainLine& line : w.train[s]) {
      streams[s].push_back({SimTime{line.time}, tree.learn(line.text)});
    }
  }
  NFV_CHECK(tree.size() == m.model_vocab,
            "training lines must map onto primed templates");
  const std::vector<LogView> views(streams.begin(), streams.end());

  m.window = w.lstm.window;
  m.detector = std::make_unique<nfv::core::LstmDetector>(w.lstm);
  std::uint64_t t = now_ns();
  m.detector->fit(views, m.model_vocab);
  m.fit_s = seconds_since(t);
  std::size_t windows = 0;
  for (const auto& s : streams) {
    windows += s.size() > m.window ? s.size() - m.window : 0;
  }
  m.train_examples = static_cast<double>(
      std::min(windows, w.lstm.max_train_windows) * w.lstm.initial_epochs);

  t = now_ns();
  const std::vector<double> scores =
      flat_scores(m.detector->score_streams(views, m.model_vocab));
  m.calib_s = seconds_since(t);
  m.calib_windows = static_cast<double>(scores.size());
  m.threshold = nfv::util::quantile(scores, w.threshold_quantile) +
                w.threshold_margin;

  if (w.adapt.empty()) {
    m.swap_to = std::make_unique<nfv::core::LstmDetector>(*m.detector);
  } else {
    std::vector<std::vector<ParsedLog>> fresh(w.adapt.size());
    std::size_t vocab = 0;
    for (std::size_t s = 0; s < w.adapt.size(); ++s) {
      SignatureTree replay;
      prime_tree(w, replay);
      for (std::size_t i = 0; i < w.adapt[s].size(); ++i) {
        const TrainLine& line = w.adapt[s][i];
        const std::int32_t id = replay.learn(line.text);
        if (i >= w.adapt_from && !line.burst) {
          fresh[s].push_back({SimTime{line.time}, id});
        }
      }
      NFV_CHECK(vocab == 0 || vocab == replay.size(),
                "adaptation streams disagree on template ids");
      vocab = replay.size();
    }
    const std::vector<LogView> fresh_views(fresh.begin(), fresh.end());
    m.swap_to = std::make_unique<nfv::core::LstmDetector>(*m.detector);
    m.swap_to->adapt(fresh_views, vocab);
    const std::vector<double> adapted =
        flat_scores(m.swap_to->score_streams(fresh_views, vocab));
    m.threshold = std::max(m.threshold,
                           nfv::util::quantile(adapted, w.threshold_quantile) +
                               w.threshold_margin);
  }

  SignatureTree primed;
  prime_tree(w, primed);
  m.primed_size = primed.size();
  return m;
}

System set_up(const Workload& w, std::size_t workers) {
  System sys;
  const std::uint64_t start = now_ns();
  sys.models = train_models(w);
  const Models& m = sys.models;
  sys.ingest = std::make_unique<nfv::core::AsyncIngest>(
      m.detector.get(), runtime_config(workers));
  for (std::size_t v = 0; v < w.input.vpes; ++v) {
    const std::size_t shard =
        sys.ingest->add_shard(static_cast<std::int32_t>(v), monitor_config(m));
    prime_tree(w, sys.ingest->mutable_tree(shard));
  }
  sys.ingest->start();
  sys.setup_s = seconds_since(start);
  return sys;
}

}  // namespace perfbench
