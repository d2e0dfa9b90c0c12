#include "passes.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <unordered_map>

#include "logproc/shared_forest.h"
#include "util/interner.h"

namespace perfbench {
namespace {

using nfv::core::StreamWarning;
using nfv::util::SimTime;

constexpr std::uint64_t kPollEveryNs = 10'000;
constexpr std::uint64_t kBacklogEveryNs = 5'000'000;

std::string line_copy(const LiveInput& in, std::size_t i) {
  return std::string(in.line(i));
}

/// Sets the calling thread's timer slack to 1 ns while alive, so that a
/// sleep of a few microseconds ends when asked (the default slack, 50 µs,
/// would exceed the poll interval).
class FineTimerSlack {
 public:
  FineTimerSlack() : old_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  }
  ~FineTimerSlack() {
    if (old_ > 0) prctl(PR_SET_TIMERSLACK, old_, 0, 0, 0);
  }
  FineTimerSlack(const FineTimerSlack&) = delete;
  FineTimerSlack& operator=(const FineTimerSlack&) = delete;

 private:
  int old_;
};

/// Samples snapshot() from its own thread while alive (runtime.queue_depth
/// gauges); joins on destruction.
class SnapshotSampler {
 public:
  SnapshotSampler(const nfv::core::AsyncIngest& ingest, bool enabled,
                  std::vector<double>& out) {
    if (!enabled) return;
    thread_ = std::thread([this, &ingest, &out] {
      while (!stop_.load(std::memory_order_acquire)) {
        const nfv::core::RuntimeStatsSnapshot snap = ingest.snapshot();
        double depth = 0.0;
        for (const auto& worker : snap.workers) {
          depth += static_cast<double>(worker.queue.depth);
        }
        out.push_back(depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~SnapshotSampler() { stop(); }
  SnapshotSampler(const SnapshotSampler&) = delete;
  SnapshotSampler& operator=(const SnapshotSampler&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::uint64_t warning_key(std::int32_t vpe, std::int64_t time) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vpe)) << 32) ^
         static_cast<std::uint64_t>(time);
}

bool same_warning(const StreamWarning& a, const StreamWarning& b) {
  return a.vpe == b.vpe && a.time.seconds == b.time.seconds &&
         a.anomaly_count == b.anomaly_count && a.peak_score == b.peak_score &&
         a.trigger_template == b.trigger_template;
}

}  // namespace

double rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

RssSampler::RssSampler() {
  peak_.store(rss_bytes());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      const double rss = rss_bytes();
      if (rss > peak_.load(std::memory_order_relaxed)) {
        peak_.store(rss, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

RssSampler::~RssSampler() { stop(); }

double RssSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return std::max(peak_.load(), rss_bytes());
}

SaturationResult run_saturation(const Workload& w, System& sys,
                                bool time_submits, Tracer& tracer) {
  nfv::core::AsyncIngest& ingest = *sys.ingest;
  const LiveInput& in = w.input;
  SaturationResult r;
  std::uint64_t submit_ns = 0;
  RssSampler rss;
  const std::int32_t span = tracer.open("runtime.saturation");
  const std::uint64_t start = now_ns();
  std::uint64_t window_start = start;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i == in.swap_at) {
      const std::uint64_t t = now_ns();
      ingest.swap_detector(sys.models.swap_to.get());
      r.swap_ms = static_cast<double>(now_ns() - t) * 1e-6;
    }
    if (i != 0 && i % kRateWindowLines == 0) {
      const std::uint64_t t = now_ns();
      r.window_lines_per_s.push_back(static_cast<double>(kRateWindowLines) /
                                     (static_cast<double>(t - window_start) *
                                      1e-9));
      window_start = t;
    }
    std::string line = line_copy(in, i);
    if (time_submits) {
      const std::uint64_t t = now_ns();
      ingest.submit(in.vpe[i], SimTime{in.time[i]}, std::move(line));
      submit_ns += now_ns() - t;
    } else {
      ingest.submit(in.vpe[i], SimTime{in.time[i]}, std::move(line));
    }
  }
  ingest.flush();
  r.wall_s = seconds_since(start);
  tracer.close(span);
  r.peak_rss = rss.stop();
  r.lines_per_s = static_cast<double>(in.size()) / r.wall_s;
  r.submit_s = static_cast<double>(submit_ns) * 1e-9;
  r.snapshot = ingest.snapshot();
  ingest.stop();
  ingest.drain_warnings(r.warnings);
  return r;
}

OpenLoopResult run_open_loop(const Workload& w, System& sys,
                             bool sample_snapshots, Tracer& tracer) {
  nfv::core::AsyncIngest& ingest = *sys.ingest;
  const LiveInput& in = w.input;
  OpenLoopResult r;
  r.period_ns = 1e9 / in.offered_rate;
  r.late_ms.resize(in.size());
  std::vector<StreamWarning> batch;
  nfv::core::LatencyHistogram poll_gaps;
  std::uint64_t next_poll = 0;
  std::uint64_t last_poll = 0;
  std::uint64_t next_backlog = 0;
  // Time the runtime held the generator inside its calls (submit, drain,
  // stats, swap) belongs to the program; lateness and poll gaps are judged
  // on the generator's own time only.
  std::uint64_t busy_until = 0;  // when the last runtime call returned
  std::uint64_t held_ns = 0;     // total time inside runtime calls
  std::uint64_t held_at_poll = 0;
  const auto poll = [&](std::uint64_t now) {
    batch.clear();
    ingest.drain_warnings(batch);
    std::uint64_t after = now_ns();
    for (const StreamWarning& warning : batch) {
      r.warnings.push_back(warning);
      r.drained_ns.push_back(after);
    }
    if (last_poll != 0) {
      const std::uint64_t gap = now - last_poll;
      const std::uint64_t held = held_ns - held_at_poll;
      poll_gaps.record(gap > held ? gap - held : 0);
    }
    last_poll = now;
    held_at_poll = held_ns;
    next_poll = now + kPollEveryNs;
    if (now >= next_backlog) {
      const nfv::core::AsyncIngestStats stats = ingest.stats();
      r.backlog.push_back(
          static_cast<double>(stats.lines_submitted - stats.lines_scored));
      next_backlog = now + kBacklogEveryNs;
      after = now_ns();
    }
    held_ns += after - now;
    busy_until = after;
  };

  // The generator sleeps until its next line is due or its next poll,
  // instead of spinning: a spinning generator holds one of the four cores
  // the three workers also need, and their wait for it showed as
  // warning-latency tail.
  const FineTimerSlack slack;
  RssSampler rss;
  SnapshotSampler sampler(ingest, sample_snapshots, r.queue_depth);
  const std::int32_t span = tracer.open("runtime.open_loop");
  r.start_ns = now_ns() + 1'000'000;
  next_poll = r.start_ns;
  next_backlog = r.start_ns;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t due =
        r.start_ns +
        static_cast<std::uint64_t>(static_cast<double>(i) * r.period_ns);
    std::uint64_t now = now_ns();
    while (now < due) {
      if (now >= next_poll) {
        poll(now);
      } else {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(due, next_poll) - now));
      }
      now = now_ns();
    }
    if (i == in.swap_at) {
      ingest.swap_detector(sys.models.swap_to.get());
      const std::uint64_t done = now_ns();
      r.swap_ms = static_cast<double>(done - now) * 1e-6;
      held_ns += done - now;
      busy_until = done;
      now = done;
    }
    const std::uint64_t free_from = std::max(due, busy_until);
    r.late_ms[i] =
        now > free_from ? static_cast<double>(now - free_from) * 1e-6 : 0.0;
    ingest.submit(in.vpe[i], SimTime{in.time[i]}, line_copy(in, i));
    const std::uint64_t after = now_ns();
    held_ns += after - now;
    busy_until = after;
    if (after >= next_poll) poll(after);
  }
  ingest.flush();
  poll(now_ns());
  r.wall_s = static_cast<double>(now_ns() - r.start_ns) * 1e-9;
  tracer.close(span);
  sampler.stop();
  r.peak_rss = rss.stop();
  r.poll_gaps.buckets = poll_gaps.buckets();

  const nfv::core::RuntimeStatsSnapshot snap = ingest.snapshot();
  r.scored_p99_ms = snap.merged_latency().p99() * 1e-6;
  for (const auto& worker : snap.workers) r.stalls += worker.queue.stalls;
  ingest.stop();
  batch.clear();
  ingest.drain_warnings(batch);
  const std::uint64_t after = now_ns();
  for (const StreamWarning& warning : batch) {
    r.warnings.push_back(warning);
    r.drained_ns.push_back(after);
  }
  return r;
}

DecompositionResult run_decomposition(const Workload& w, const Models& m,
                                      std::size_t flush_batch, bool traced,
                                      bool keep_scores, Tracer& tracer) {
  const LiveInput& in = w.input;
  DecompositionResult r;

  // The runtime's layout: one token arena and template forest shared by
  // every shard tree.
  nfv::util::SharedInterner arena;
  nfv::logproc::SharedSignatureForest forest(&arena);
  std::vector<std::unique_ptr<nfv::logproc::SignatureTree>> trees;
  std::vector<std::unique_ptr<nfv::core::StreamMonitor>> monitors;
  std::vector<std::vector<StreamWarning>> per_vpe(in.vpes);
  TimedDetector timed(m.detector.get(), &tracer);
  const nfv::core::AnomalyDetector* scorer =
      traced ? static_cast<const nfv::core::AnomalyDetector*>(&timed)
             : m.detector.get();
  nfv::core::StreamMonitorGroup group(scorer);
  for (std::size_t v = 0; v < in.vpes; ++v) {
    trees.push_back(std::make_unique<nfv::logproc::SignatureTree>(
        nfv::logproc::SignatureTreeConfig{}, &arena, &forest));
    prime_tree(w, *trees.back());
    auto* sink = &per_vpe[v];
    monitors.push_back(std::make_unique<nfv::core::StreamMonitor>(
        static_cast<std::int32_t>(v), scorer, trees.back().get(),
        monitor_config(m),
        [sink](const StreamWarning& warning) { sink->push_back(warning); }));
    group.add(monitors.back().get());
  }
  if (keep_scores) r.scores.reserve(in.size());

  const std::int32_t pass =
      traced ? tracer.open("decomposition") : Tracer::kNoParent;
  std::size_t staged = 0;
  const auto flush = [&] {
    if (staged == 0) return;
    std::vector<double> scores;
    if (traced) {
      const std::int32_t span = tracer.open("core.flush", pass);
      timed.set_parent(span);
      const std::uint64_t t = now_ns();
      scores = group.flush();
      r.flush_ns += now_ns() - t;
      tracer.close(span);
    } else {
      scores = group.flush();
    }
    if (keep_scores) r.scores.insert(r.scores.end(), scores.begin(), scores.end());
    ++r.flushes;
    staged = 0;
  };

  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint32_t v = in.vpe[i];
    if (i == in.swap_at) {
      // Same epoch rule as the runtime: nothing staged across a swap.
      flush();
      if (traced) {
        timed.set_inner(m.swap_to.get());
      } else {
        group.set_detector(m.swap_to.get());
      }
      for (auto& monitor : monitors) monitor->set_detector(group.detector());
    }
    if (traced) {
      const std::uint64_t t0 = now_ns();
      const std::int32_t id = trees[v]->learn(in.line(i));
      const std::uint64_t t1 = now_ns();
      group.ingest_parsed(v, {SimTime{in.time[i]}, id});
      const std::uint64_t t2 = now_ns();
      r.mine_ns += t1 - t0;
      r.stage_ns += t2 - t1;
    } else {
      const std::int32_t id = trees[v]->learn(in.line(i));
      group.ingest_parsed(v, {SimTime{in.time[i]}, id});
    }
    if (++staged == flush_batch) flush();
  }
  flush();
  r.wall_s = seconds_since(start);
  tracer.close(pass);

  r.score_ns = timed.ns();
  r.score_calls = timed.calls();
  r.windows = timed.windows();
  for (const auto& tree : trees) {
    r.templates_learned += tree->size() - m.primed_size;
  }
  for (auto& warnings : per_vpe) {
    r.warnings.insert(r.warnings.end(), warnings.begin(), warnings.end());
  }
  return r;
}

std::vector<StreamWarning> serial_replay(const Workload& w, const Models& m) {
  const LiveInput& in = w.input;
  std::vector<std::uint32_t> vpes = in.replay_vpes;
  std::sort(vpes.begin(), vpes.end());
  std::vector<int> slot(in.vpes, -1);
  std::vector<std::unique_ptr<nfv::logproc::SignatureTree>> trees;
  std::vector<std::unique_ptr<nfv::core::StreamMonitor>> monitors;
  std::vector<std::vector<StreamWarning>> per_vpe(vpes.size());
  for (std::size_t k = 0; k < vpes.size(); ++k) {
    slot[vpes[k]] = static_cast<int>(k);
    trees.push_back(std::make_unique<nfv::logproc::SignatureTree>());
    prime_tree(w, *trees.back());
    auto* sink = &per_vpe[k];
    monitors.push_back(std::make_unique<nfv::core::StreamMonitor>(
        static_cast<std::int32_t>(vpes[k]), m.detector.get(),
        trees.back().get(), monitor_config(m),
        [sink](const StreamWarning& warning) { sink->push_back(warning); }));
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i == in.swap_at) {
      for (auto& monitor : monitors) monitor->set_detector(m.swap_to.get());
    }
    const int k = slot[in.vpe[i]];
    if (k >= 0) monitors[k]->ingest(SimTime{in.time[i]}, in.line(i));
  }
  std::vector<StreamWarning> out;
  for (auto& warnings : per_vpe) {
    out.insert(out.end(), warnings.begin(), warnings.end());
  }
  return out;
}

std::vector<Expected> expected_from_reference(const Workload& w,
                                              const Models& m,
                                              const DecompositionResult& ref) {
  const LiveInput& in = w.input;
  std::vector<std::vector<std::size_t>> lines_of(in.vpes);
  for (std::size_t i = 0; i < in.size(); ++i) lines_of[in.vpe[i]].push_back(i);
  std::vector<Expected> out;
  std::size_t cursor = 0;
  std::int32_t cursor_vpe = -1;
  for (const StreamWarning& warning : ref.warnings) {
    const auto& lines = lines_of[static_cast<std::size_t>(warning.vpe)];
    if (warning.vpe != cursor_vpe) {
      cursor = 0;
      cursor_vpe = warning.vpe;
    }
    // The cluster's first anomaly, then the next anomaly of the same vPE:
    // the line whose scoring raised the warning.
    Expected e;
    e.vpe = warning.vpe;
    e.time = warning.time.seconds;
    e.full = warning;
    e.has_full = true;
    e.timed = false;
    while (cursor < lines.size() &&
           !(in.time[lines[cursor]] == e.time &&
             ref.scores[lines[cursor]] >= m.threshold)) {
      ++cursor;
    }
    for (std::size_t k = cursor + 1; k < lines.size(); ++k) {
      if (ref.scores[lines[k]] >= m.threshold) {
        e.completer = lines[k];
        e.timed = true;
        cursor = k;
        break;
      }
    }
    out.push_back(e);
  }
  return out;
}

CheckResult check_warnings(const Workload& w,
                           const std::vector<Expected>& expected,
                           const std::vector<StreamWarning>& replay,
                           const std::vector<StreamWarning>& got) {
  CheckResult c;
  c.completer.assign(got.size(), kNoCompleter);
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    index.emplace(warning_key(expected[k].vpe, expected[k].time), k);
  }
  const double unknown_score = w.lstm.unknown_score;
  std::vector<char> matched(expected.size(), 0);
  for (std::size_t j = 0; j < got.size(); ++j) {
    const StreamWarning& g = got[j];
    const auto it = index.find(warning_key(g.vpe, g.time.seconds));
    if (it == index.end() || matched[it->second]) {
      ++c.extra;
      continue;
    }
    matched[it->second] = 1;
    const Expected& e = expected[it->second];
    // The analytic oracle knows every cluster completes at its second
    // anomaly, and that both score as unknown templates.
    const bool same = e.has_full ? same_warning(e.full, g)
                                 : g.anomaly_count == 2 &&
                                       g.peak_score == unknown_score;
    if (!same) {
      ++c.differing;
    } else if (e.timed) {
      c.completer[j] = e.completer;
    }
  }
  for (const char m : matched) c.missing += m ? 0 : 1;

  // Field-for-field against the serial replay subset, in per-vPE order.
  const std::vector<StreamWarning> merged =
      nfv::core::merge_warnings_by_vpe(got);
  std::vector<StreamWarning> subset;
  const std::vector<std::uint32_t>& vpes = w.input.replay_vpes;
  for (const StreamWarning& g : merged) {
    if (std::find(vpes.begin(), vpes.end(),
                  static_cast<std::uint32_t>(g.vpe)) != vpes.end()) {
      subset.push_back(g);
    }
  }
  const std::size_t common = std::min(subset.size(), replay.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (!same_warning(subset[k], replay[k])) ++c.replay_mismatch;
  }
  c.replay_mismatch += std::max(subset.size(), replay.size()) - common;

  c.attempted = expected.size() + replay.size();
  c.failed = c.missing + c.extra + c.differing + c.replay_mismatch;
  return c;
}

}  // namespace perfbench
