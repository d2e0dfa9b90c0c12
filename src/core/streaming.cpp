#include "core/streaming.h"

#include <algorithm>

#include "util/check.h"

namespace nfv::core {

StreamMonitor::StreamMonitor(std::int32_t vpe,
                             const AnomalyDetector* detector,
                             logproc::SignatureTree* tree,
                             StreamMonitorConfig config,
                             WarningCallback on_warning)
    : vpe_(vpe),
      detector_(detector),
      tree_(tree),
      config_(config),
      on_warning_(std::move(on_warning)) {
  NFV_CHECK(detector != nullptr, "StreamMonitor requires a detector");
  NFV_CHECK(tree != nullptr, "StreamMonitor requires a signature tree");
  NFV_CHECK(config.window >= 1, "window must be >= 1");
}

void StreamMonitor::set_detector(const AnomalyDetector* detector) {
  NFV_CHECK(detector != nullptr, "detector must not be null");
  detector_ = detector;
}

void StreamMonitor::set_threshold(double threshold) {
  config_.threshold = threshold;
}

double StreamMonitor::ingest(nfv::util::SimTime time,
                             std::string_view raw_line) {
  logproc::ParsedLog log;
  log.time = time;
  log.template_id = tree_->learn(raw_line);  // online template mining
  return ingest_parsed(log);
}

double StreamMonitor::ingest_parsed(const logproc::ParsedLog& log) {
  // scratch_window_ is a member so steady-state per-line ingestion reuses
  // its capacity instead of allocating a fresh window vector every line.
  if (!stage_parsed(log, scratch_window_)) return 0.0;

  // One-window scoring: the detector sees exactly (k history + this log).
  const std::vector<ScoredEvent> events =
      detector_->score(scratch_window_, tree_->size());
  if (events.empty()) return 0.0;  // document-based detectors need more
  const double score = events.back().score;
  apply_score(log.time, log.template_id, score);
  return score;
}

bool StreamMonitor::stage_parsed(const logproc::ParsedLog& log,
                                 std::vector<logproc::ParsedLog>& window) {
  ++lines_ingested_;  // both ingestion paths funnel through here
  history_.push_back(log);
  if (history_.size() > config_.window + 1) history_.pop_front();
  if (history_.size() < config_.window + 1) return false;
  window.assign(history_.begin(), history_.end());
  return true;
}

void StreamMonitor::apply_score(nfv::util::SimTime time,
                                std::int32_t template_id, double score) {
  if (score >= config_.threshold) {
    track_cluster(time, score, template_id);
  }
}

void StreamMonitor::track_cluster(nfv::util::SimTime time, double score,
                                  std::int32_t template_id) {
  // Ordering contract (see ingest()): timestamps regressing below the
  // run's latest anomaly are clamped to it. Without the clamp a single
  // out-of-order line would become the gap reference for the NEXT
  // in-order anomaly, whose (in-order) timestamp could then look more
  // than cluster_span away — spuriously splitting a live cluster — and
  // with an unsigned Duration representation the negative gap itself
  // would underflow. SimTime/Duration are signed int64 seconds, so the
  // subtraction is well-defined; the clamp removes the semantic hazard.
  if (run_count_ > 0 && time < run_last_) time = run_last_;
  if (run_count_ > 0 && time - run_last_ > config_.cluster_span) {
    run_count_ = 0;
    run_peak_ = 0.0;
    run_trigger_ = -1;
    run_reported_ = false;
  }
  if (run_count_ == 0) {
    run_trigger_ = template_id;
    run_first_ = time;
  }
  run_last_ = time;
  ++run_count_;
  run_peak_ = std::max(run_peak_, score);
  if (!run_reported_ && run_count_ >= config_.min_cluster_size) {
    run_reported_ = true;
    ++warnings_raised_;
    if (on_warning_) {
      StreamWarning warning;
      warning.vpe = vpe_;
      warning.time = run_first_;
      warning.anomaly_count = run_count_;
      warning.peak_score = run_peak_;
      warning.trigger_template = run_trigger_;
      on_warning_(warning);
    }
  }
}

StreamMonitorGroup::StreamMonitorGroup(const AnomalyDetector* detector)
    : detector_(detector) {
  NFV_CHECK(detector != nullptr, "StreamMonitorGroup requires a detector");
}

std::size_t StreamMonitorGroup::add(StreamMonitor* monitor) {
  NFV_CHECK(monitor != nullptr, "cannot add a null monitor");
  monitors_.push_back(monitor);
  return monitors_.size() - 1;
}

void StreamMonitorGroup::set_detector(const AnomalyDetector* detector) {
  NFV_CHECK(detector != nullptr, "detector must not be null");
  NFV_CHECK(entries_.empty(),
            "detector swap with staged entries pending; flush() first");
  detector_ = detector;
}

void StreamMonitorGroup::ingest(std::size_t shard, nfv::util::SimTime time,
                                std::string_view raw_line) {
  NFV_CHECK(shard < monitors_.size(), "unknown shard " << shard);
  logproc::ParsedLog log;
  log.time = time;
  log.template_id = monitors_[shard]->tree().learn(raw_line);
  ingest_parsed(shard, log);
}

void StreamMonitorGroup::ingest_parsed(std::size_t shard,
                                       const logproc::ParsedLog& log) {
  NFV_CHECK(shard < monitors_.size(), "unknown shard " << shard);
  PendingEntry entry;
  entry.shard = shard;
  entry.time = log.time;
  entry.template_id = log.template_id;
  // Captured AFTER any online mining for this line, matching the
  // tree_->size() an immediate ingest_parsed() would score with.
  entry.vocab = monitors_[shard]->tree().size();
  if (windows_used_ == windows_.size()) windows_.emplace_back();
  if (monitors_[shard]->stage_parsed(log, windows_[windows_used_])) {
    entry.window = windows_used_;
    ++windows_used_;
  }
  entries_.push_back(entry);
}

std::vector<double> StreamMonitorGroup::flush() {
  std::vector<double> scores(entries_.size(), 0.0);
  if (entries_.empty()) return scores;

  // Micro-batch sample tap (online retrain): every staged entry — warm-up
  // lines included, they are part of the template sequence — in arrival
  // order, before any scoring so a tap can never perturb scores.
  if (sample_tap_) {
    for (const PendingEntry& entry : entries_) {
      sample_tap_(entry.shard, entry.time, entry.template_id);
    }
  }

  if (windows_used_ > 0) {
    // Fused cross-shard batches: every staged window becomes one
    // single-window stream, and score_streams packs them into one flat
    // window batch for the forward pass. Windows are bucketed by the
    // vocabulary captured at stage time: immediate ingestion passes each
    // shard's OWN tree size at that moment, never the max across shards,
    // and the "scores are identical" contract above requires batching to
    // preserve that. In steady state the vocabulary is stable, so this is
    // one bucket — one fused batch — per flush.
    window_score_.assign(windows_used_, 0.0);
    window_scored_.assign(windows_used_, 0);
    vocabs_.clear();
    for (const PendingEntry& entry : entries_) {
      if (entry.window == PendingEntry::npos) continue;
      std::size_t b = 0;
      while (b < vocabs_.size() && vocabs_[b] != entry.vocab) ++b;
      if (b == vocabs_.size()) {
        vocabs_.push_back(entry.vocab);
        if (b == buckets_.size()) buckets_.emplace_back();
        buckets_[b].clear();
      }
      buckets_[b].push_back(entry.window);
    }
    for (std::size_t b = 0; b < vocabs_.size(); ++b) {
      views_.clear();
      views_.reserve(buckets_[b].size());
      for (std::size_t w : buckets_[b]) views_.emplace_back(windows_[w]);
      const std::vector<std::vector<ScoredEvent>> events_by_window =
          detector_->score_streams(views_, vocabs_[b]);
      for (std::size_t j = 0; j < buckets_[b].size(); ++j) {
        if (events_by_window[j].empty()) continue;  // document detectors
        window_score_[buckets_[b][j]] = events_by_window[j].back().score;
        window_scored_[buckets_[b][j]] = 1;
      }
    }

    // Replay in arrival order: identical threshold / cluster tracking to
    // immediate ingestion.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const PendingEntry& entry = entries_[i];
      if (entry.window == PendingEntry::npos) continue;
      if (!window_scored_[entry.window]) continue;
      const double score = window_score_[entry.window];
      scores[i] = score;
      monitors_[entry.shard]->apply_score(entry.time, entry.template_id,
                                          score);
    }
  }
  entries_.clear();
  windows_used_ = 0;
  return scores;
}

const char* to_string(OperationalScenario scenario) {
  switch (scenario) {
    case OperationalScenario::kPredictiveSignal:
      return "predictive-signal";
    case OperationalScenario::kEarlyDetection:
      return "early-detection";
    case OperationalScenario::kPartOfTrigger:
      return "part-of-trigger";
    case OperationalScenario::kCoincidental:
      return "coincidental";
  }
  return "unknown";
}

OperationalScenario classify_scenario(const MappedAnomaly& anomaly,
                                      const ScenarioThresholds& thresholds) {
  switch (anomaly.outcome) {
    case AnomalyOutcome::kError:
      return OperationalScenario::kPartOfTrigger;
    case AnomalyOutcome::kFalseAlarm:
      return OperationalScenario::kCoincidental;
    case AnomalyOutcome::kEarlyWarning:
      return anomaly.lead >= thresholds.predictive_lead
                 ? OperationalScenario::kPredictiveSignal
                 : OperationalScenario::kEarlyDetection;
  }
  return OperationalScenario::kCoincidental;
}

std::vector<std::size_t> scenario_histogram(
    const MappingResult& mapping, const ScenarioThresholds& thresholds) {
  std::vector<std::size_t> counts(4, 0);
  for (const MappedAnomaly& anomaly : mapping.anomalies) {
    counts[static_cast<std::size_t>(
        classify_scenario(anomaly, thresholds))] += 1;
  }
  return counts;
}

}  // namespace nfv::core
