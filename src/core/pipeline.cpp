#include "core/pipeline.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace nfv::core {

using logproc::ParsedLog;
using logproc::TimeInterval;
using nfv::util::Duration;
using nfv::util::Rng;
using nfv::util::SimTime;

std::vector<simnet::Ticket> tickets_in_window(const simnet::FleetTrace& trace,
                                              std::int32_t vpe, SimTime begin,
                                              SimTime end,
                                              Duration predictive_period) {
  std::vector<simnet::Ticket> out;
  for (const simnet::Ticket& ticket : trace.tickets) {
    if (ticket.vpe != vpe) continue;
    // Mapping-relevant span of the ticket: [report − P, repair_finish].
    if (ticket.report - predictive_period < end &&
        ticket.repair_finish >= begin) {
      out.push_back(ticket);
    }
  }
  return out;
}

namespace {

struct GroupState {
  std::vector<std::int32_t> members;
  std::unique_ptr<AnomalyDetector> detector;
  double threshold = 0.0;
};

/// One fork-join round of run_pipeline: pool.parallel_invoke runs every
/// task once, each claimed on its own.
using Tasks = std::vector<std::function<void()>>;

/// Normal (training) logs of one vPE in a window: ticket vicinity removed.
std::vector<ParsedLog> normal_logs(
    const ParsedFleet& parsed,
    const std::vector<std::vector<TimeInterval>>& exclusions, std::int32_t vpe,
    SimTime begin, SimTime end) {
  const std::vector<ParsedLog> window = logproc::slice_time(
      parsed.logs_by_vpe[static_cast<std::size_t>(vpe)], begin, end);
  return logproc::exclude_intervals(
      window, exclusions[static_cast<std::size_t>(vpe)]);
}

/// Threshold recalibration spread over the pool one stream at a time. A
/// group's operating threshold becomes a quantile of its detector's
/// scores on the group's calibration streams, concatenated in stream
/// order. Scores are batch-invariant, so this is the quantile one batched
/// call over all of the group's streams gives.
class Calibration {
 public:
  /// Cap on calibration work: the quantile is stable well below full
  /// coverage, so only each stream's newest logs are scored.
  static constexpr std::size_t kMaxLogsPerStream = 3000;

  /// Queue one calibration stream of `group`; a group's streams are
  /// queued in order. The stream must outlive apply().
  void add(std::size_t group, LogView stream) {
    streams_.push_back({group, stream});
  }

  /// Append one scoring task per queued stream, scored by its group's
  /// entry of `models`; no model may change until the tasks have run.
  void schedule(std::vector<const AnomalyDetector*> models, Tasks& tasks) {
    models_ = std::move(models);
    scores_.assign(streams_.size(), {});
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      tasks.push_back([this, i] {
        const auto& [group, stream] = streams_[i];
        const std::size_t take =
            std::min(stream.size(), kMaxLogsPerStream);
        for (const ScoredEvent& event :
             models_[group]->score(stream.last(take), 0)) {
          scores_[i].push_back(event.score);
        }
      });
    }
  }

  /// Set every calibrated group's threshold; a group whose streams gave
  /// no score keeps its previous one.
  void apply(std::vector<GroupState>& groups, double quantile_q) {
    std::vector<std::vector<double>> by_group(groups.size());
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      std::vector<double>& scores = by_group[streams_[i].group];
      scores.insert(scores.end(), scores_[i].begin(), scores_[i].end());
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (by_group[g].empty()) continue;
      groups[g].threshold = nfv::util::quantile(by_group[g], quantile_q);
    }
    streams_.clear();
    scores_.clear();
  }

 private:
  struct Stream {
    std::size_t group;
    LogView logs;
  };
  std::vector<Stream> streams_;
  std::vector<const AnomalyDetector*> models_;
  std::vector<std::vector<double>> scores_;
};

/// Merge per-month ticket detections (a ticket straddling two months is
/// mapped in both) into one row per ticket.
std::vector<TicketDetection> merge_detections(
    std::span<const TicketDetection> raw) {
  std::map<std::int64_t, TicketDetection> merged;
  for (const TicketDetection& detection : raw) {
    auto [it, inserted] = merged.emplace(detection.ticket_id, detection);
    if (inserted) continue;
    TicketDetection& existing = it->second;
    existing.detected = existing.detected || detection.detected;
    if (detection.detected_before) {
      existing.best_lead = existing.detected_before
                               ? std::max(existing.best_lead,
                                          detection.best_lead)
                               : detection.best_lead;
      existing.detected_before = true;
    }
    if (detection.detected_after) {
      existing.first_error_delay =
          existing.detected_after
              ? std::min(existing.first_error_delay,
                         detection.first_error_delay)
              : detection.first_error_delay;
      existing.detected_after = true;
    }
    existing.anomaly_count += detection.anomaly_count;
  }
  std::vector<TicketDetection> out;
  out.reserve(merged.size());
  for (auto& [id, detection] : merged) out.push_back(detection);
  return out;
}

}  // namespace

PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options) {
  return run_pipeline(
      trace, parsed, options,
      [&options](std::uint64_t seed) -> std::unique_ptr<AnomalyDetector> {
        if (options.detector != DetectorKind::kLstm) {
          return make_detector(options.detector, seed);
        }
        LstmDetectorConfig config =
            options.lstm_config.value_or(LstmDetectorConfig{});
        config.oversample = options.oversample;
        config.persistent_optimizer = options.persistent_optimizer;
        if (options.quantize) config.quantize = true;
        config.seed = seed;
        return std::make_unique<LstmDetector>(config);
      });
}

PipelineResult run_pipeline(const simnet::FleetTrace& trace,
                            const ParsedFleet& parsed,
                            const PipelineOptions& options,
                            const DetectorFactory& make) {
  const auto n = static_cast<std::size_t>(trace.num_vpes());
  const int months = trace.config.months;
  NFV_CHECK(options.initial_train_months >= 1 &&
                options.initial_train_months < months,
            "initial_train_months must leave at least one test month");
  Rng rng(options.seed);

  // Fork-join pool. Work is spread per vPE stream, not per group: every
  // scoring and calibration pass is one task per (group, member stream),
  // and only fit/adapt/update, which train one group's model, stay one
  // task per group. Determinism for every thread count holds because
  // (a) each group owns its detector and an explicitly split RNG stream
  // (seed + 100·(g+1)), (b) scores are batch-invariant, so a stream scored
  // alone equals its slot of a fused per-group call, (c) every task
  // writes only its own pre-sized slot, and (d) slots are merged in
  // group-major order after each round.
  nfv::util::ThreadPool pool(options.threads);
  // A one-thread run is serial all the way down: the region marker keeps
  // every ml kernel underneath on this thread instead of row-blocking its
  // large products onto the auto-sized global pool.
  std::optional<nfv::util::ThreadPool::ScopedRegion> serial_kernels;
  if (pool.size() == 1) serial_kernels.emplace();
  Tasks tasks;
  const auto run = [&pool, &tasks] {
    pool.parallel_invoke(tasks);
    tasks.clear();
  };

  PipelineResult result;

  // --- Customization: group the vPEs. ---
  const SimTime train_end =
      nfv::util::month_start(options.initial_train_months);
  if (options.customize) {
    Rng cluster_rng = rng.fork(1);
    result.clustering = cluster_vpes(parsed, SimTime::epoch(), train_end,
                                     options.clustering, cluster_rng);
  } else {
    result.clustering = single_group(n);
  }

  // --- Exclusion windows (±3 days around every ticket). ---
  std::vector<std::vector<TimeInterval>> exclusions(n);
  for (std::size_t v = 0; v < n; ++v) {
    exclusions[v] = ticket_exclusion_windows(
        trace, static_cast<std::int32_t>(v), options.exclusion_margin);
  }

  // --- Group construction. ---
  std::vector<GroupState> groups(result.clustering.num_groups);
  for (std::size_t v = 0; v < n; ++v) {
    groups[static_cast<std::size_t>(result.clustering.group_of_vpe[v])]
        .members.push_back(static_cast<std::int32_t>(v));
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].detector = make(options.seed + 100 * (g + 1));
  }
  // Training tasks start largest group first, so the longest one never
  // waits behind shorter ones.
  std::vector<std::size_t> by_size(groups.size());
  std::iota(by_size.begin(), by_size.end(), std::size_t{0});
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&groups](std::size_t a, std::size_t b) {
                     return groups[a].members.size() >
                            groups[b].members.size();
                   });

  // Each vPE's normal logs in the current training window, filled by its
  // group's training task. Once every group has trained they move to
  // `calibrating`: a new model is calibrated on its training data in the
  // next round that scores with it, the next month's first.
  std::vector<std::vector<ParsedLog>> normal(n);
  std::vector<std::vector<ParsedLog>> calibrating;
  const auto fill_normal = [&](std::size_t g, SimTime begin, SimTime end) {
    std::vector<LogView> views;
    for (std::int32_t v : groups[g].members) {
      std::vector<ParsedLog>& slot = normal[static_cast<std::size_t>(v)];
      slot = normal_logs(parsed, exclusions, v, begin, end);
      views.emplace_back(slot);
    }
    return views;
  };
  Calibration calibration;
  const auto queue_calibration = [&] {
    calibrating = std::move(normal);
    normal.assign(n, {});
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::int32_t v : groups[g].members) {
        calibration.add(g, calibrating[static_cast<std::size_t>(v)]);
      }
    }
  };
  const auto live_models = [&groups] {
    std::vector<const AnomalyDetector*> models;
    for (const GroupState& group : groups) {
      models.push_back(group.detector.get());
    }
    return models;
  };

  // --- Initial fit. ---
  const std::size_t vocab_initial =
      parsed.vocab_at(options.initial_train_months);
  for (std::size_t g : by_size) {
    tasks.push_back([&, g] {
      groups[g].detector->fit(fill_normal(g, SimTime::epoch(), train_end),
                              vocab_initial);
    });
  }
  run();
  queue_calibration();

  // --- Rolling monthly evaluation. ---
  result.streams.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    result.streams[v].vpe = static_cast<std::int32_t>(v);
    result.streams[v].tickets = tickets_in_window(
        trace, static_cast<std::int32_t>(v), train_end, trace.horizon,
        options.mapping.predictive_period);
  }
  std::vector<TicketDetection> raw_detections;

  // Flat (group, member) task list in the canonical group-major order:
  // per-task result slots collected in list order reproduce the serial
  // iteration order.
  struct MemberTask {
    std::size_t group;
    std::int32_t vpe;
  };
  std::vector<MemberTask> member_tasks;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::int32_t v : groups[g].members) member_tasks.push_back({g, v});
  }
  const MappingConfig group_mapping = adapt_mapping_for(
      groups.front().detector->granularity(), options.mapping);
  const auto score_slice = [&parsed](const AnomalyDetector& detector,
                                     std::int32_t vpe, SimTime begin,
                                     SimTime end) {
    const std::vector<ParsedLog> logs = logproc::slice_time(
        parsed.logs_by_vpe[static_cast<std::size_t>(vpe)], begin, end);
    return detector.score(logs, parsed.vocab());
  };

  for (int month = options.initial_train_months; month < months; ++month) {
    const SimTime month_begin = nfv::util::month_start(month);
    const SimTime month_end = nfv::util::month_start(month + 1);
    // The last month has nothing left to score after it: no update.
    const bool update = month + 1 < months;
    const std::size_t vocab_next = parsed.vocab_at(month + 1);

    // The paper's fast adaptation kicks in one week after a software
    // update: if any member of a group is updated this month, the
    // remainder of the month is scored by the adapted model. Planning is
    // cheap and stays serial.
    struct GroupMonthPlan {
      SimTime adapt_at = simnet::never();
      SimTime phase1_end;
      bool split_month = false;
      std::vector<std::pair<std::int32_t, SimTime>> updated_members;
    };
    std::vector<GroupMonthPlan> plans(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      GroupMonthPlan& plan = plans[g];
      if (options.adapt) {
        for (std::int32_t v : groups[g].members) {
          const SimTime u =
              trace.update_time_by_vpe[static_cast<std::size_t>(v)];
          if (u >= month_begin && u < month_end) {
            plan.updated_members.emplace_back(v, u);
            plan.adapt_at = std::min(plan.adapt_at, u + options.adapt_span);
          }
        }
      }
      plan.split_month =
          !plan.updated_members.empty() && plan.adapt_at < month_end;
      plan.phase1_end = plan.split_month ? plan.adapt_at : month_end;
    }

    // Round 1: with each group's model as it stands at month start, score
    // every member stream up to the group's adaptation point (or the whole
    // month), and calibrate the model on the data it was last trained on.
    // A group that does not adapt this month also runs its end-of-month
    // update() in this round, training the live detector in place while
    // the round's other tasks read a month-start clone. The update tasks
    // go first, largest group first.
    std::vector<std::unique_ptr<AnomalyDetector>> snapshots(groups.size());
    std::vector<const AnomalyDetector*> month_models = live_models();
    if (update) {
      for (std::size_t g : by_size) {
        if (plans[g].split_month) continue;
        snapshots[g] = groups[g].detector->clone();
        month_models[g] = snapshots[g].get();
        tasks.push_back([&, g] {
          groups[g].detector->update(
              fill_normal(g, month_begin, month_end), vocab_next);
        });
      }
    }
    calibration.schedule(month_models, tasks);
    std::vector<std::vector<ScoredEvent>> events_by_task(
        member_tasks.size());
    for (std::size_t t = 0; t < member_tasks.size(); ++t) {
      tasks.push_back([&, t] {
        const MemberTask& task = member_tasks[t];
        events_by_task[t] =
            score_slice(*month_models[task.group], task.vpe, month_begin,
                        plans[task.group].phase1_end);
      });
    }
    run();
    calibration.apply(groups, options.threshold_quantile);
    snapshots.clear();

    // Split months, per group: adapt on ~1 week of post-update data,
    // recalibrate on that data (what operations has), and score the rest
    // of the month with the adapted model.
    std::vector<std::vector<std::vector<ParsedLog>>> adapt_streams(
        groups.size());
    for (std::size_t g : by_size) {
      if (!plans[g].split_month) continue;
      tasks.push_back([&, g] {
        for (const auto& [v, u] : plans[g].updated_members) {
          adapt_streams[g].push_back(logproc::slice_time(
              parsed.logs_by_vpe[static_cast<std::size_t>(v)], u,
              u + options.adapt_span));
        }
        const std::vector<LogView> views(adapt_streams[g].begin(),
                                         adapt_streams[g].end());
        groups[g].detector->adapt(views, vocab_next);
      });
    }
    run();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const std::vector<ParsedLog>& stream : adapt_streams[g]) {
        calibration.add(g, stream);
      }
    }
    calibration.schedule(live_models(), tasks);
    for (std::size_t t = 0; t < member_tasks.size(); ++t) {
      if (!plans[member_tasks[t].group].split_month) continue;
      tasks.push_back([&, t] {
        const MemberTask& task = member_tasks[t];
        const std::vector<ScoredEvent> tail =
            score_slice(*groups[task.group].detector, task.vpe,
                        plans[task.group].adapt_at, month_end);
        events_by_task[t].insert(events_by_task[t].end(), tail.begin(),
                                 tail.end());
      });
    }
    run();
    calibration.apply(groups, options.threshold_quantile);

    // The adapted groups' end-of-month update.
    if (update) {
      for (std::size_t g : by_size) {
        if (!plans[g].split_month) continue;
        tasks.push_back([&, g] {
          groups[g].detector->update(
              fill_normal(g, month_begin, month_end), vocab_next);
        });
      }
      run();
      queue_calibration();
    }

    // Detect at each group's operating threshold for this month and map
    // to tickets, one task per vPE into ordered slots; each vPE appears
    // exactly once, so the result.streams appends are disjoint.
    std::vector<MappingResult> month_parts(member_tasks.size());
    for (std::size_t t = 0; t < member_tasks.size(); ++t) {
      tasks.push_back([&, t] {
        const MemberTask& task = member_tasks[t];
        const std::vector<ScoredEvent>& events = events_by_task[t];
        const std::vector<SimTime> clusters = cluster_anomalies(
            events, groups[task.group].threshold, group_mapping);
        const std::vector<simnet::Ticket> tickets =
            tickets_in_window(trace, task.vpe, month_begin, month_end,
                              options.mapping.predictive_period);
        month_parts[t] =
            map_anomalies(clusters, tickets, task.vpe, group_mapping);
        // Keep the raw scores for threshold sweeps.
        auto& stream = result.streams[static_cast<std::size_t>(task.vpe)];
        stream.events.insert(stream.events.end(), events.begin(),
                             events.end());
      });
    }
    run();

    const MappingResult month_mapping = merge_mappings(month_parts);
    MonthlyMetrics metrics;
    metrics.month = month;
    metrics.prf = compute_prf(month_mapping);
    metrics.false_alarms_per_day =
        static_cast<double>(month_mapping.false_alarms) /
        static_cast<double>(nfv::util::kDaysPerMonth);
    metrics.anomaly_clusters = month_mapping.anomalies.size();
    result.monthly.push_back(metrics);
    raw_detections.insert(raw_detections.end(), month_mapping.tickets.begin(),
                          month_mapping.tickets.end());
    result.mapping.early_warnings += month_mapping.early_warnings;
    result.mapping.errors += month_mapping.errors;
    result.mapping.false_alarms += month_mapping.false_alarms;
    result.mapping.anomalies.insert(result.mapping.anomalies.end(),
                                    month_mapping.anomalies.begin(),
                                    month_mapping.anomalies.end());
  }

  // --- Aggregates. ---
  result.group_thresholds.reserve(groups.size());
  for (const GroupState& group : groups) {
    result.group_thresholds.push_back(group.threshold);
  }
  result.detections = merge_detections(raw_detections);
  result.mapping.tickets = result.detections;
  result.aggregate = compute_prf(result.mapping);
  result.eval_days = static_cast<double>(
      (months - options.initial_train_months) * nfv::util::kDaysPerMonth);
  result.false_alarms_per_day =
      result.eval_days > 0.0
          ? static_cast<double>(result.mapping.false_alarms) /
                result.eval_days
          : 0.0;
  return result;
}

}  // namespace nfv::core
