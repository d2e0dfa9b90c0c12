// Dataset construction: turns template-id log streams into the model
// inputs of §4.2 — sliding windows of (template id, inter-arrival) tuples —
// plus the frequency distributions and TF-IDF features used by the
// clustering step and the baseline detectors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "ml/sequence_model.h"
#include "util/sim_time.h"

namespace nfv::logproc {

/// One structured syslog event after signature-tree extraction.
struct ParsedLog {
  nfv::util::SimTime time;
  std::int32_t template_id = 0;
};

/// Half-open exclusion interval [begin, end): logs inside are dropped from
/// training data. The paper removes logs within 3 days of a ticket arrival
/// through its resolution (§3.3, §4.2).
struct TimeInterval {
  nfv::util::SimTime begin;
  nfv::util::SimTime end;
  bool contains(nfv::util::SimTime t) const { return t >= begin && t < end; }
};

/// Remove logs falling inside any interval. Intervals need not be sorted
/// or disjoint.
std::vector<ParsedLog> exclude_intervals(std::span<const ParsedLog> logs,
                                         std::span<const TimeInterval> drop);

/// Keep only logs with time in [begin, end).
std::vector<ParsedLog> slice_time(std::span<const ParsedLog> logs,
                                  nfv::util::SimTime begin,
                                  nfv::util::SimTime end);

/// Build LSTM training/scoring windows: for each position i ≥ k, a window
/// of the k preceding (template, Δt) tuples with log i as the prediction
/// target. Windows never span gaps larger than `max_gap` (a session break:
/// prediction across an hours-long silence carries no sequential signal);
/// with no `max_gap` every position i ≥ k yields a window, so window j
/// always belongs to log k + j.
std::vector<nfv::ml::SeqExample> build_sequence_examples(
    std::span<const ParsedLog> logs, std::size_t window,
    std::optional<nfv::util::Duration> max_gap =
        nfv::util::Duration::of_hours(12));

/// Normalized template-frequency distribution over `logs` with the given
/// vocabulary size — the representation both the vPE-similarity analysis
/// (Fig. 3) and the vPE clustering (§4.3) operate on.
std::vector<double> template_distribution(std::span<const ParsedLog> logs,
                                          std::size_t vocab);

/// A count-based document: the multiset of template ids in a window of
/// consecutive logs. Used as the unit for TF-IDF features.
struct Document {
  std::vector<std::int32_t> template_ids;
  nfv::util::SimTime time;  // time of the window's last log
};

/// Chop a log stream into half-overlapping documents of `doc_size` logs.
std::vector<Document> build_documents(std::span<const ParsedLog> logs,
                                      std::size_t doc_size);

/// TF-IDF featurizer over template-id documents (Zhang et al.'s feature
/// choice for the autoencoder baseline). fit() learns document frequencies;
/// transform() produces L2-normalized tf·idf rows.
class TfidfFeaturizer {
 public:
  void fit(std::span<const Document> docs, std::size_t vocab);

  bool fitted() const { return !idf_.empty(); }
  std::size_t vocab() const { return idf_.size(); }

  /// One L2-normalized feature row; ids outside the fitted vocab are
  /// ignored (unseen templates contribute nothing).
  std::vector<float> transform(const Document& doc) const;

  /// Transform a batch into a feature matrix (rows = documents).
  nfv::ml::Matrix transform_batch(std::span<const Document> docs) const;

 private:
  std::vector<double> idf_;
};

}  // namespace nfv::logproc
