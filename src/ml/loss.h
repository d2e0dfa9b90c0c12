// Loss functions: categorical cross-entropy over softmax (the paper's
// training objective) and mean-squared error (autoencoder reconstruction).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.h"

namespace nfv::ml {

/// Row-wise softmax of `logits` into `probs` (numerically stabilized).
void softmax(const Matrix& logits, Matrix& probs);

/// Mean categorical cross-entropy over the batch. `targets[r]` is the class
/// index for row r. On return `grad_logits` holds dL/d-logits (already
/// divided by batch size).
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits);

/// As above but also exposes the softmax probabilities.
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits, Matrix& probs);

/// Mean-squared error: mean over batch and features of (pred-target)².
/// `grad_pred` receives dL/d-pred.
double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_pred);

/// Natural-log probability of class `target` in a probability row-vector,
/// floored at `min_prob` to keep scores finite.
double log_prob(const Matrix& probs, std::size_t row, std::int32_t target,
                double min_prob = 1e-12);

/// log p(target) in row `row` of softmax(logits), straight from the
/// logits: (l_t − max) − log Σ_c exp(l_c − max), floored at log(min_prob)
/// as log_prob is. The probability row is never materialized. In the
/// AVX2+FMA kernel mode the max and the exponentials run 8 lanes at a time
/// (the latter through the LSTM gates' exp; the max is exact in any
/// order); either mode gives a row the same bits whatever batch it sits
/// in. Agrees with log_prob(softmax(logits)) to ~1e-7.
double log_softmax_target(const Matrix& logits, std::size_t row,
                          std::int32_t target, double min_prob = 1e-12);

/// log_softmax_target for every row r with class targets[r] into out[r].
/// The targets are range-checked once, up front; large batches split
/// their rows across the global pool (bit-identical to the serial sweep).
void log_softmax_targets(const Matrix& logits,
                         std::span<const std::int32_t> targets,
                         std::span<double> out, double min_prob = 1e-12);

}  // namespace nfv::ml
