#include "ml/loss.h"

#include <algorithm>
#include <cmath>

#include "ml/simd_math.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

namespace {

/// Runs fn(r) for every row. Rows are independent, so the parallel split
/// over the fused scoring batches is bit-identical to the serial sweep.
template <typename Fn>
void for_each_row(std::size_t rows, const Fn& fn) {
  if (rows >= 64 && !nfv::util::ThreadPool::in_parallel_region() &&
      nfv::util::global_pool().size() > 1) {
    nfv::util::global_pool().parallel_for(0, rows, fn);
  } else {
    for (std::size_t r = 0; r < rows; ++r) fn(r);
  }
}

#ifdef NFV_ML_SIMD
/// Σ_c exp(l[c] − shift) over one row, 8 lanes per step through exp256;
/// the ragged tail is a masked load whose dead lanes are zeroed after the
/// exp. The lane partials are reduced in one fixed order, so a row's sum
/// depends only on the row.
__attribute__((target("avx2,fma"))) float sum_exp_shifted_fma(
    const float* l, std::size_t n, float shift) {
  const __m256 vshift = _mm256_set1_ps(shift);
  __m256 acc = _mm256_setzero_ps();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    acc = _mm256_add_ps(
        acc, simd::exp256(_mm256_sub_ps(_mm256_loadu_ps(l + c), vshift)));
  }
  if (c < n) {
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - c)), lanes);
    const __m256 e = simd::exp256(
        _mm256_sub_ps(_mm256_maskload_ps(l + c, mask), vshift));
    acc = _mm256_add_ps(acc, _mm256_and_ps(e, _mm256_castsi256_ps(mask)));
  }
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// max over l[0, n), 8 lanes per step; a ragged tail re-reads the last 8
/// elements, which max absorbs. The max is exact in any order, so this
/// finds the same value as std::max_element.
__attribute__((target("avx2,fma"))) float max_fma(const float* l,
                                                  std::size_t n) {
  if (n < 8) return *std::max_element(l, l + n);
  __m256 acc = _mm256_loadu_ps(l);
  std::size_t c = 8;
  for (; c + 8 <= n; c += 8) acc = _mm256_max_ps(acc, _mm256_loadu_ps(l + c));
  if (c < n) acc = _mm256_max_ps(acc, _mm256_loadu_ps(l + n - 8));
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}
#endif

/// log_softmax_target of one row, target already range-checked.
double log_softmax_row(const float* l, std::size_t n, std::size_t target,
                       double log_min_prob) {
  float max_logit = 0.0f;
  float total = 0.0f;
#ifdef NFV_ML_SIMD
  if (simd_kernels_enabled()) {
    max_logit = max_fma(l, n);
    total = sum_exp_shifted_fma(l, n, max_logit);
  } else
#endif
  {
    max_logit = *std::max_element(l, l + n);
    for (std::size_t c = 0; c < n; ++c) total += std::exp(l[c] - max_logit);
  }
  const double log_p = static_cast<double>(l[target] - max_logit) -
                       std::log(static_cast<double>(total));
  return std::max(log_p, log_min_prob);
}

}  // namespace

void softmax(const Matrix& logits, Matrix& probs) {
  probs.resize(logits.rows(), logits.cols());
  for_each_row(logits.rows(), [&](std::size_t r) {
    const float* in = logits.row(r);
    float* out = probs.row(r);
    float max_logit = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      max_logit = std::max(max_logit, in[c]);
    }
    float total = 0.0f;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      out[c] = std::exp(in[c] - max_logit);
      total += out[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < logits.cols(); ++c) out[c] *= inv;
  });
}

double log_softmax_target(const Matrix& logits, std::size_t row,
                          std::int32_t target, double min_prob) {
  NFV_CHECK(row < logits.rows(), "log_softmax_target row out of range");
  NFV_CHECK(target >= 0 && static_cast<std::size_t>(target) < logits.cols(),
            "log_softmax_target target out of range");
  return log_softmax_row(logits.row(row), logits.cols(),
                         static_cast<std::size_t>(target),
                         std::log(min_prob));
}

void log_softmax_targets(const Matrix& logits,
                         std::span<const std::int32_t> targets,
                         std::span<double> out, double min_prob) {
  NFV_CHECK(targets.size() == logits.rows() && out.size() == logits.rows(),
            "log_softmax_targets: one target and one output per row");
  for (const std::int32_t target : targets) {
    NFV_CHECK(target >= 0 && static_cast<std::size_t>(target) < logits.cols(),
              "log_softmax_target target out of range");
  }
  const double log_min_prob = std::log(min_prob);
  for_each_row(logits.rows(), [&](std::size_t r) {
    out[r] = log_softmax_row(logits.row(r), logits.cols(),
                             static_cast<std::size_t>(targets[r]),
                             log_min_prob);
  });
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits, Matrix& probs) {
  NFV_CHECK(targets.size() == logits.rows(),
            "cross entropy: one target per batch row required");
  softmax(logits, probs);
  grad_logits = probs;
  const auto batch = static_cast<float>(logits.rows());
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto t = targets[r];
    NFV_CHECK(t >= 0 && static_cast<std::size_t>(t) < logits.cols(),
              "cross entropy target out of range: " << t);
    const double p =
        std::max(static_cast<double>(probs.at(r, static_cast<std::size_t>(t))),
                 1e-12);
    loss -= std::log(p);
    grad_logits.at(r, static_cast<std::size_t>(t)) -= 1.0f;
  }
  grad_logits.scale(1.0f / batch);
  return loss / batch;
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::int32_t>& targets,
                             Matrix& grad_logits) {
  Matrix probs;
  return softmax_cross_entropy(logits, targets, grad_logits, probs);
}

double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad_pred) {
  NFV_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols(),
            "mse_loss shape mismatch");
  grad_pred.resize(pred.rows(), pred.cols());
  const auto n = static_cast<double>(pred.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float diff = pred.data()[i] - target.data()[i];
    loss += static_cast<double>(diff) * diff;
    grad_pred.data()[i] = 2.0f * diff / static_cast<float>(n);
  }
  return loss / n;
}

double log_prob(const Matrix& probs, std::size_t row, std::int32_t target,
                double min_prob) {
  NFV_CHECK(row < probs.rows(), "log_prob row out of range");
  NFV_CHECK(target >= 0 && static_cast<std::size_t>(target) < probs.cols(),
            "log_prob target out of range");
  const double p = std::max(
      static_cast<double>(probs.at(row, static_cast<std::size_t>(target))),
      min_prob);
  return std::log(p);
}

}  // namespace nfv::ml
