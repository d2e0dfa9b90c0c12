// Vectorized elementwise math for the AVX2+FMA kernel mode
// (ml::simd_kernels_enabled), shared by the LSTM gate/cell passes and the
// fused target log-likelihood. Internal to src/ml.
//
// exp — and tanh / sigmoid through it — is the classic Cephes
// single-precision evaluation (range-reduce by ln 2, degree-6 polynomial,
// scale by 2^n), accurate to ~1e-7 relative. Like FMA contraction in the
// matmul kernels, this makes the two SIMD modes differ numerically from
// each other, while each mode stays bit-identical across thread counts and
// batch sizes: a given element is always evaluated by the same
// instructions, whichever row block or batch it lands in.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#define NFV_ML_SIMD 1
#include <immintrin.h>

namespace nfv::ml::simd {

/// exp(x) for 8 lanes. Inputs are clamped to ±88.376, so the result is
/// finite and never exactly zero (exp256(-inf) ≈ 5.9e-39).
__attribute__((target("avx2,fma"))) inline __m256 exp256(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = x - n·ln2, with ln2 split in two for extra precision.
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  __m256i bits = _mm256_cvtps_epi32(n);
  bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
  bits = _mm256_slli_epi32(bits, 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

__attribute__((target("avx2,fma"))) inline __m256 tanh256(__m256 x) {
  // tanh(x) = sign(x)·(1 − t)/(1 + t) with t = exp(−2|x|) ∈ (0, 1].
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);
  const __m256 t = exp256(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0f)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 y =
      _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  return _mm256_or_ps(y, sign);
}

__attribute__((target("avx2,fma"))) inline __m256 sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

}  // namespace nfv::ml::simd

#endif  // __x86_64__ && __GNUC__
