// Vectorized elementwise math for the AVX2+FMA kernel mode
// (ml::simd_kernels_enabled), shared by the LSTM gate/cell passes, the
// fused target log-likelihood and (16-lane ports) the fused AVX-512F LSTM
// kernel. Internal to src/ml.
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

// 16-lane ports for the fused AVX-512F LSTM kernel (ml/fused_lstm.cpp).
// Each is the 8-lane function above, instruction for instruction, so a
// lane gets the same bits from either width. AVX-512F has no float
// and/or, so tanh512 moves the sign bit with the integer forms.

__attribute__((target("avx512f,avx2,fma"))) inline __m512 exp512(__m512 x) {
  x = _mm512_min_ps(x, _mm512_set1_ps(88.3762626647949f));
  x = _mm512_max_ps(x, _mm512_set1_ps(-88.3762626647949f));
  const __m512 n = _mm512_roundscale_ps(
      _mm512_mul_ps(x, _mm512_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693359375f), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.12194440e-4f), r);
  __m512 p = _mm512_set1_ps(1.9875691500e-4f);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.3981999507e-3f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(8.3334519073e-3f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(4.1665795894e-2f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.6666665459e-1f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(5.0000001201e-1f));
  p = _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r);
  p = _mm512_add_ps(p, _mm512_set1_ps(1.0f));
  __m512i bits = _mm512_cvtps_epi32(n);
  bits = _mm512_add_epi32(bits, _mm512_set1_epi32(127));
  bits = _mm512_slli_epi32(bits, 23);
  return _mm512_mul_ps(p, _mm512_castsi512_ps(bits));
}

__attribute__((target("avx512f,avx2,fma"))) inline __m512 tanh512(__m512 x) {
  const __m512i sign_mask = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i sign = _mm512_and_si512(xi, sign_mask);
  const __m512 ax = _mm512_castsi512_ps(_mm512_andnot_si512(sign_mask, xi));
  const __m512 t = exp512(_mm512_mul_ps(ax, _mm512_set1_ps(-2.0f)));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 y =
      _mm512_div_ps(_mm512_sub_ps(one, t), _mm512_add_ps(one, t));
  return _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(y), sign));
}

__attribute__((target("avx512f,avx2,fma"))) inline __m512 sigmoid512(
    __m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = exp512(_mm512_sub_ps(_mm512_setzero_ps(), x));
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

}  // namespace nfv::ml::simd

#endif  // __x86_64__ && __GNUC__
