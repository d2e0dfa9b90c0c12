#include "ml/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

namespace {

/// Minimum multiply-accumulate count before the blocked-parallel kernels
/// pay for themselves; below this the serial kernels win outright. Sized
/// so the per-timestep training GEMMs (a 64-row batch against one layer's
/// weights is ~4e5 MACs) stay on the calling thread — BPTT parallelizes
/// across timesteps instead, one fork-join per backward pass rather than
/// one per step — while the fused scoring batches (~1k rows, several
/// MMACs) still shard across the pool.
constexpr std::size_t kParallelMinWork = 1u << 19;

/// Parallelize only for large products, only when a multi-thread pool is
/// available, and never from inside an already parallel region (the
/// per-group pipeline fan-out owns the threads there).
bool use_parallel(std::size_t work) {
  return work >= kParallelMinWork &&
         !nfv::util::ThreadPool::in_parallel_region() &&
         nfv::util::global_pool().size() > 1;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define NFV_X86_MULTIVERSION 1

bool has_avx2_fma() {
  static const bool value =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return value;
}
#endif

bool default_simd_enabled() {
#ifdef NFV_X86_MULTIVERSION
  if (std::getenv("NFVPRED_NO_AVX2") != nullptr) return false;
  return has_avx2_fma();
#else
  return false;
#endif
}

/// Read by kernel dispatchers on worker threads; written only from
/// single-threaded control points (startup, bench/test mode switches).
/// Atomic so the cross-thread reads are race-free under TSan.
std::atomic<bool>& simd_flag() {
  static std::atomic<bool> flag(default_simd_enabled());
  return flag;
}

/// One row of out = a * b, i-k-j order (streams b and out contiguously);
/// out row must start zeroed. Each out element accumulates in k-ascending
/// order — the same chain every packed/tiled variant below uses.
inline void matmul_row(const Matrix& a, const Matrix& b, Matrix& out,
                       std::size_t i) {
  const float* arow = a.row(i);
  float* orow = out.row(i);
  for (std::size_t k = 0; k < a.cols(); ++k) {
    const float aik = arow[k];
    const float* brow = b.row(k);
    for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
  }
}

/// One row of out = a * bᵀ. always_inline so the ISA-targeted wrappers
/// below compile this body with their own instruction set (and FMA
/// contraction) instead of calling a baseline copy.
__attribute__((always_inline)) inline void matmul_transb_row(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  const float* arow = a.row(i);
  float* orow = out.row(i);
  for (std::size_t j = 0; j < b.rows(); ++j) {
    const float* brow = b.row(j);
    float dot = 0.0f;
    for (std::size_t k = 0; k < a.cols(); ++k) dot += arow[k] * brow[k];
    orow[j] = dot;
  }
}

/// Panel width of the packed kernels (output columns per tile).
constexpr std::size_t kPanelCols = 8;

/// Pack b (the weight matrix of out = a * bᵀ) into 8-row k-major panels:
/// panel jp holds b rows [8jp, 8jp+8) interleaved as [k][jj], so the inner
/// product loop reads 8 weights for 8 output columns from one contiguous
/// 32-byte slot — the layout auto-vectorizes to SIMD with each lane an
/// independent accumulator chain. Pack cost is O(b.size()) and is
/// amortized over every row of a, which is exactly what a fused scoring
/// batch provides and a single-window batch cannot.
void pack_transb_panels(const Matrix& b, std::vector<float>& packed) {
  const std::size_t cols = b.cols();
  const std::size_t panels = b.rows() / kPanelCols;
  packed.resize(panels * cols * kPanelCols);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    float* panel = packed.data() + jp * cols * kPanelCols;
    for (std::size_t k = 0; k < cols; ++k) {
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        panel[kPanelCols * k + jj] = b.row(kPanelCols * jp + jj)[k];
      }
    }
  }
}

/// Pack the B operand (K×C) of the *plain* product out = a·b into the
/// same 8-column k-major panel layout: panel jp holds b columns
/// [8jp, 8jp+8) interleaved as [k][jj]. Identical consumption pattern to
/// the transb panels, so the compute kernels mirror each other.
void pack_matmul_b_panels(const Matrix& b, std::vector<float>& packed) {
  const std::size_t kn = b.rows();
  const std::size_t panels = b.cols() / kPanelCols;
  packed.resize(panels * kn * kPanelCols);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    float* panel = packed.data() + jp * kn * kPanelCols;
    for (std::size_t k = 0; k < kn; ++k) {
      const float* brow = b.row(k) + kPanelCols * jp;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        panel[kPanelCols * k + jj] = brow[jj];
      }
    }
  }
}

/// Rows [i0, i1) of out = a * bᵀ with b pre-packed into panels: 4 a-rows ×
/// one 8-column panel per tile, 32 accumulators. Every acc chain is
/// accumulated in the same k-ascending order as matmul_transb_row, so
/// results are bit-identical to the row-at-a-time kernel for any row
/// blocking and any thread count.
__attribute__((always_inline)) inline void matmul_transb_rows_packed(
    const Matrix& a, const Matrix& b, const float* packed, Matrix& out,
    std::size_t i0, std::size_t i1) {
  const std::size_t cols = a.cols();
  const std::size_t jn = b.rows();
  const std::size_t panels = jn / kPanelCols;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    for (std::size_t jp = 0; jp < panels; ++jp) {
      const float* panel = packed + jp * cols * kPanelCols;
      float acc0[kPanelCols] = {}, acc1[kPanelCols] = {};
      float acc2[kPanelCols] = {}, acc3[kPanelCols] = {};
      for (std::size_t k = 0; k < cols; ++k) {
        const float* bv = panel + kPanelCols * k;
        const float av0 = a0[k], av1 = a1[k], av2 = a2[k], av3 = a3[k];
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc0[jj] += av0 * bv[jj];
          acc1[jj] += av1 * bv[jj];
          acc2[jj] += av2 * bv[jj];
          acc3[jj] += av3 * bv[jj];
        }
      }
      float* o0 = out.row(i) + kPanelCols * jp;
      float* o1 = out.row(i + 1) + kPanelCols * jp;
      float* o2 = out.row(i + 2) + kPanelCols * jp;
      float* o3 = out.row(i + 3) + kPanelCols * jp;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        o0[jj] = acc0[jj];
        o1[jj] = acc1[jj];
        o2[jj] = acc2[jj];
        o3[jj] = acc3[jj];
      }
    }
    for (std::size_t j = kPanelCols * panels; j < jn; ++j) {
      const float* brow = b.row(j);
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < cols; ++k) {
        const float bk = brow[k];
        d0 += a0[k] * bk;
        d1 += a1[k] * bk;
        d2 += a2[k] * bk;
        d3 += a3[k] * bk;
      }
      out.row(i)[j] = d0;
      out.row(i + 1)[j] = d1;
      out.row(i + 2)[j] = d2;
      out.row(i + 3)[j] = d3;
    }
  }
  // Leftover rows: 1 row × one panel per tile, then the tail columns.
  for (; i < i1; ++i) {
    const float* a0 = a.row(i);
    float* o0 = out.row(i);
    for (std::size_t jp = 0; jp < panels; ++jp) {
      const float* panel = packed + jp * cols * kPanelCols;
      float acc[kPanelCols] = {};
      for (std::size_t k = 0; k < cols; ++k) {
        const float* bv = panel + kPanelCols * k;
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc[jj] += a0[k] * bv[jj];
        }
      }
      std::memcpy(o0 + kPanelCols * jp, acc, sizeof(acc));
    }
    for (std::size_t j = kPanelCols * panels; j < jn; ++j) {
      const float* brow = b.row(j);
      float dot = 0.0f;
      for (std::size_t k = 0; k < cols; ++k) dot += a0[k] * brow[k];
      o0[j] = dot;
    }
  }
}

/// Rows [i0, i1) of out = a * b with b pre-packed into 8-column k-major
/// panels. Same 4-row × 8-column register tiling as the transb kernel;
/// every out element keeps the k-ascending chain of matmul_row, so the
/// packed, row-at-a-time, and any row-blocked parallel variants all agree
/// bit for bit.
inline void matmul_rows_bpacked(const Matrix& a, const Matrix& b,
                                const float* packed, Matrix& out,
                                std::size_t i0, std::size_t i1) {
  const std::size_t kn = a.cols();
  const std::size_t cn = b.cols();
  const std::size_t panels = cn / kPanelCols;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    for (std::size_t jp = 0; jp < panels; ++jp) {
      const float* panel = packed + jp * kn * kPanelCols;
      float acc0[kPanelCols] = {}, acc1[kPanelCols] = {};
      float acc2[kPanelCols] = {}, acc3[kPanelCols] = {};
      for (std::size_t k = 0; k < kn; ++k) {
        const float* bv = panel + kPanelCols * k;
        const float av0 = a0[k], av1 = a1[k], av2 = a2[k], av3 = a3[k];
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc0[jj] += av0 * bv[jj];
          acc1[jj] += av1 * bv[jj];
          acc2[jj] += av2 * bv[jj];
          acc3[jj] += av3 * bv[jj];
        }
      }
      float* o0 = out.row(i) + kPanelCols * jp;
      float* o1 = out.row(i + 1) + kPanelCols * jp;
      float* o2 = out.row(i + 2) + kPanelCols * jp;
      float* o3 = out.row(i + 3) + kPanelCols * jp;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        o0[jj] = acc0[jj];
        o1[jj] = acc1[jj];
        o2[jj] = acc2[jj];
        o3[jj] = acc3[jj];
      }
    }
    for (std::size_t j = kPanelCols * panels; j < cn; ++j) {
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < kn; ++k) {
        const float bk = b.row(k)[j];
        d0 += a0[k] * bk;
        d1 += a1[k] * bk;
        d2 += a2[k] * bk;
        d3 += a3[k] * bk;
      }
      out.row(i)[j] = d0;
      out.row(i + 1)[j] = d1;
      out.row(i + 2)[j] = d2;
      out.row(i + 3)[j] = d3;
    }
  }
  for (; i < i1; ++i) matmul_row(a, b, out, i);
}

/// Column block [c0, c1) of out += aᵀ * b, register-tiled 4 out-rows × 8
/// out-columns. Each out element adds a partial sum accumulated from zero
/// in r-ascending order (then one `out += sum`), so the result is
/// independent of the k/c tiling and of any column-block parallel split.
inline void transa_acc_block(const Matrix& a, const Matrix& b, Matrix& out,
                             std::size_t c0, std::size_t c1) {
  const std::size_t rn = a.rows();
  const std::size_t kn = a.cols();
  std::size_t k = 0;
  for (; k + 4 <= kn; k += 4) {
    std::size_t c = c0;
    for (; c + kPanelCols <= c1; c += kPanelCols) {
      float acc0[kPanelCols] = {}, acc1[kPanelCols] = {};
      float acc2[kPanelCols] = {}, acc3[kPanelCols] = {};
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const float* bv = b.row(r) + c;
        const float a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc0[jj] += a0 * bv[jj];
          acc1[jj] += a1 * bv[jj];
          acc2[jj] += a2 * bv[jj];
          acc3[jj] += a3 * bv[jj];
        }
      }
      float* o0 = out.row(k) + c;
      float* o1 = out.row(k + 1) + c;
      float* o2 = out.row(k + 2) + c;
      float* o3 = out.row(k + 3) + c;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        o0[jj] += acc0[jj];
        o1[jj] += acc1[jj];
        o2[jj] += acc2[jj];
        o3[jj] += acc3[jj];
      }
    }
    for (; c < c1; ++c) {
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const float bc = b.row(r)[c];
        d0 += ar[0] * bc;
        d1 += ar[1] * bc;
        d2 += ar[2] * bc;
        d3 += ar[3] * bc;
      }
      out.row(k)[c] += d0;
      out.row(k + 1)[c] += d1;
      out.row(k + 2)[c] += d2;
      out.row(k + 3)[c] += d3;
    }
  }
  for (; k < kn; ++k) {
    std::size_t c = c0;
    for (; c + kPanelCols <= c1; c += kPanelCols) {
      float acc[kPanelCols] = {};
      for (std::size_t r = 0; r < rn; ++r) {
        const float ak = a.row(r)[k];
        const float* bv = b.row(r) + c;
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          acc[jj] += ak * bv[jj];
        }
      }
      float* orow = out.row(k) + c;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) orow[jj] += acc[jj];
    }
    for (; c < c1; ++c) {
      float d = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        d += a.row(r)[k] * b.row(r)[c];
      }
      out.row(k)[c] += d;
    }
  }
}

/// Minimum a-row count before packing b into panels on every call pays
/// for itself; below this the plain row kernel is used. Pre-packed callers
/// (matmul_packed, matmul_transb_packed) read their panels at any size.
constexpr std::size_t kPackMinRows = 8;

/// Reused pack buffer (packing happens on the calling thread before any
/// parallel fan-out; workers only read it).
thread_local std::vector<float> tl_packed_b;

// ISA dispatch for the packed kernels. Both the single-row reference
// kernels and the packed batch kernels are cloned for AVX2+FMA, and ALL
// take the same runtime branch (simd_kernels_enabled): every accumulator
// chain then uses fused multiply-add on every path, so a window scored
// alone still matches a window scored inside a fused batch bit for bit,
// and a gradient accumulated serially matches any tiled/parallel variant.
// (Results may differ between machines with and without FMA — and between
// the default and NFVPRED_NO_AVX2 modes — determinism is per-machine and
// per-mode, the same guarantee the baseline kernels give.)
#ifdef NFV_X86_MULTIVERSION

/// One row of out = a * bᵀ with every chain step an explicit fused
/// multiply-add (`__builtin_fmaf` = one vfmadd instruction under the fma
/// target). The compiler cannot split or partially contract the chain, so
/// this is bit-identical to the fmadd lanes of the packed AVX2 kernel.
__attribute__((always_inline)) inline void transb_row_fma_body(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  const float* arow = a.row(i);
  float* orow = out.row(i);
  for (std::size_t j = 0; j < b.rows(); ++j) {
    const float* brow = b.row(j);
    float dot = 0.0f;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      dot = __builtin_fmaf(arow[k], brow[k], dot);
    }
    orow[j] = dot;
  }
}

__attribute__((target("avx2,fma"))) void matmul_transb_row_fma(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  transb_row_fma_body(a, b, out, i);
}

/// One row of out = a * b with explicit fused multiply-adds, the scalar
/// reference for the packed FMA kernel below.
__attribute__((always_inline)) inline void matmul_row_fma_body(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  const float* arow = a.row(i);
  float* orow = out.row(i);
  for (std::size_t k = 0; k < a.cols(); ++k) {
    const float aik = arow[k];
    const float* brow = b.row(k);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      orow[j] = __builtin_fmaf(aik, brow[j], orow[j]);
    }
  }
}

__attribute__((target("avx2,fma"))) void matmul_row_fma(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  matmul_row_fma_body(a, b, out, i);
}

/// Hand-vectorized AVX2+FMA packed kernel: one 256-bit fmadd per
/// (a-row, k) covers a full 8-column panel, so each accumulator lane is
/// exactly the chain `acc = fma(a[k]*b[k], acc)` in k order — the same
/// fused operation the contracted scalar row kernel performs. Tiles are
/// 4 rows × 2 panels: eight independent accumulator chains hide the fmadd
/// latency that four chains leave exposed, and every lane keeps its own
/// k-ascending chain, so the tile shape never changes a result bit.
__attribute__((target("avx2,fma"))) void matmul_transb_rows_packed_fma(
    const Matrix& a, const Matrix& b, const float* packed, Matrix& out,
    std::size_t i0, std::size_t i1) {
  const std::size_t cols = a.cols();
  const std::size_t jn = b.rows();
  const std::size_t panels = jn / kPanelCols;
  const std::size_t panel_size = cols * kPanelCols;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    float* o0 = out.row(i);
    float* o1 = out.row(i + 1);
    float* o2 = out.row(i + 2);
    float* o3 = out.row(i + 3);
    std::size_t jp = 0;
    for (; jp + 2 <= panels; jp += 2) {
      const float* p0 = packed + jp * panel_size;
      const float* p1 = p0 + panel_size;
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < cols; ++k) {
        const __m256 bv0 = _mm256_loadu_ps(p0 + kPanelCols * k);
        const __m256 bv1 = _mm256_loadu_ps(p1 + kPanelCols * k);
        const __m256 av0 = _mm256_set1_ps(a0[k]);
        const __m256 av1 = _mm256_set1_ps(a1[k]);
        const __m256 av2 = _mm256_set1_ps(a2[k]);
        const __m256 av3 = _mm256_set1_ps(a3[k]);
        acc00 = _mm256_fmadd_ps(av0, bv0, acc00);
        acc01 = _mm256_fmadd_ps(av0, bv1, acc01);
        acc10 = _mm256_fmadd_ps(av1, bv0, acc10);
        acc11 = _mm256_fmadd_ps(av1, bv1, acc11);
        acc20 = _mm256_fmadd_ps(av2, bv0, acc20);
        acc21 = _mm256_fmadd_ps(av2, bv1, acc21);
        acc30 = _mm256_fmadd_ps(av3, bv0, acc30);
        acc31 = _mm256_fmadd_ps(av3, bv1, acc31);
      }
      const std::size_t j = kPanelCols * jp;
      _mm256_storeu_ps(o0 + j, acc00);
      _mm256_storeu_ps(o0 + j + kPanelCols, acc01);
      _mm256_storeu_ps(o1 + j, acc10);
      _mm256_storeu_ps(o1 + j + kPanelCols, acc11);
      _mm256_storeu_ps(o2 + j, acc20);
      _mm256_storeu_ps(o2 + j + kPanelCols, acc21);
      _mm256_storeu_ps(o3 + j, acc30);
      _mm256_storeu_ps(o3 + j + kPanelCols, acc31);
    }
    if (jp < panels) {  // odd panel count: one 4 × 1 tile
      const float* panel = packed + jp * panel_size;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < cols; ++k) {
        const __m256 bv = _mm256_loadu_ps(panel + kPanelCols * k);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[k]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[k]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[k]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[k]), bv, acc3);
      }
      const std::size_t j = kPanelCols * jp;
      _mm256_storeu_ps(o0 + j, acc0);
      _mm256_storeu_ps(o1 + j, acc1);
      _mm256_storeu_ps(o2 + j, acc2);
      _mm256_storeu_ps(o3 + j, acc3);
    }
    for (std::size_t j = kPanelCols * panels; j < jn; ++j) {
      const float* brow = b.row(j);
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < cols; ++k) {
        const float bk = brow[k];
        d0 = __builtin_fmaf(a0[k], bk, d0);
        d1 = __builtin_fmaf(a1[k], bk, d1);
        d2 = __builtin_fmaf(a2[k], bk, d2);
        d3 = __builtin_fmaf(a3[k], bk, d3);
      }
      o0[j] = d0;
      o1[j] = d1;
      o2[j] = d2;
      o3[j] = d3;
    }
  }
  // Leftover rows: 1 row × 4 panels per tile (four chains in flight), then
  // single panels, then the scalar tail columns, every lane on its own
  // k-ascending chain as above.
  for (; i < i1; ++i) {
    const float* a0 = a.row(i);
    float* o0 = out.row(i);
    std::size_t jp = 0;
    for (; jp + 4 <= panels; jp += 4) {
      const float* p0 = packed + jp * panel_size;
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < cols; ++k) {
        const __m256 av = _mm256_set1_ps(a0[k]);
        const float* bk = p0 + kPanelCols * k;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + panel_size), acc1);
        acc2 =
            _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 2 * panel_size), acc2);
        acc3 =
            _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 3 * panel_size), acc3);
      }
      const std::size_t j = kPanelCols * jp;
      _mm256_storeu_ps(o0 + j, acc0);
      _mm256_storeu_ps(o0 + j + kPanelCols, acc1);
      _mm256_storeu_ps(o0 + j + 2 * kPanelCols, acc2);
      _mm256_storeu_ps(o0 + j + 3 * kPanelCols, acc3);
    }
    for (; jp < panels; ++jp) {
      const float* panel = packed + jp * panel_size;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = 0; k < cols; ++k) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a0[k]),
                              _mm256_loadu_ps(panel + kPanelCols * k), acc);
      }
      _mm256_storeu_ps(o0 + kPanelCols * jp, acc);
    }
    for (std::size_t j = kPanelCols * panels; j < jn; ++j) {
      const float* brow = b.row(j);
      float d = 0.0f;
      for (std::size_t k = 0; k < cols; ++k) {
        d = __builtin_fmaf(a0[k], brow[k], d);
      }
      o0[j] = d;
    }
  }
}

/// AVX2+FMA clone of matmul_rows_bpacked (plain out = a·b, packed B).
__attribute__((target("avx2,fma"))) void matmul_rows_bpacked_fma(
    const Matrix& a, const Matrix& b, const float* packed, Matrix& out,
    std::size_t i0, std::size_t i1) {
  const std::size_t kn = a.cols();
  const std::size_t cn = b.cols();
  const std::size_t panels = cn / kPanelCols;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    for (std::size_t jp = 0; jp < panels; ++jp) {
      const float* panel = packed + jp * kn * kPanelCols;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < kn; ++k) {
        const __m256 bv = _mm256_loadu_ps(panel + kPanelCols * k);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[k]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[k]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[k]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[k]), bv, acc3);
      }
      _mm256_storeu_ps(out.row(i) + kPanelCols * jp, acc0);
      _mm256_storeu_ps(out.row(i + 1) + kPanelCols * jp, acc1);
      _mm256_storeu_ps(out.row(i + 2) + kPanelCols * jp, acc2);
      _mm256_storeu_ps(out.row(i + 3) + kPanelCols * jp, acc3);
    }
    for (std::size_t j = kPanelCols * panels; j < cn; ++j) {
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < kn; ++k) {
        const float bk = b.row(k)[j];
        d0 = __builtin_fmaf(a0[k], bk, d0);
        d1 = __builtin_fmaf(a1[k], bk, d1);
        d2 = __builtin_fmaf(a2[k], bk, d2);
        d3 = __builtin_fmaf(a3[k], bk, d3);
      }
      out.row(i)[j] = d0;
      out.row(i + 1)[j] = d1;
      out.row(i + 2)[j] = d2;
      out.row(i + 3)[j] = d3;
    }
  }
  for (; i < i1; ++i) matmul_row_fma_body(a, b, out, i);
}

/// AVX2+FMA clone of transa_acc_block (weight-gradient accumulation). The
/// 4×8 register tile becomes four ymm accumulators fed by one broadcast
/// fmadd per (r, out-row); the final `out += sum` is one vector add per
/// lane, matching the scalar epilogue exactly.
__attribute__((target("avx2,fma"))) void transa_acc_block_fma(
    const Matrix& a, const Matrix& b, Matrix& out, std::size_t c0,
    std::size_t c1) {
  const std::size_t rn = a.rows();
  const std::size_t kn = a.cols();
  std::size_t k = 0;
  for (; k + 4 <= kn; k += 4) {
    std::size_t c = c0;
    for (; c + kPanelCols <= c1; c += kPanelCols) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const __m256 bv = _mm256_loadu_ps(b.row(r) + c);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(ar[0]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(ar[1]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(ar[2]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(ar[3]), bv, acc3);
      }
      float* o0 = out.row(k) + c;
      float* o1 = out.row(k + 1) + c;
      float* o2 = out.row(k + 2) + c;
      float* o3 = out.row(k + 3) + c;
      _mm256_storeu_ps(o0, _mm256_add_ps(_mm256_loadu_ps(o0), acc0));
      _mm256_storeu_ps(o1, _mm256_add_ps(_mm256_loadu_ps(o1), acc1));
      _mm256_storeu_ps(o2, _mm256_add_ps(_mm256_loadu_ps(o2), acc2));
      _mm256_storeu_ps(o3, _mm256_add_ps(_mm256_loadu_ps(o3), acc3));
    }
    for (; c < c1; ++c) {
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        const float* ar = a.row(r) + k;
        const float bc = b.row(r)[c];
        d0 = __builtin_fmaf(ar[0], bc, d0);
        d1 = __builtin_fmaf(ar[1], bc, d1);
        d2 = __builtin_fmaf(ar[2], bc, d2);
        d3 = __builtin_fmaf(ar[3], bc, d3);
      }
      out.row(k)[c] += d0;
      out.row(k + 1)[c] += d1;
      out.row(k + 2)[c] += d2;
      out.row(k + 3)[c] += d3;
    }
  }
  for (; k < kn; ++k) {
    std::size_t c = c0;
    for (; c + kPanelCols <= c1; c += kPanelCols) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t r = 0; r < rn; ++r) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a.row(r)[k]),
                              _mm256_loadu_ps(b.row(r) + c), acc);
      }
      float* orow = out.row(k) + c;
      _mm256_storeu_ps(orow, _mm256_add_ps(_mm256_loadu_ps(orow), acc));
    }
    for (; c < c1; ++c) {
      float d = 0.0f;
      for (std::size_t r = 0; r < rn; ++r) {
        d = __builtin_fmaf(a.row(r)[k], b.row(r)[c], d);
      }
      out.row(k)[c] += d;
    }
  }
}
#endif

void transb_row_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                         std::size_t i) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    matmul_transb_row_fma(a, b, out, i);
    return;
  }
#endif
  matmul_transb_row(a, b, out, i);
}

void transb_rows_packed_dispatch(const Matrix& a, const Matrix& b,
                                 const float* packed, Matrix& out,
                                 std::size_t i0, std::size_t i1) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    matmul_transb_rows_packed_fma(a, b, packed, out, i0, i1);
    return;
  }
#endif
  matmul_transb_rows_packed(a, b, packed, out, i0, i1);
}

void matmul_row_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                         std::size_t i) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    matmul_row_fma(a, b, out, i);
    return;
  }
#endif
  matmul_row(a, b, out, i);
}

void matmul_rows_bpacked_dispatch(const Matrix& a, const Matrix& b,
                                  const float* packed, Matrix& out,
                                  std::size_t i0, std::size_t i1) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    matmul_rows_bpacked_fma(a, b, packed, out, i0, i1);
    return;
  }
#endif
  matmul_rows_bpacked(a, b, packed, out, i0, i1);
}

void transa_acc_block_dispatch(const Matrix& a, const Matrix& b, Matrix& out,
                               std::size_t c0, std::size_t c1) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    transa_acc_block_fma(a, b, out, c0, c1);
    return;
  }
#endif
  transa_acc_block(a, b, out, c0, c1);
}

// ---------------------------------------------------------------------------
// int8 quantized kernels (matmul_quant family).
//
// The reduction is exact int32 arithmetic, so unlike the fp32 kernels there
// is no per-tier accumulation order to preserve — any tiling gives the same
// integer. The only float work is the per-row activation quantization
// (done once, on the calling thread, before any fan-out) and the dequant
// epilogue, which is the fixed two-rounding expression
//     out = float(iacc - zp·col_sum) * (a_scale * b_scale)
// on every tier; elementwise float ops have no reassociation freedom, so
// the AVX2 and baseline builds of that expression agree bit for bit.
// ---------------------------------------------------------------------------

/// k-depth of one packed int8 group (the vpmaddubsw reduction quad).
constexpr std::size_t kQuantK = 4;

/// Round-to-nearest-even via the 1.5·2^23 magic constant: exact for
/// |x| < 2^22 (every quantized code is within ±128), branch-free, and
/// independent of libm — the same bits on every build.
inline std::int32_t round_nearest_i32(float x) {
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  return static_cast<std::int32_t>((x + kMagic) - kMagic);
}

/// Quantize one activation row to unsigned 7-bit codes with a per-row
/// asymmetric scale/zero-point — the scalar reference tier. The [0, 127]
/// code range (not [0, 255]) is what makes the AVX2 GEMM exact: every
/// vpmaddubsw pair sum is at most 2·127·127 = 32258 < 2^15, so the i16
/// intermediate never saturates and SIMD equals the serial int32
/// reference. The quantized range always brackets 0 (lo ≤ 0 ≤ hi), so
/// the zero point lands in [0, 127] and an all-zero row round-trips to
/// exact zeros.
void quantize_activation_row_scalar(const float* ar, std::size_t kn,
                                    std::size_t kpad, std::uint8_t* q,
                                    float* sa, std::int32_t* zp) {
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t k = 0; k < kn; ++k) {
    lo = std::min(lo, ar[k]);
    hi = std::max(hi, ar[k]);
  }
  const float range = hi - lo;
  if (range <= 0.0f) {
    *sa = 1.0f;
    *zp = 0;
    std::memset(q, 0, kpad);
    return;
  }
  const float inv = 127.0f / range;
  const std::int32_t z = std::clamp(round_nearest_i32(-lo * inv), 0, 127);
  for (std::size_t k = 0; k < kn; ++k) {
    const std::int32_t v = round_nearest_i32(ar[k] * inv) + z;
    q[k] = static_cast<std::uint8_t>(std::clamp(v, 0, 127));
  }
  std::memset(q + kn, 0, kpad - kn);
  *sa = range / 127.0f;
  *zp = z;
}

#ifdef NFV_X86_MULTIVERSION
/// AVX2 activation quantizer. Bit-identical to the scalar tier by
/// construction: min/max and the ×inv multiply are exact IEEE ops in any
/// order, and vcvtps2dq rounds to nearest-even — the same rounding the
/// scalar tier gets from the 1.5·2^23 magic constant (exact for the
/// |x| ≤ ~127 range every code lives in). So toggling SIMD never changes
/// the codes, and the cross-tier GEMM identity holds end to end.
__attribute__((target("avx2"))) void quantize_activation_rows_avx2(
    const Matrix& a, std::size_t kpad, std::uint8_t* qa, float* sa,
    std::int32_t* zp) {
  const std::size_t kn = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ar = a.row(i);
    std::uint8_t* q = qa + i * kpad;
    __m256 vlo = _mm256_setzero_ps();  // seeds match the scalar lo=hi=0
    __m256 vhi = _mm256_setzero_ps();
    std::size_t k = 0;
    for (; k + 8 <= kn; k += 8) {
      const __m256 v = _mm256_loadu_ps(ar + k);
      vlo = _mm256_min_ps(vlo, v);
      vhi = _mm256_max_ps(vhi, v);
    }
    __m128 l4 = _mm_min_ps(_mm256_castps256_ps128(vlo),
                           _mm256_extractf128_ps(vlo, 1));
    l4 = _mm_min_ps(l4, _mm_movehl_ps(l4, l4));
    l4 = _mm_min_ss(l4, _mm_shuffle_ps(l4, l4, 1));
    float lo = _mm_cvtss_f32(l4);
    __m128 h4 = _mm_max_ps(_mm256_castps256_ps128(vhi),
                           _mm256_extractf128_ps(vhi, 1));
    h4 = _mm_max_ps(h4, _mm_movehl_ps(h4, h4));
    h4 = _mm_max_ss(h4, _mm_shuffle_ps(h4, h4, 1));
    float hi = _mm_cvtss_f32(h4);
    for (; k < kn; ++k) {
      lo = std::min(lo, ar[k]);
      hi = std::max(hi, ar[k]);
    }
    const float range = hi - lo;
    if (range <= 0.0f) {
      sa[i] = 1.0f;
      zp[i] = 0;
      std::memset(q, 0, kpad);
      continue;
    }
    const float inv = 127.0f / range;
    const std::int32_t z = std::clamp(round_nearest_i32(-lo * inv), 0, 127);
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256i vz = _mm256_set1_epi32(z);
    const __m256i v127 = _mm256_set1_epi32(127);
    const __m256i vzero = _mm256_setzero_si256();
    k = 0;
    for (; k + 16 <= kn; k += 16) {
      __m256i q0 =
          _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(ar + k), vinv));
      __m256i q1 = _mm256_cvtps_epi32(
          _mm256_mul_ps(_mm256_loadu_ps(ar + k + 8), vinv));
      q0 = _mm256_min_epi32(
          _mm256_max_epi32(_mm256_add_epi32(q0, vz), vzero), v127);
      q1 = _mm256_min_epi32(
          _mm256_max_epi32(_mm256_add_epi32(q1, vz), vzero), v127);
      // packs interleaves 128-bit lanes; permute restores element order.
      __m256i p = _mm256_packs_epi32(q0, q1);
      p = _mm256_permute4x64_epi64(p, 0xD8);
      const __m128i bytes =
          _mm_packus_epi16(_mm256_castsi256_si128(p),
                           _mm256_extracti128_si256(p, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + k), bytes);
    }
    for (; k < kn; ++k) {
      const std::int32_t v = round_nearest_i32(ar[k] * inv) + z;
      q[k] = static_cast<std::uint8_t>(std::clamp(v, 0, 127));
    }
    std::memset(q + kn, 0, kpad - kn);
    sa[i] = range / 127.0f;
    zp[i] = z;
  }
}
#endif

/// Quantize every row of `a` (see the per-tier functions above; the two
/// tiers produce identical codes, so this dispatch is a pure speed knob).
void quantize_activation_rows(const Matrix& a, std::size_t kpad,
                              std::uint8_t* qa, float* sa,
                              std::int32_t* zp) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    quantize_activation_rows_avx2(a, kpad, qa, sa, zp);
    return;
  }
#endif
  const std::size_t kn = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    quantize_activation_row_scalar(a.row(i), kn, kpad, qa + i * kpad, sa + i,
                                   zp + i);
  }
}

/// Activation-quantization scratch: filled on the calling thread before
/// any parallel fan-out; workers only read through captured pointers.
thread_local std::vector<std::uint8_t> tl_quant_a;
thread_local std::vector<float> tl_quant_sa;
thread_local std::vector<std::int32_t> tl_quant_zp;

/// Rows [i0, i1) of the quantized product, plain-int reference tier.
/// Walks the packed panels in the same order as the AVX2 kernel; the
/// integer sums are exact so the order is immaterial, and the dequant
/// epilogue is the canonical expression shared with the SIMD tier.
void quant_rows_serial(const std::uint8_t* qa, const float* sa,
                       const std::int32_t* zp, std::size_t kpad,
                       const QuantizedMatrix& qb, Matrix& out,
                       std::size_t i0, std::size_t i1) {
  const std::size_t groups = kpad / kQuantK;
  const std::size_t panels = qb.rows / kPanelCols;
  const std::int8_t* tail_base =
      qb.data.data() + panels * kpad * kPanelCols;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint8_t* ar = qa + i * kpad;
    float* orow = out.row(i);
    const float sai = sa[i];
    const std::int32_t zpi = zp[i];
    for (std::size_t p = 0; p < panels; ++p) {
      const std::int8_t* panel = qb.data.data() + p * kpad * kPanelCols;
      std::int32_t acc[kPanelCols] = {};
      for (std::size_t g = 0; g < groups; ++g) {
        const std::uint8_t* av = ar + kQuantK * g;
        const std::int8_t* bg = panel + kPanelCols * kQuantK * g;
        for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
          const std::int8_t* bv = bg + kQuantK * jj;
          acc[jj] += static_cast<std::int32_t>(av[0]) * bv[0] +
                     static_cast<std::int32_t>(av[1]) * bv[1] +
                     static_cast<std::int32_t>(av[2]) * bv[2] +
                     static_cast<std::int32_t>(av[3]) * bv[3];
        }
      }
      const float* sc = qb.scales.data() + kPanelCols * p;
      const std::int32_t* cs = qb.col_sums.data() + kPanelCols * p;
      float* o = orow + kPanelCols * p;
      for (std::size_t jj = 0; jj < kPanelCols; ++jj) {
        o[jj] =
            static_cast<float>(acc[jj] - zpi * cs[jj]) * (sai * sc[jj]);
      }
    }
    for (std::size_t c = panels * kPanelCols; c < qb.rows; ++c) {
      const std::int8_t* bv =
          tail_base + (c - panels * kPanelCols) * kpad;
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kpad; ++k) {
        acc += static_cast<std::int32_t>(ar[k]) * bv[k];
      }
      orow[c] = static_cast<float>(acc - zpi * qb.col_sums[c]) *
                (sai * qb.scales[c]);
    }
  }
}

#ifdef NFV_X86_MULTIVERSION
/// Broadcast one 4-byte activation quad to all 8 panel lanes. (Free
/// function, not a lambda: GCC does not propagate the target attribute
/// into lambdas defined inside a target("avx2") function.)
__attribute__((target("avx2"))) inline __m256i quant_bcast4(
    const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm256_set1_epi32(v);
}

/// Dequant epilogue for one row × one panel: the canonical
/// (acc − zp·col_sum) · (sa·scale) expression shared with the serial tier.
__attribute__((target("avx2"))) inline void quant_finish_row(
    __m256i acc, std::int32_t zp, float sa, __m256i cs, __m256 sc,
    float* dst) {
  const __m256i corr = _mm256_mullo_epi32(_mm256_set1_epi32(zp), cs);
  const __m256 f = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, corr));
  const __m256 s = _mm256_mul_ps(_mm256_set1_ps(sa), sc);
  _mm256_storeu_ps(dst, _mm256_mul_ps(f, s));
}

/// AVX2 tier: one vpmaddubsw + vpmaddwd pair turns a 4-k × 8-channel
/// 32-byte panel block into 8 int32 channel partials; 4 a-rows share
/// each panel load. Unsigned activations ride the first operand,
/// signed weights the second — with u7 codes the i16 intermediate
/// cannot saturate, so this equals quant_rows_serial exactly.
__attribute__((target("avx2"))) void quant_rows_avx2(
    const std::uint8_t* qa, const float* sa, const std::int32_t* zp,
    std::size_t kpad, const QuantizedMatrix& qb, Matrix& out,
    std::size_t i0, std::size_t i1) {
  const std::size_t groups = kpad / kQuantK;
  const std::size_t panels = qb.rows / kPanelCols;
  const std::int8_t* tail_base =
      qb.data.data() + panels * kpad * kPanelCols;
  const __m256i ones = _mm256_set1_epi16(1);
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const std::uint8_t* a0 = qa + i * kpad;
    const std::uint8_t* a1 = qa + (i + 1) * kpad;
    const std::uint8_t* a2 = qa + (i + 2) * kpad;
    const std::uint8_t* a3 = qa + (i + 3) * kpad;
    for (std::size_t p = 0; p < panels; ++p) {
      const std::int8_t* panel = qb.data.data() + p * kpad * kPanelCols;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (std::size_t g = 0; g < groups; ++g) {
        const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            panel + kPanelCols * kQuantK * g));
        acc0 = _mm256_add_epi32(
            acc0,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(quant_bcast4(a0 + kQuantK * g), bv),
                ones));
        acc1 = _mm256_add_epi32(
            acc1,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(quant_bcast4(a1 + kQuantK * g), bv),
                ones));
        acc2 = _mm256_add_epi32(
            acc2,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(quant_bcast4(a2 + kQuantK * g), bv),
                ones));
        acc3 = _mm256_add_epi32(
            acc3,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(quant_bcast4(a3 + kQuantK * g), bv),
                ones));
      }
      const __m256i cs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          qb.col_sums.data() + kPanelCols * p));
      const __m256 sc = _mm256_loadu_ps(qb.scales.data() + kPanelCols * p);
      float* obase = out.row(i) + kPanelCols * p;
      quant_finish_row(acc0, zp[i], sa[i], cs, sc, obase);
      quant_finish_row(acc1, zp[i + 1], sa[i + 1], cs, sc,
                       out.row(i + 1) + kPanelCols * p);
      quant_finish_row(acc2, zp[i + 2], sa[i + 2], cs, sc,
                       out.row(i + 2) + kPanelCols * p);
      quant_finish_row(acc3, zp[i + 3], sa[i + 3], cs, sc,
                       out.row(i + 3) + kPanelCols * p);
    }
    for (std::size_t c = panels * kPanelCols; c < qb.rows; ++c) {
      const std::int8_t* bv =
          tail_base + (c - panels * kPanelCols) * kpad;
      std::int32_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
      for (std::size_t k = 0; k < kpad; ++k) {
        const std::int32_t bk = bv[k];
        d0 += static_cast<std::int32_t>(a0[k]) * bk;
        d1 += static_cast<std::int32_t>(a1[k]) * bk;
        d2 += static_cast<std::int32_t>(a2[k]) * bk;
        d3 += static_cast<std::int32_t>(a3[k]) * bk;
      }
      const float sbc = qb.scales[c];
      const std::int32_t csc = qb.col_sums[c];
      out.row(i)[c] =
          static_cast<float>(d0 - zp[i] * csc) * (sa[i] * sbc);
      out.row(i + 1)[c] =
          static_cast<float>(d1 - zp[i + 1] * csc) * (sa[i + 1] * sbc);
      out.row(i + 2)[c] =
          static_cast<float>(d2 - zp[i + 2] * csc) * (sa[i + 2] * sbc);
      out.row(i + 3)[c] =
          static_cast<float>(d3 - zp[i + 3] * csc) * (sa[i + 3] * sbc);
    }
  }
  for (; i < i1; ++i) {
    const std::uint8_t* ar = qa + i * kpad;
    float* orow = out.row(i);
    const float sai = sa[i];
    const std::int32_t zpi = zp[i];
    for (std::size_t p = 0; p < panels; ++p) {
      const std::int8_t* panel = qb.data.data() + p * kpad * kPanelCols;
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t g = 0; g < groups; ++g) {
        const __m256i bv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            panel + kPanelCols * kQuantK * g));
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(quant_bcast4(ar + kQuantK * g), bv),
                ones));
      }
      const __m256i cs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          qb.col_sums.data() + kPanelCols * p));
      const __m256 sc = _mm256_loadu_ps(qb.scales.data() + kPanelCols * p);
      quant_finish_row(acc, zpi, sai, cs, sc, orow + kPanelCols * p);
    }
    for (std::size_t c = panels * kPanelCols; c < qb.rows; ++c) {
      const std::int8_t* bv =
          tail_base + (c - panels * kPanelCols) * kpad;
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kpad; ++k) {
        acc += static_cast<std::int32_t>(ar[k]) * bv[k];
      }
      orow[c] = static_cast<float>(acc - zpi * qb.col_sums[c]) *
                (sai * qb.scales[c]);
    }
  }
}
#endif

void quant_rows_dispatch(const std::uint8_t* qa, const float* sa,
                         const std::int32_t* zp, std::size_t kpad,
                         const QuantizedMatrix& qb, Matrix& out,
                         std::size_t i0, std::size_t i1) {
#ifdef NFV_X86_MULTIVERSION
  if (simd_kernels_enabled()) {
    quant_rows_avx2(qa, sa, zp, kpad, qb, out, i0, i1);
    return;
  }
#endif
  quant_rows_serial(qa, sa, zp, kpad, qb, out, i0, i1);
}

}  // namespace

bool simd_kernels_enabled() {
  return simd_flag().load(std::memory_order_relaxed);
}

void set_simd_kernels_enabled(bool enabled) {
#ifdef NFV_X86_MULTIVERSION
  simd_flag().store(enabled && has_avx2_fma(), std::memory_order_relaxed);
#else
  (void)enabled;
  simd_flag().store(false, std::memory_order_relaxed);
#endif
}

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::add(const Matrix& other) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::add shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::add_scaled(const Matrix& other, float k) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += k * other.data_[i];
  }
}

void Matrix::scale(float k) {
  for (float& x : data_) x *= k;
}

void Matrix::hadamard(const Matrix& other) {
  NFV_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::hadamard shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

double Matrix::squared_norm() const {
  double sum = 0.0;
  for (float x : data_) sum += static_cast<double>(x) * x;
  return sum;
}

void matmul_serial(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  out.resize(a.rows(), b.cols());
  if (a.rows() < kPackMinRows) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      matmul_row_dispatch(a, b, out, i);
    }
    return;
  }
  pack_matmul_b_panels(b, tl_packed_b);
  matmul_rows_bpacked_dispatch(a, b, tl_packed_b.data(), out, 0, a.rows());
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  if (!use_parallel(a.rows() * a.cols() * b.cols())) {
    matmul_serial(a, b, out);
    return;
  }
  out.resize(a.rows(), b.cols());
  // Pack once on the calling thread; row blocks keep the 4×8 tiling inside
  // each parallel task. Every task writes only its own rows and every
  // accumulator chain keeps its k-order, so the result matches the serial
  // kernel bit for bit regardless of thread count.
  pack_matmul_b_panels(b, tl_packed_b);
  const float* packed = tl_packed_b.data();
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    matmul_rows_bpacked_dispatch(a, b, packed, out, i0,
                                 std::min(i0 + kRowBlock, a.rows()));
  });
}

void pack_matmul_b(const Matrix& b, std::vector<float>& packed) {
  pack_matmul_b_panels(b, packed);
}

void matmul_packed(const Matrix& a, const Matrix& b,
                   const std::vector<float>& packed, Matrix& out) {
  NFV_CHECK(a.cols() == b.rows(), "matmul_packed inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.rows());
  NFV_CHECK(packed.size() == (b.cols() / kPanelCols) * b.rows() * kPanelCols,
            "matmul_packed: packed buffer does not match b (repack needed)");
  out.resize(a.rows(), b.cols());
  if (!use_parallel(a.rows() * a.cols() * b.cols())) {
    matmul_rows_bpacked_dispatch(a, b, packed.data(), out, 0, a.rows());
    return;
  }
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    matmul_rows_bpacked_dispatch(a, b, packed.data(), out, i0,
                                 std::min(i0 + kRowBlock, a.rows()));
  });
}

void matmul_transb_serial(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(), "matmul_transb inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.cols());
  out.resize(a.rows(), b.rows());
  if (a.rows() < kPackMinRows) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      transb_row_dispatch(a, b, out, i);
    }
    return;
  }
  pack_transb_panels(b, tl_packed_b);
  transb_rows_packed_dispatch(a, b, tl_packed_b.data(), out, 0, a.rows());
}

namespace {

/// out = a·bᵀ (already shaped) from b's packed panels. Above the work
/// threshold the rows run in parallel blocks that keep the 4-row tiling
/// inside each task. Every task writes only its own rows and every
/// accumulator chain keeps its k-order, so the result matches the serial
/// kernel bit for bit regardless of thread count.
void transb_packed_rows(const Matrix& a, const Matrix& b, const float* packed,
                        Matrix& out) {
  if (!use_parallel(a.rows() * a.cols() * b.rows())) {
    transb_rows_packed_dispatch(a, b, packed, out, 0, a.rows());
    return;
  }
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    transb_rows_packed_dispatch(a, b, packed, out, i0,
                                std::min(i0 + kRowBlock, a.rows()));
  });
}

}  // namespace

void matmul_transb(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.cols() == b.cols(), "matmul_transb inner-dimension mismatch: "
                                      << a.cols() << " vs " << b.cols());
  if (a.rows() < kPackMinRows) {
    matmul_transb_serial(a, b, out);
    return;
  }
  out.resize(a.rows(), b.rows());
  // Pack on the calling thread; parallel workers only read the panels.
  pack_transb_panels(b, tl_packed_b);
  transb_packed_rows(a, b, tl_packed_b.data(), out);
}

void pack_transb(const Matrix& b, std::vector<float>& packed) {
  pack_transb_panels(b, packed);
}

void matmul_transb_packed(const Matrix& a, const Matrix& b,
                          const std::vector<float>& packed, Matrix& out) {
  if (packed.empty()) {
    matmul_transb(a, b, out);
    return;
  }
  NFV_CHECK(a.cols() == b.cols(),
            "matmul_transb_packed inner-dimension mismatch: "
                << a.cols() << " vs " << b.cols());
  NFV_CHECK(packed.size() == (b.rows() / kPanelCols) * b.cols() * kPanelCols,
            "matmul_transb_packed: packed buffer does not match b "
            "(repack needed)");
  out.resize(a.rows(), b.rows());
  transb_packed_rows(a, b, packed.data(), out);
}

void matmul_transa_accumulate_serial(const Matrix& a, const Matrix& b,
                                     Matrix& out) {
  NFV_CHECK(a.rows() == b.rows(),
            "matmul_transa_accumulate row mismatch: " << a.rows() << " vs "
                                                      << b.rows());
  NFV_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_transa_accumulate output shape mismatch");
  transa_acc_block_dispatch(a, b, out, 0, b.cols());
}

void matmul_transa_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  NFV_CHECK(a.rows() == b.rows(),
            "matmul_transa_accumulate row mismatch: " << a.rows() << " vs "
                                                      << b.rows());
  NFV_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
            "matmul_transa_accumulate output shape mismatch");
  if (!use_parallel(a.rows() * a.cols() * b.cols())) {
    transa_acc_block_dispatch(a, b, out, 0, b.cols());
    return;
  }
  nfv::util::ThreadPool& pool = nfv::util::global_pool();
  const std::size_t blocks = std::min(b.cols(), pool.size() * 4);
  const std::size_t block = (b.cols() + blocks - 1) / blocks;
  pool.parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t c0 = bi * block;
    const std::size_t c1 = std::min(c0 + block, b.cols());
    if (c0 < c1) transa_acc_block_dispatch(a, b, out, c0, c1);
  });
}

void quantize_pack_b(const Matrix& b, QuantizedMatrix& out) {
  const std::size_t cn = b.rows();
  const std::size_t kn = b.cols();
  out.rows = cn;
  out.cols = kn;
  out.cols_padded = (kn + kQuantK - 1) / kQuantK * kQuantK;
  out.scales.assign(cn, 1.0f);
  out.col_sums.assign(cn, 0);
  const std::size_t panels = cn / kPanelCols;
  out.data.assign(cn * out.cols_padded, 0);
  std::vector<std::int8_t> qrow(out.cols_padded, 0);
  for (std::size_t c = 0; c < cn; ++c) {
    const float* w = b.row(c);
    float amax = 0.0f;
    for (std::size_t k = 0; k < kn; ++k) {
      amax = std::max(amax, std::fabs(w[k]));
    }
    // All-zero channels keep scale 1 (nothing divides by zero) and code
    // 0 everywhere — the dequantized row is exactly zero.
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
    std::int32_t sum = 0;
    for (std::size_t k = 0; k < kn; ++k) {
      const std::int32_t q =
          std::clamp(round_nearest_i32(w[k] * inv), -127, 127);
      qrow[k] = static_cast<std::int8_t>(q);
      sum += q;
    }
    std::fill(qrow.begin() + kn, qrow.end(), static_cast<std::int8_t>(0));
    out.scales[c] = scale;
    out.col_sums[c] = sum;
    if (c < panels * kPanelCols) {
      // Scatter into the panel's 4-k × 8-channel blocks.
      const std::size_t p = c / kPanelCols;
      const std::size_t jj = c % kPanelCols;
      std::int8_t* panel = out.data.data() + p * out.cols_padded * kPanelCols;
      for (std::size_t g = 0; g < out.cols_padded / kQuantK; ++g) {
        std::memcpy(panel + kPanelCols * kQuantK * g + kQuantK * jj,
                    qrow.data() + kQuantK * g, kQuantK);
      }
    } else {
      std::memcpy(out.data.data() + panels * out.cols_padded * kPanelCols +
                      (c - panels * kPanelCols) * out.cols_padded,
                  qrow.data(), out.cols_padded);
    }
  }
}

void matmul_quant_serial(const Matrix& a, const QuantizedMatrix& qb,
                         Matrix& out) {
  NFV_CHECK(a.cols() == qb.cols, "matmul_quant inner-dimension mismatch: "
                                     << a.cols() << " vs " << qb.cols);
  out.resize(a.rows(), qb.rows);
  if (a.rows() == 0 || qb.rows == 0) return;
  const std::size_t kpad = qb.cols_padded;
  tl_quant_a.resize(a.rows() * kpad);
  tl_quant_sa.resize(a.rows());
  tl_quant_zp.resize(a.rows());
  quantize_activation_rows(a, kpad, tl_quant_a.data(), tl_quant_sa.data(),
                           tl_quant_zp.data());
  quant_rows_dispatch(tl_quant_a.data(), tl_quant_sa.data(),
                      tl_quant_zp.data(), kpad, qb, out, 0, a.rows());
}

void matmul_quant(const Matrix& a, const QuantizedMatrix& qb, Matrix& out) {
  NFV_CHECK(a.cols() == qb.cols, "matmul_quant inner-dimension mismatch: "
                                     << a.cols() << " vs " << qb.cols);
  if (!use_parallel(a.rows() * a.cols() * qb.rows)) {
    matmul_quant_serial(a, qb, out);
    return;
  }
  out.resize(a.rows(), qb.rows);
  // Quantize every activation row once on the calling thread; the row
  // blocks then run an exact integer reduction plus a per-element float
  // epilogue, so any thread count produces the serial result bit for bit.
  const std::size_t kpad = qb.cols_padded;
  tl_quant_a.resize(a.rows() * kpad);
  tl_quant_sa.resize(a.rows());
  tl_quant_zp.resize(a.rows());
  quantize_activation_rows(a, kpad, tl_quant_a.data(), tl_quant_sa.data(),
                           tl_quant_zp.data());
  const std::uint8_t* qa = tl_quant_a.data();
  const float* sa = tl_quant_sa.data();
  const std::int32_t* zp = tl_quant_zp.data();
  constexpr std::size_t kRowBlock = 16;
  const std::size_t blocks = (a.rows() + kRowBlock - 1) / kRowBlock;
  nfv::util::global_pool().parallel_for(0, blocks, [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    quant_rows_dispatch(qa, sa, zp, kpad, qb, out, i0,
                        std::min(i0 + kRowBlock, a.rows()));
  });
}

void add_row_vector(Matrix& m, const Matrix& row) {
  NFV_CHECK(row.rows() == 1 && row.cols() == m.cols(),
            "add_row_vector expects a 1×cols vector");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* mrow = m.row(r);
    const float* v = row.row(0);
    for (std::size_t c = 0; c < m.cols(); ++c) mrow[c] += v[c];
  }
}

void sum_rows_accumulate(const Matrix& m, Matrix& out) {
  NFV_CHECK(out.rows() == 1 && out.cols() == m.cols(),
            "sum_rows_accumulate expects a 1×cols accumulator");
  float* acc = out.row(0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* mrow = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) acc[c] += mrow[c];
  }
}

}  // namespace nfv::ml
