#include "ml/fused_lstm.h"

#include <algorithm>

#include "ml/sequence_model.h"
#include "ml/simd_math.h"
#include "util/check.h"

// GCC 12's AVX-512F intrinsics (max/min/roundscale/cvtps/slli/andnot) pass
// an _mm512_undefined_* operand under an all-ones mask, which
// -Wmaybe-uninitialized reports from every inlined call site.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace nfv::ml {

namespace {

constexpr std::size_t kGates = 4;
constexpr std::size_t kBlockFloats = kGates * kFusedLanes;  // one k row
constexpr std::size_t kTileRows = 4;

/// Gate row g, unit u of 16-unit block b in an (4H × ·) LSTM weight.
std::size_t gate_row(std::size_t hidden, std::size_t b, std::size_t g,
                     std::size_t u) {
  return g * hidden + b * kFusedLanes + u;
}

#ifdef NFV_ML_SIMD
using simd::sigmoid512;
using simd::tanh512;

/// Per-tile recurrent state: for each layer h at even t, h at odd t (the
/// layer reads its previous h while writing the next), then c; each
/// kTileRows × H. Grown once per thread.
thread_local std::vector<float> tl_state;

/// acc[r][g] = fma(src[r·stride + k], w[k][g], acc[r][g]) for k in [0, n):
/// each lane extends its gate chain by n steps in k order.
template <std::size_t R>
__attribute__((target("avx512f,avx2,fma"), always_inline)) inline void
accumulate(__m512 (&acc)[R][kGates], const float* src, std::size_t stride,
           std::size_t n, const float* w) {
  for (std::size_t k = 0; k < n; ++k, w += kBlockFloats) {
    const __m512 wi = _mm512_loadu_ps(w);
    const __m512 wf = _mm512_loadu_ps(w + kFusedLanes);
    const __m512 wg = _mm512_loadu_ps(w + 2 * kFusedLanes);
    const __m512 wo = _mm512_loadu_ps(w + 3 * kFusedLanes);
    for (std::size_t r = 0; r < R; ++r) {
      const __m512 a = _mm512_set1_ps(src[r * stride + k]);
      acc[r][0] = _mm512_fmadd_ps(a, wi, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(a, wf, acc[r][1]);
      acc[r][2] = _mm512_fmadd_ps(a, wg, acc[r][2]);
      acc[r][3] = _mm512_fmadd_ps(a, wo, acc[r][3]);
    }
  }
}

/// Full forward of R ≤ 4 windows (row stride `window` in ids/dts), all
/// layers and timesteps, tile by tile of 16 hidden units.
template <std::size_t R>
__attribute__((target("avx512f,avx2,fma"))) void forward_tile(
    const FusedLstmImage& img, const std::int32_t* ids, const float* dts,
    std::size_t window, float* state, float* hidden) {
  const std::size_t h = img.hidden;
  const std::size_t width = kGates * h;
  const std::size_t blocks = h / kFusedLanes;
  const std::size_t plane = kTileRows * h;
  const auto h_buf = [&](std::size_t l, std::size_t t) {
    return state + (3 * l + (t & 1)) * plane;
  };
  for (std::size_t t = 0; t < window; ++t) {
    float xdt[R] = {};
    if (img.use_dt) {
      for (std::size_t r = 0; r < R; ++r) {
        xdt[r] = normalize_dt(dts[r * window + t]);
      }
    }
    for (std::size_t l = 0; l < img.layers; ++l) {
      const float* x = l == 0 ? xdt : h_buf(l - 1, t);
      const std::size_t x_stride = l == 0 ? 1 : h;
      const std::size_t x_rows = l == 0 ? (img.use_dt ? 1 : 0) : h;
      const float* h_prev = h_buf(l, t + 1);  // written at t − 1
      float* h_next = h_buf(l, t);
      float* c = state + (3 * l + 2) * plane;
      const float* w = img.weights.data() + img.layer_offset[l];
      const float* bias = img.bias.data() + l * width;
      for (std::size_t b = 0; b < blocks; ++b) {
        // Layer 0 starts every chain from its embedding partial P[id];
        // upper layers start from zero.
        __m512 acc[R][kGates];
        for (std::size_t r = 0; r < R; ++r) {
          const float* p =
              img.table.data() +
              static_cast<std::size_t>(ids[r * window + t]) * width +
              b * kBlockFloats;
          for (std::size_t g = 0; g < kGates; ++g) {
            acc[r][g] = l == 0 ? _mm512_loadu_ps(p + g * kFusedLanes)
                               : _mm512_setzero_ps();
          }
        }
        accumulate<R>(acc, x, x_stride, x_rows, w);
        w += x_rows * kBlockFloats;
        if (t > 0) accumulate<R>(acc, h_prev, h, h, w);
        w += h * kBlockFloats;

        const float* bb = bias + b * kBlockFloats;
        const __m512 bi = _mm512_loadu_ps(bb);
        const __m512 bf = _mm512_loadu_ps(bb + kFusedLanes);
        const __m512 bg = _mm512_loadu_ps(bb + 2 * kFusedLanes);
        const __m512 bo = _mm512_loadu_ps(bb + 3 * kFusedLanes);
        for (std::size_t r = 0; r < R; ++r) {
          const __m512 ig = sigmoid512(_mm512_add_ps(acc[r][0], bi));
          const __m512 fg = sigmoid512(_mm512_add_ps(acc[r][1], bf));
          const __m512 cg = tanh512(_mm512_add_ps(acc[r][2], bg));
          const __m512 og = sigmoid512(_mm512_add_ps(acc[r][3], bo));
          float* cr = c + r * h + b * kFusedLanes;
          const __m512 cp = t == 0 ? _mm512_setzero_ps() : _mm512_loadu_ps(cr);
          const __m512 cn = _mm512_fmadd_ps(fg, cp, _mm512_mul_ps(ig, cg));
          _mm512_storeu_ps(cr, cn);
          _mm512_storeu_ps(h_next + r * h + b * kFusedLanes,
                           _mm512_mul_ps(og, tanh512(cn)));
        }
      }
    }
  }
  const float* top = h_buf(img.layers - 1, window - 1);
  std::copy(top, top + R * h, hidden);
}

/// P = E·W_embᵀ: for every template, layer 0's gate chains over the
/// embedding columns, each lane fma'd from zero in k order exactly as the
/// stepped gate GEMM does.
__attribute__((target("avx512f,avx2,fma"))) void build_table(
    const Matrix& embedding, const Matrix& w0, std::size_t hidden,
    std::vector<float>& table) {
  const std::size_t vocab = embedding.rows();
  const std::size_t dim = embedding.cols();
  const std::size_t width = kGates * hidden;
  // The embedding columns of W0, k-major and block-packed.
  std::vector<float> packed(dim * width);
  for (std::size_t k = 0; k < dim; ++k) {
    for (std::size_t b = 0; b < hidden / kFusedLanes; ++b) {
      for (std::size_t g = 0; g < kGates; ++g) {
        for (std::size_t u = 0; u < kFusedLanes; ++u) {
          packed[k * width + b * kBlockFloats + g * kFusedLanes + u] =
              w0.at(gate_row(hidden, b, g, u), k);
        }
      }
    }
  }
  table.resize(vocab * width);
  for (std::size_t v = 0; v < vocab; ++v) {
    const float* e = embedding.row(v);
    for (std::size_t q = 0; q < width; q += kFusedLanes) {
      __m512 acc = _mm512_setzero_ps();
      for (std::size_t k = 0; k < dim; ++k) {
        acc = _mm512_fmadd_ps(_mm512_set1_ps(e[k]),
                              _mm512_loadu_ps(&packed[k * width + q]), acc);
      }
      _mm512_storeu_ps(&table[v * width + q], acc);
    }
  }
}
#endif  // NFV_ML_SIMD

}  // namespace

bool fused_lstm_cpu() {
#ifdef NFV_ML_SIMD
  static const bool value = __builtin_cpu_supports("avx512f") &&
                            __builtin_cpu_supports("avx2") &&
                            __builtin_cpu_supports("fma");
  return value;
#else
  return false;
#endif
}

bool fused_lstm_enabled() {
  return fused_lstm_cpu() && simd_kernels_enabled();
}

void pack_fused_lstm(const Matrix& embedding, const std::vector<Lstm>& layers,
                     bool use_dt, const Matrix& output_weight,
                     FusedLstmImage& image) {
  NFV_CHECK(fused_lstm_cpu(), "fused LSTM image needs AVX-512F");
  NFV_CHECK(!layers.empty(), "fused LSTM image needs a layer");
  const std::size_t h = layers[0].hidden_size();
  NFV_CHECK(h % kFusedLanes == 0,
            "fused LSTM needs hidden % " << kFusedLanes << " == 0, got " << h);
  const std::size_t dim = embedding.cols();
  image.hidden = h;
  image.layers = layers.size();
  image.use_dt = use_dt;
  image.weights.clear();
  image.layer_offset.clear();
  image.bias.clear();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Matrix& w = layers[l].weight().value;
    const float* bias = layers[l].bias().value.row(0);
    // The weight columns the kernel multiplies: layer 0's Δt column (its
    // embedding columns live in the table), an upper layer's x columns,
    // then every layer's h columns.
    std::vector<std::size_t> cols;
    if (l == 0) {
      if (use_dt) cols.push_back(dim);
    } else {
      for (std::size_t k = 0; k < h; ++k) cols.push_back(k);
    }
    const std::size_t input = layers[l].input_size();
    for (std::size_t k = 0; k < h; ++k) cols.push_back(input + k);
    image.layer_offset.push_back(image.weights.size());
    for (std::size_t b = 0; b < h / kFusedLanes; ++b) {
      for (const std::size_t col : cols) {
        for (std::size_t g = 0; g < kGates; ++g) {
          for (std::size_t u = 0; u < kFusedLanes; ++u) {
            image.weights.push_back(w.at(gate_row(h, b, g, u), col));
          }
        }
      }
      for (std::size_t g = 0; g < kGates; ++g) {
        for (std::size_t u = 0; u < kFusedLanes; ++u) {
          image.bias.push_back(bias[gate_row(h, b, g, u)]);
        }
      }
    }
  }
#ifdef NFV_ML_SIMD
  build_table(embedding, layers[0].weight().value, h, image.table);
#endif
  pack_transb(output_weight, image.output);
}

void fused_lstm_forward(const FusedLstmImage& image, const std::int32_t* ids,
                        const float* dts, std::size_t window, std::size_t rows,
                        float* hidden) {
#ifdef NFV_ML_SIMD
  const std::size_t h = image.hidden;
  tl_state.resize(3 * image.layers * kTileRows * h);
  float* state = tl_state.data();
  std::size_t r = 0;
  for (; r + kTileRows <= rows; r += kTileRows) {
    forward_tile<kTileRows>(image, ids + r * window, dts + r * window, window,
                            state, hidden + r * h);
  }
  const std::int32_t* tail_ids = ids + r * window;
  const float* tail_dts = dts + r * window;
  float* tail = hidden + r * h;
  switch (rows - r) {
    case 3:
      forward_tile<3>(image, tail_ids, tail_dts, window, state, tail);
      break;
    case 2:
      forward_tile<2>(image, tail_ids, tail_dts, window, state, tail);
      break;
    case 1:
      forward_tile<1>(image, tail_ids, tail_dts, window, state, tail);
      break;
    default:
      break;
  }
#else
  (void)image, (void)ids, (void)dts, (void)window, (void)rows, (void)hidden;
  NFV_CHECK(false, "fused LSTM forward needs AVX-512F");
#endif
}

}  // namespace nfv::ml
