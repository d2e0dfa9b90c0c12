#include "ml/lstm.h"

#include <cmath>
#include <cstring>

#include "ml/activations.h"
#include "ml/simd_math.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nfv::ml {

namespace {

/// Row-parallel threshold for the elementwise gate/cell loops. The
/// sigmoid/tanh evaluations dominate the fused scoring batches (each costs
/// tens of MACs), so the bar is much lower than the matmul one; rows are
/// independent, so the parallel split is bit-identical to the serial loop.
/// Training batches (typically 64 rows) deliberately stay under it — at
/// that size a fork-join costs more than the row loop, and the training
/// path gets its parallelism from the chunky per-timestep gradient shards
/// instead. The fused scoring batches (~1024 rows) are far above it.
bool use_parallel_rows(std::size_t rows) {
  return rows >= 256 && !nfv::util::ThreadPool::in_parallel_region() &&
         nfv::util::global_pool().size() > 1;
}

template <typename Fn>
void for_each_row(std::size_t rows, const Fn& fn) {
  if (use_parallel_rows(rows)) {
    nfv::util::global_pool().parallel_for(0, rows, fn);
  } else {
    for (std::size_t r = 0; r < rows; ++r) fn(r);
  }
}

#ifdef NFV_ML_SIMD
using simd::sigmoid256;
using simd::tanh256;

/// Fused bias + gate activations for one row of [i f g o] pre-activations.
__attribute__((target("avx2,fma"))) void gate_activation_row_fma(
    float* g, const float* bias, std::size_t h) {
  for (std::size_t seg = 0; seg < 4; ++seg) {
    const std::size_t j1 = (seg + 1) * h;
    std::size_t j = seg * h;
    if (seg == 2) {  // candidate gate: tanh
      for (; j + 8 <= j1; j += 8) {
        const __m256 v = _mm256_add_ps(_mm256_loadu_ps(g + j),
                                       _mm256_loadu_ps(bias + j));
        _mm256_storeu_ps(g + j, tanh256(v));
      }
      for (; j < j1; ++j) g[j] = std::tanh(g[j] + bias[j]);
    } else {  // input / forget / output gates: sigmoid
      for (; j + 8 <= j1; j += 8) {
        const __m256 v = _mm256_add_ps(_mm256_loadu_ps(g + j),
                                       _mm256_loadu_ps(bias + j));
        _mm256_storeu_ps(g + j, sigmoid256(v));
      }
      for (; j < j1; ++j) g[j] = sigmoid(g[j] + bias[j]);
    }
  }
}

/// Fused cell/hidden update for one row: c = f·c_prev + i·g, h = o·tanh(c).
/// `cp` may alias `c`: each lane is loaded before it is stored.
__attribute__((target("avx2,fma"))) void cell_forward_row_fma(
    const float* g, const float* cp, float* c, float* hh, std::size_t h) {
  std::size_t j = 0;
  for (; j + 8 <= h; j += 8) {
    const __m256 ig = _mm256_loadu_ps(g + j);
    const __m256 fg = _mm256_loadu_ps(g + h + j);
    const __m256 cg = _mm256_loadu_ps(g + 2 * h + j);
    const __m256 og = _mm256_loadu_ps(g + 3 * h + j);
    const __m256 cj =
        _mm256_fmadd_ps(fg, _mm256_loadu_ps(cp + j), _mm256_mul_ps(ig, cg));
    _mm256_storeu_ps(c + j, cj);
    _mm256_storeu_ps(hh + j, _mm256_mul_ps(og, tanh256(cj)));
  }
  for (; j < h; ++j) {
    const float cj = __builtin_fmaf(g[h + j], cp[j], g[j] * g[2 * h + j]);
    c[j] = cj;
    hh[j] = g[3 * h + j] * std::tanh(cj);
  }
}

/// Fused gate-gradient pass for one row of the BPTT recurrence; same math
/// as the scalar body in Lstm::backward.
__attribute__((target("avx2,fma"))) void gate_backward_row_fma(
    const float* g, const float* c, const float* cprev, const float* gh,
    const float* dhn, float* dcn, float* dg, std::size_t h) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t j = 0;
  for (; j + 8 <= h; j += 8) {
    const __m256 ig = _mm256_loadu_ps(g + j);
    const __m256 fg = _mm256_loadu_ps(g + h + j);
    const __m256 cg = _mm256_loadu_ps(g + 2 * h + j);
    const __m256 og = _mm256_loadu_ps(g + 3 * h + j);
    const __m256 tc = tanh256(_mm256_loadu_ps(c + j));
    const __m256 dh =
        _mm256_add_ps(_mm256_loadu_ps(gh + j), _mm256_loadu_ps(dhn + j));
    const __m256 dc = _mm256_fmadd_ps(_mm256_mul_ps(dh, og),
                                      _mm256_fnmadd_ps(tc, tc, one),
                                      _mm256_loadu_ps(dcn + j));
    const __m256 cp = cprev ? _mm256_loadu_ps(cprev + j)
                            : _mm256_setzero_ps();
    const __m256 gi = _mm256_mul_ps(ig, _mm256_sub_ps(one, ig));
    const __m256 gf = _mm256_mul_ps(fg, _mm256_sub_ps(one, fg));
    const __m256 gg = _mm256_fnmadd_ps(cg, cg, one);
    const __m256 go = _mm256_mul_ps(og, _mm256_sub_ps(one, og));
    _mm256_storeu_ps(dg + j, _mm256_mul_ps(_mm256_mul_ps(dc, cg), gi));
    _mm256_storeu_ps(dg + h + j, _mm256_mul_ps(_mm256_mul_ps(dc, cp), gf));
    _mm256_storeu_ps(dg + 2 * h + j,
                     _mm256_mul_ps(_mm256_mul_ps(dc, ig), gg));
    _mm256_storeu_ps(dg + 3 * h + j,
                     _mm256_mul_ps(_mm256_mul_ps(dh, tc), go));
    _mm256_storeu_ps(dcn + j, _mm256_mul_ps(dc, fg));
  }
  for (; j < h; ++j) {
    const float ig = g[j];
    const float fg = g[h + j];
    const float cg = g[2 * h + j];
    const float og = g[3 * h + j];
    const float tc = std::tanh(c[j]);
    const float dh = gh[j] + dhn[j];
    const float dc = dh * og * (1.0f - tc * tc) + dcn[j];
    const float cpj = cprev ? cprev[j] : 0.0f;
    dg[j] = dc * cg * sigmoid_grad_from_output(ig);
    dg[h + j] = dc * cpj * sigmoid_grad_from_output(fg);
    dg[2 * h + j] = dc * ig * tanh_grad_from_output(cg);
    dg[3 * h + j] = dh * tc * sigmoid_grad_from_output(og);
    dcn[j] = dc * fg;
  }
}
#endif  // NFV_ML_SIMD

}  // namespace

Lstm::Lstm(std::string name, std::size_t input_size, std::size_t hidden_size,
           nfv::util::Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      weight_(name + ".weight", 4 * hidden_size, input_size + hidden_size),
      bias_(name + ".bias", 1, 4 * hidden_size) {
  xavier_uniform(weight_.value, input_size + hidden_size, hidden_size, rng);
  // Forget-gate bias = 1 (gate slice [H, 2H)).
  for (std::size_t j = hidden_size_; j < 2 * hidden_size_; ++j) {
    bias_.value.at(0, j) = 1.0f;
  }
}

void Lstm::concat_input(const Matrix& input, const Matrix& h_prev,
                        Matrix& concat) const {
  const std::size_t batch = input.rows();
  NFV_CHECK(input.cols() == input_size_,
            "Lstm input width " << input.cols() << " != " << input_size_);
  concat.resize(batch, input_size_ + hidden_size_);
  for (std::size_t r = 0; r < batch; ++r) {
    std::memcpy(concat.row(r), input.row(r), input_size_ * sizeof(float));
    std::memcpy(concat.row(r) + input_size_, h_prev.row(r),
                hidden_size_ * sizeof(float));
  }
}

void Lstm::activate_gates(Matrix& gates) const {
  const std::size_t h = hidden_size_;
  const float* bias = bias_.value.row(0);
  // Bias + activations fused into one row pass (same per-element order as
  // add_row_vector followed by the activation sweeps).
  const bool simd = simd_kernels_enabled();
  (void)simd;
  for_each_row(gates.rows(), [&](std::size_t r) {
    float* g = gates.row(r);
#ifdef NFV_ML_SIMD
    if (simd) {
      gate_activation_row_fma(g, bias, h);
      return;
    }
#endif
    for (std::size_t j = 0; j < 4 * h; ++j) g[j] += bias[j];
    for (std::size_t j = 0; j < h; ++j) g[j] = sigmoid(g[j]);                // i
    for (std::size_t j = h; j < 2 * h; ++j) g[j] = sigmoid(g[j]);            // f
    for (std::size_t j = 2 * h; j < 3 * h; ++j) g[j] = std::tanh(g[j]);      // g
    for (std::size_t j = 3 * h; j < 4 * h; ++j) g[j] = sigmoid(g[j]);        // o
  });
}

void Lstm::update_cell(const Matrix& gates, const Matrix& c_prev, Matrix& c,
                       Matrix& hidden) const {
  const std::size_t h = hidden_size_;
  const bool simd = simd_kernels_enabled();
  (void)simd;
  for_each_row(gates.rows(), [&](std::size_t r) {
    const float* g = gates.row(r);
    const float* cp = c_prev.row(r);
    float* cr = c.row(r);
    float* hh = hidden.row(r);
#ifdef NFV_ML_SIMD
    if (simd) {
      cell_forward_row_fma(g, cp, cr, hh, h);
      return;
    }
#endif
    for (std::size_t j = 0; j < h; ++j) {
      const float ig = g[j];
      const float fg = g[h + j];
      const float cg = g[2 * h + j];
      const float og = g[3 * h + j];
      cr[j] = fg * cp[j] + ig * cg;
      hh[j] = og * std::tanh(cr[j]);
    }
  });
}

const std::vector<Matrix>& Lstm::forward(const std::vector<Matrix>& inputs) {
  NFV_CHECK(!inputs.empty(), "Lstm::forward on empty sequence");
  const std::size_t steps = inputs.size();
  const std::size_t batch = inputs.front().rows();
  // Keep the cache matrices alive across batches: every entry is fully
  // rewritten below, so only the vector *length* needs to match and the
  // matrices' heap capacity is reused from the previous forward pass.
  if (concat_cache_.size() != steps) {
    concat_cache_.assign(steps, Matrix());
    gates_cache_.assign(steps, Matrix());
    c_cache_.assign(steps, Matrix());
    h_cache_.assign(steps, Matrix());
  }
  // Every step multiplies by the same W; pack it once per pass.
  pack_weight(packed_transb_);

  // Point at the previous step's cache entries instead of copying them —
  // the zero initial state is the only matrix materialized here.
  Matrix zero_state(batch, hidden_size_);
  const Matrix* h_prev = &zero_state;
  const Matrix* c_prev = &zero_state;
  for (std::size_t t = 0; t < steps; ++t) {
    NFV_CHECK(inputs[t].rows() == batch, "Lstm batch size varies over time");
    concat_input(inputs[t], *h_prev, concat_cache_[t]);
    matmul_transb_packed(concat_cache_[t], weight_.value, packed_transb_,
                         gates_cache_[t]);
    activate_gates(gates_cache_[t]);
    Matrix& c_t = c_cache_[t];
    Matrix& h_t = h_cache_[t];
    c_t.resize(batch, hidden_size_);
    h_t.resize(batch, hidden_size_);
    update_cell(gates_cache_[t], *c_prev, c_t, h_t);
    h_prev = &h_t;
    c_prev = &c_t;
  }
  return h_cache_;
}

const std::vector<Matrix>& Lstm::backward(
    const std::vector<Matrix>& grad_hidden) {
  const std::size_t steps = h_cache_.size();
  NFV_CHECK(grad_hidden.size() == steps,
            "Lstm::backward expects one hidden-gradient per step");
  NFV_CHECK(steps > 0, "Lstm::backward before forward");
  const std::size_t batch = h_cache_.front().rows();
  const std::size_t h = hidden_size_;

  if (grad_inputs_.size() != steps) grad_inputs_.assign(steps, Matrix());
  if (dgates_cache_.size() != steps) dgates_cache_.assign(steps, Matrix());
  dh_next_.resize(batch, h);
  dc_next_.resize(batch, h);
  // The dgates × W product recurs every step with the same W; pack it once.
  pack_matmul_b(weight_.value, packed_weight_);

  // Phase 1 — sequential in t (the dh/dc recurrence), row-parallel within
  // each step: one fused pass computes all four pre-activation gate
  // gradients and the carried cell gradient, then the packed product
  // yields dconcat and the dx / dh split. Every step's dgates stays alive
  // in dgates_cache_ for the parameter-gradient phase below.
  for (std::size_t ti = steps; ti-- > 0;) {
    const Matrix& gates = gates_cache_[ti];
    const Matrix& c_t = c_cache_[ti];
    const Matrix* c_prev = ti > 0 ? &c_cache_[ti - 1] : nullptr;
    Matrix& dgates = dgates_cache_[ti];
    dgates.resize(batch, 4 * h);

    const bool simd = simd_kernels_enabled();
    (void)simd;
    for_each_row(batch, [&](std::size_t r) {
      const float* g = gates.row(r);
      const float* c = c_t.row(r);
      const float* gh = grad_hidden[ti].row(r);
      float* dhn = dh_next_.row(r);
      float* dcn = dc_next_.row(r);
      float* dg = dgates.row(r);
#ifdef NFV_ML_SIMD
      if (simd) {
        gate_backward_row_fma(g, c, c_prev ? c_prev->row(r) : nullptr, gh,
                              dhn, dcn, dg, h);
        return;
      }
#endif
      for (std::size_t j = 0; j < h; ++j) {
        const float ig = g[j];
        const float fg = g[h + j];
        const float cg = g[2 * h + j];
        const float og = g[3 * h + j];
        const float tc = std::tanh(c[j]);
        const float dh = gh[j] + dhn[j];
        const float dc = dh * og * (1.0f - tc * tc) + dcn[j];
        const float cprev = c_prev ? c_prev->row(r)[j] : 0.0f;
        // Gradients w.r.t. pre-activation gate inputs.
        dg[j] = dc * cg * sigmoid_grad_from_output(ig);              // i
        dg[h + j] = dc * cprev * sigmoid_grad_from_output(fg);       // f
        dg[2 * h + j] = dc * ig * tanh_grad_from_output(cg);         // g
        dg[3 * h + j] = dh * tc * sigmoid_grad_from_output(og);      // o
        dcn[j] = dc * fg;  // carried to step t-1
      }
    });

    matmul_packed(dgates, weight_.value, packed_weight_, dconcat_);

    Matrix& dx = grad_inputs_[ti];
    dx.resize(batch, input_size_);
    for (std::size_t r = 0; r < batch; ++r) {
      std::memcpy(dx.row(r), dconcat_.row(r), input_size_ * sizeof(float));
      std::memcpy(dh_next_.row(r), dconcat_.row(r) + input_size_,
                  h * sizeof(float));
    }
  }

  // Phase 2 — parameter gradients. Each timestep's dW/db partial is an
  // independent product computed from zero (parallel across steps), then
  // the partials are reduced into the parameter grads in fixed descending
  // t-order. The same two-phase structure runs at every thread count, so
  // gradients are bit-identical for any NFVPRED_THREADS.
  if (dw_partials_.size() != steps) {
    dw_partials_.assign(steps, Matrix());
    db_partials_.assign(steps, Matrix());
  }
  const auto step_partial = [&](std::size_t t) {
    Matrix& dw = dw_partials_[t];
    dw.resize(4 * h, input_size_ + h);
    matmul_transa_accumulate_serial(dgates_cache_[t], concat_cache_[t], dw);
    Matrix& db = db_partials_[t];
    db.resize(1, 4 * h);
    sum_rows_accumulate(dgates_cache_[t], db);
  };
  if (!nfv::util::ThreadPool::in_parallel_region() &&
      nfv::util::global_pool().size() > 1) {
    nfv::util::global_pool().parallel_for(0, steps, step_partial);
  } else {
    for (std::size_t t = 0; t < steps; ++t) step_partial(t);
  }
  for (std::size_t ti = steps; ti-- > 0;) {
    weight_.grad.add(dw_partials_[ti]);
    bias_.grad.add(db_partials_[ti]);
  }
  return grad_inputs_;
}

void Lstm::pack_weight(std::vector<float>& packed) const {
  pack_transb(weight_.value, packed);
}

void Lstm::step(const Matrix& input, LstmState& state) const {
  Matrix concat;
  Matrix gates;
  step(input, state, {}, concat, gates);
}

void Lstm::step(const Matrix& input, LstmState& state,
                const std::vector<float>& packed_weight,
                Matrix& concat_scratch, Matrix& gates_scratch) const {
  NFV_CHECK(state.h.rows() == input.rows() && state.c.rows() == input.rows(),
            "LstmState batch mismatch");
  concat_input(input, state.h, concat_scratch);
  matmul_transb_packed(concat_scratch, weight_.value, packed_weight,
                       gates_scratch);
  activate_gates(gates_scratch);
  update_cell(gates_scratch, state.c, state.c, state.h);
}

void Lstm::step_quantized(const Matrix& input, LstmState& state,
                          const QuantizedMatrix& qweight,
                          Matrix& concat_scratch,
                          Matrix& gates_scratch) const {
  NFV_CHECK(state.h.rows() == input.rows() && state.c.rows() == input.rows(),
            "LstmState batch mismatch");
  NFV_CHECK(qweight.rows == 4 * hidden_size_ &&
                qweight.cols == input_size_ + hidden_size_,
            "Lstm::step_quantized weight shape mismatch");
  concat_input(input, state.h, concat_scratch);
  matmul_quant(concat_scratch, qweight, gates_scratch);
  activate_gates(gates_scratch);
  update_cell(gates_scratch, state.c, state.c, state.h);
}

LstmState Lstm::make_state(std::size_t batch) const {
  return LstmState{Matrix(batch, hidden_size_), Matrix(batch, hidden_size_)};
}

}  // namespace nfv::ml
