// LSTM layer with full backpropagation-through-time.
//
// Implements the standard LSTM of Hochreiter & Schmidhuber as used by the
// paper's anomaly detector (two stacked LSTM layers followed by a dense
// softmax over the syslog template vocabulary). Weights for the four gates
// are packed into one matrix so each timestep is a single GEMM.
#pragma once

#include <string>
#include <vector>

#include "ml/matrix.h"
#include "ml/param.h"
#include "util/rng.h"

namespace nfv::ml {

/// Inference-time recurrent state for streaming scoring.
struct LstmState {
  Matrix h;  // (batch × hidden)
  Matrix c;  // (batch × hidden)
};

/// Single LSTM layer. Gate packing order along the 4H axis: input, forget,
/// cell (candidate), output. The forget-gate bias is initialized to +1, the
/// usual trick to preserve memory early in training.
class Lstm {
 public:
  Lstm(std::string name, std::size_t input_size, std::size_t hidden_size,
       nfv::util::Rng& rng);

  /// Full-sequence forward. `inputs[t]` is (batch × input_size); returns one
  /// hidden matrix per step. Initial state is zero. Caches everything needed
  /// for backward().
  const std::vector<Matrix>& forward(const std::vector<Matrix>& inputs);

  /// Full BPTT. `grad_hidden[t]` is dL/dh_t from the upper layer (may be
  /// all-zero for steps without loss). Accumulates weight gradients and
  /// returns dL/dx_t per step.
  const std::vector<Matrix>& backward(const std::vector<Matrix>& grad_hidden);

  /// Stateful single-step inference (no caching, no gradients).
  void step(const Matrix& input, LstmState& state) const;

  /// Pack this layer's gate weight for the step() overload below
  /// (pack_transb layout). The image is a copy: it is valid until the
  /// weights next change, so callers pack once per forward pass.
  void pack_weight(std::vector<float>& packed) const;

  /// As step(), but the gate GEMM reads `packed_weight` (from
  /// pack_weight(), or empty: see matmul_transb_packed) and the caller owns
  /// the scratch matrices, so a scoring loop packs each weight once per
  /// pass and allocates nothing per step (the scratch is resized in place
  /// and its capacity is reused). Bit-identical to the training forward
  /// pass: both run the same GEMM, gate and cell kernels.
  void step(const Matrix& input, LstmState& state,
            const std::vector<float>& packed_weight, Matrix& concat_scratch,
            Matrix& gates_scratch) const;

  /// As the packed step(), but the gate pre-activation GEMM runs on the
  /// packed int8 image of this layer's weight matrix (`qweight` must come
  /// from quantize_pack_b(weight().value)). Bias, gate activations and the
  /// cell update are the untouched fp32 code paths — only the matmul is
  /// quantized, so the result inherits matmul_quant's cross-tier and
  /// cross-batch bit-identity.
  void step_quantized(const Matrix& input, LstmState& state,
                      const QuantizedMatrix& qweight, Matrix& concat_scratch,
                      Matrix& gates_scratch) const;

  /// Zero-initialized state for a given batch size.
  LstmState make_state(std::size_t batch) const;

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  /// concat = [input, h_prev] (B × (I+H)).
  void concat_input(const Matrix& input, const Matrix& h_prev,
                    Matrix& concat) const;
  /// Bias + gate activations over the raw gate GEMM output, in place.
  void activate_gates(Matrix& gates) const;
  /// c = f·c_prev + i·g, hidden = o·tanh(c); `c_prev` may alias `c`. The
  /// one cell kernel behind forward() and step().
  void update_cell(const Matrix& gates, const Matrix& c_prev, Matrix& c,
                   Matrix& hidden) const;

  std::size_t input_size_;
  std::size_t hidden_size_;
  Param weight_;  // (4H × (I+H))
  Param bias_;    // (1 × 4H)

  // Caches from the last forward pass (one entry per timestep).
  std::vector<Matrix> concat_cache_;  // [x_t, h_{t-1}]  (B × (I+H))
  std::vector<Matrix> gates_cache_;   // post-activation (B × 4H)
  std::vector<Matrix> c_cache_;       // cell states     (B × H)
  std::vector<Matrix> h_cache_;       // hidden states   (B × H)
  std::vector<Matrix> grad_inputs_;

  // Backward-pass scratch, reused across calls so BPTT allocates nothing
  // in steady state. dgates_cache_ keeps every step's pre-activation gate
  // gradients alive for the deferred (parallel) weight-gradient phase;
  // dw_partials_/db_partials_ hold the per-timestep parameter-gradient
  // partials that are reduced into weight_/bias_ grads in fixed t-order.
  std::vector<Matrix> dgates_cache_;  // (B × 4H) per step
  std::vector<Matrix> dw_partials_;   // (4H × (I+H)) per step
  std::vector<Matrix> db_partials_;   // (1 × 4H) per step
  Matrix dh_next_;
  Matrix dc_next_;
  Matrix dconcat_;
  std::vector<float> packed_weight_;  // weight_ packed for dgates × W
  std::vector<float> packed_transb_;  // weight_ packed for [x, h] × Wᵀ
};

}  // namespace nfv::ml
