// Fused AVX-512F inference forward for the SequenceModel's LSTM stack.
//
// The stepped scoring path (Lstm::step) runs four passes per layer and
// timestep: concat [x, h], the gate GEMM, bias + activations, and the cell
// update, each over the whole batch through memory. The fused kernel runs
// one pass per layer and timestep over a tile of up to 4 rows × 16 hidden
// units: the tile's i/f/g/o gate rows sit side by side in a k-major packed
// image, so the tile is 16 zmm accumulators, and the epilogue adds the
// bias, applies the gate activations and updates c and h in registers.
// Layer 0's embedding columns are folded into a per-template table
// P = E·W_embᵀ, so its gather replaces the first E steps of every gate
// chain; step 0 skips the h half of the chain (h = c = 0).
//
// Bit identity with the AVX2+FMA stepped path is by construction: every
// lane keeps that path's operation order — the k-ascending fma chain from
// zero (P is built with the same chain, so a gather of P[id] equals the
// chain's first E steps bit for bit), `gates + bias`, the Cephes
// exp/sigmoid/tanh sequence ported lane for lane to 512 bits, then
// fma(f, c_prev, i·g) and o·tanh(c). The stepped path stays the reference
// (SequenceModel::score_log_likelihood) and the fallback wherever this
// kernel cannot run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/lstm.h"
#include "ml/matrix.h"

namespace nfv::ml {

/// Hidden units per fused tile: one zmm of floats. The fused kernel needs
/// hidden % kFusedLanes == 0.
inline constexpr std::size_t kFusedLanes = 16;

/// True when this CPU has AVX-512F, so a fused image can be built.
bool fused_lstm_cpu();

/// True when the fused forward may run: fused_lstm_cpu() and the AVX2+FMA
/// kernel mode (simd_kernels_enabled) is on. The kernel reproduces that
/// mode's bits, so switching it on or off never moves a score.
bool fused_lstm_enabled();

/// Packed inference image of embedding → LSTM stack → dense head. A copy
/// of the weights: valid until any of them changes.
struct FusedLstmImage {
  std::size_t hidden = 0;
  std::size_t layers = 0;
  bool use_dt = false;
  /// vocab × 4H: row v is layer 0's gate chain over template v's
  /// embedding, P = E·W_embᵀ, block-packed like `bias`.
  std::vector<float> table;
  /// Per layer, per 16-unit block, one 64-float row [i f g o] × 16 units
  /// for each gate-GEMM input left after the fold — layer 0: Δt (when
  /// used) then h; upper layers: x then h.
  std::vector<float> weights;
  std::vector<std::size_t> layer_offset;  // start of layer l in `weights`
  /// layers × 4H, per 16-unit block [i f g o] × 16 units.
  std::vector<float> bias;
  /// The dense head's weight in pack_transb layout.
  std::vector<float> output;
};

/// Build `image` from the model's weights. Requires fused_lstm_cpu() and
/// hidden % kFusedLanes == 0.
void pack_fused_lstm(const Matrix& embedding, const std::vector<Lstm>& layers,
                     bool use_dt, const Matrix& output_weight,
                     FusedLstmImage& image);

/// Top-layer hidden state after the last timestep, for `rows` windows:
/// window r reads ids[r·window + t] and Δt seconds dts[r·window + t] and
/// writes hidden[r·H, (r+1)·H). Ids must lie inside the image's vocab.
/// Serial; rows are independent, so callers may split them across threads.
void fused_lstm_forward(const FusedLstmImage& image, const std::int32_t* ids,
                        const float* dts, std::size_t window, std::size_t rows,
                        float* hidden);

}  // namespace nfv::ml
