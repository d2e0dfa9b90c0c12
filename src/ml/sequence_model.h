// The paper's syslog sequence model: embedding → 2 stacked LSTM layers →
// dense softmax over the template vocabulary (§5.1: "Our final LSTM model
// consists of 2 LSTM layers and 1 dense layer").
//
// Given the k previous syslog tuples (template id, inter-arrival time) the
// model predicts a probability distribution for the (k+1)-th template. A low
// log-likelihood of the actually observed template flags an anomaly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "ml/dense.h"
#include "ml/embedding.h"
#include "ml/fused_lstm.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"
#include "util/rng.h"

namespace nfv::ml {

/// One training/scoring window: k template ids with their inter-arrival
/// times (seconds), plus the id of the template that followed.
struct SeqExample {
  std::vector<std::int32_t> ids;  // length k
  std::vector<float> dts;         // length k, seconds since previous log
  std::int32_t target = 0;        // the (k+1)-th template id
};

/// n windows in flat row-major arrays, the form the batched scorers read:
/// window r's history is ids[r·k, (r+1)·k) with inter-arrival seconds
/// dts[r·k, (r+1)·k), and targets[r] is the template that followed it
/// (k = the model window). A batch holds no per-window heap objects.
struct WindowBatch {
  std::span<const std::int32_t> ids;
  std::span<const float> dts;
  std::span<const std::int32_t> targets;
  std::size_t size() const { return targets.size(); }
};

/// Owning storage behind a WindowBatch, reusable across calls.
struct WindowBuffer {
  std::vector<std::int32_t> ids;
  std::vector<float> dts;
  std::vector<std::int32_t> targets;

  void clear();
  /// Append one window; throws CheckError unless it has `window` steps.
  void append(const SeqExample& example, std::size_t window);
  WindowBatch view() const { return {ids, dts, targets}; }
};

/// Model hyper-parameters. The paper reports performance is "fairly
/// insensitive to parameter choices"; defaults here are sized for the
/// simulator's vocabulary.
struct SequenceModelConfig {
  std::size_t vocab = 0;        // template-dictionary size (required)
  std::size_t embed_dim = 16;   // template embedding width
  std::size_t hidden = 32;      // LSTM hidden width
  std::size_t layers = 2;       // stacked LSTM layers
  std::size_t window = 10;      // k = history length
  bool use_dt_feature = true;   // append log1p(Δt) to each embedded input
};

/// Two-layer LSTM next-template language model with manual backprop.
/// Copyable: copying yields an independent model with identical weights,
/// which is exactly the teacher→student step of the transfer-learning
/// adaptation (§4.3).
class SequenceModel {
 public:
  SequenceModel(const SequenceModelConfig& config, nfv::util::Rng& rng);

  const SequenceModelConfig& config() const { return config_; }

  /// All trainable parameters, bottom (embedding) to top (output dense).
  /// The caller may change the weights through them, so this drops the
  /// fused image (pack_fused rebuilds it).
  std::vector<Param*> params();
  /// Read-only view in the same order (e.g. to assert freeze state).
  std::vector<const Param*> params() const;

  /// One optimization step on a batch. Returns mean cross-entropy loss.
  /// Gradients are clipped to `max_grad_norm` before the optimizer step.
  double train_batch(const std::vector<const SeqExample*>& batch,
                     Optimizer& optimizer, double max_grad_norm = 5.0);

  /// Forward-only: probability rows over the vocabulary, one per example.
  void predict(const std::vector<const SeqExample*>& batch,
               Matrix& probs) const;

  /// Log-likelihood of each example's observed target under the model.
  /// Reference path for the batched scorer below: the whole batch in one
  /// stepped (Lstm::step) forward pass, with fresh scratch, in every
  /// kernel mode.
  std::vector<double> score_log_likelihood(
      const std::vector<const SeqExample*>& batch) const;

  /// Rank (0-based) of each example's observed target in the predicted
  /// distribution: 0 = most likely next template. DeepLog-style detection
  /// flags an event whose rank is ≥ k. Stepped reference path.
  std::vector<std::size_t> score_target_ranks(
      const std::vector<const SeqExample*>& batch) const;

  /// Reusable buffers for the batched scoring path. One scratch belongs to
  /// exactly one calling thread; reusing it across calls means the forward
  /// loop performs no heap allocation once shapes have stabilized. Packed
  /// weights in here are refilled by every scoring call, so nothing in
  /// here outlives a weight update.
  struct InferenceScratch {
    WindowBuffer windows;          // SeqExample overloads gather here
    // Stepped path (Lstm::step).
    std::vector<Matrix> inputs;    // k × (B × input_width)
    std::vector<LstmState> states; // one per LSTM layer
    std::vector<std::vector<float>> packed_lstm;  // per layer, pack_transb
    std::vector<float> packed_output;             // output head, pack_transb
    Matrix concat;                 // Lstm::step concat scratch
    Matrix gates;                  // Lstm::step gate scratch
    // Fused path: the image of a model that holds none (pack_fused).
    FusedLstmImage fused;
    Matrix hidden;                 // top layer's final h (B × hidden)
    Matrix logits;
    Matrix probs;                  // rank path only
  };

  /// Batched forward-only scoring: the log-likelihood of each window's
  /// observed target, processed in sub-batches of at most `batch_size`
  /// rows, with the target log-likelihood taken straight from the logits
  /// (log_softmax_target). Where fused_lstm_enabled() holds, hidden is a
  /// multiple of 16 and the model is not int8, the LSTM stack runs the
  /// fused AVX-512F kernel (ml/fused_lstm.h) on the model's packed image
  /// (or on one built into `scratch` when the model holds none); otherwise
  /// it steps Lstm::step, packing each weight once per call. Every row's
  /// arithmetic is independent of its batch neighbours and the fused
  /// kernel replays the stepped one lane for lane, so results are
  /// bit-identical to score_log_likelihood for ANY batch size and any
  /// thread count. `out.size()` must equal `windows.size()`.
  void score_batched(const WindowBatch& windows, std::size_t batch_size,
                     InferenceScratch& scratch, std::span<double> out) const;
  /// As above, for windows held as SeqExamples (gathered into
  /// scratch.windows first).
  void score_batched(std::span<const SeqExample* const> batch,
                     std::size_t batch_size, InferenceScratch& scratch,
                     std::span<double> out) const;

  /// As score_batched, but emits target ranks (DeepLog's top-k rule) from
  /// the softmax probabilities, as score_target_ranks does.
  void score_ranks_batched(const WindowBatch& windows, std::size_t batch_size,
                           InferenceScratch& scratch,
                           std::span<std::size_t> out) const;
  void score_ranks_batched(std::span<const SeqExample* const> batch,
                           std::size_t batch_size, InferenceScratch& scratch,
                           std::span<std::size_t> out) const;

  /// Reusable buffers for the training path — the mirror of
  /// InferenceScratch: once shapes have stabilized,
  /// forward_backward/train_batch perform no steady-state heap allocation
  /// (the LSTM layers hold their own BPTT scratch the same way).
  struct TrainingScratch {
    WindowBuffer windows;                        // the gathered batch
    std::vector<Matrix> inputs;                  // k × (B × input_width)
    std::vector<std::vector<std::int32_t>> ids;  // k × B gathered ids
    std::vector<Matrix> grad_hidden;             // k × (B × hidden)
    Matrix grad_logits;
  };

  /// Freeze the embedding and the bottom `n` LSTM layers; the remaining
  /// layers (and the output head) stay trainable. Passing 0 unfreezes all.
  void freeze_lower_layers(std::size_t n);

  /// Extend the template vocabulary (new embedding rows + output columns
  /// randomly initialized); existing weights are preserved. Needed when a
  /// software update introduces previously unseen templates. Drops any
  /// quantized sidecar (the output head changed shape).
  void grow_vocab(std::size_t new_vocab, nfv::util::Rng& rng);

  /// Post-training int8 sidecar: the per-layer LSTM gate matrices and the
  /// dense output head, quantized per output channel and pre-packed for
  /// matmul_quant. The embedding is a gather (no GEMM) and the biases are
  /// O(width) vectors, so both stay fp32. Calibrated once from the fp32
  /// weights; the fp32 parameters remain the source of truth for
  /// training/serialization.
  struct QuantizedWeights {
    std::vector<QuantizedMatrix> lstm;  // one per layer, (4H × (I+H))
    QuantizedMatrix output;             // (vocab × hidden)
    std::size_t weight_bytes() const;
  };

  /// (Re)calibrate the int8 sidecar from the current fp32 weights. Every
  /// scoring entry point (predict, score_*, score_batched /
  /// score_ranks_batched) then routes its GEMMs through matmul_quant, so
  /// the serial references and the batched path stay mutually
  /// bit-identical within quantized mode. Gate/cell math, softmax and the
  /// embedding gather are unchanged fp32.
  void quantize();
  /// Drop the sidecar and return to fp32 scoring (with the fused image
  /// rebuilt, as pack_fused does).
  void clear_quantized();
  bool quantized() const { return quantized_.has_value(); }
  const QuantizedWeights* quantized_weights() const {
    return quantized_ ? &*quantized_ : nullptr;
  }

  /// (Re)build the fused-kernel image (ml/fused_lstm.h) from the current
  /// weights, so batched scoring packs nothing per call. Kept beside the
  /// int8 sidecar and invalidated with it (train_batch, grow_vocab, and
  /// handing out mutable params()). A no-op that drops the image where the
  /// fused kernel cannot serve this model: no AVX-512F, hidden not a
  /// multiple of 16, or int8 mode.
  void pack_fused();
  bool has_fused_image() const { return fused_.has_value(); }

  /// Resident bytes of all fp32 trainable parameter values.
  std::size_t fp32_weight_bytes() const;
  /// Resident bytes of the int8 sidecar (0 when not quantized).
  std::size_t quantized_weight_bytes() const;

  void save(std::ostream& os) const;
  static SequenceModel load(std::istream& is);

 private:
  /// Mutable parameters without dropping the fused image (for readers).
  std::vector<Param*> all_params() const;

  /// Gather SeqExamples into `buffer` (checking each window's length).
  WindowBatch gather(std::span<const SeqExample* const> batch,
                     WindowBuffer& buffer) const;

  /// Throws CheckError unless `windows` has k ids and k Δts per target
  /// and every id lies inside the vocabulary.
  void check_windows(const WindowBatch& windows) const;

  /// Builds per-timestep input matrices (embedding + Δt) for windows
  /// [start, start + n). Reuses the capacity of `inputs` (and
  /// `ids_steps`) across calls.
  void build_inputs(const WindowBatch& windows, std::size_t start,
                    std::size_t n, std::vector<Matrix>& inputs,
                    std::vector<std::vector<std::int32_t>>* ids_steps) const;

  /// Pack every fp32 GEMM weight of the stepped path into scratch; in
  /// int8 mode the images stay empty (the sidecar is pre-packed).
  void pack_weights(InferenceScratch& scratch) const;

  /// The fused image batched scoring should use, or nullptr for the
  /// stepped path: the model's own, else one built into scratch.fused.
  const FusedLstmImage* fused_image(InferenceScratch& scratch) const;

  /// Forward windows [start, start + n) into scratch.logits: through the
  /// fused kernel when `image` is set, else through the stepped
  /// (cache-free) LSTM stack with the images pack_weights() left.
  void forward_logits(const WindowBatch& windows, std::size_t start,
                      std::size_t n, const FusedLstmImage* image,
                      InferenceScratch& scratch) const;

  double forward_backward(const std::vector<const SeqExample*>& batch);

  SequenceModelConfig config_;
  Embedding embedding_;
  std::vector<Lstm> lstm_layers_;
  Dense output_;

  // int8 scoring sidecar; absent = fp32 scoring. Invalidated whenever the
  // fp32 weights change (train_batch, grow_vocab) — callers re-quantize()
  // after training if they want to keep scoring quantized.
  std::optional<QuantizedWeights> quantized_;

  // Fused-kernel image (pack_fused); absent = built per scoring call or
  // the stepped path. Invalidated with the int8 sidecar.
  std::optional<FusedLstmImage> fused_;

  // Training-only scratch reused across train_batch calls (hoisted out of
  // the per-batch loop; copying a model simply copies the buffers).
  TrainingScratch train_scratch_;
};

/// Normalization applied to Δt before it enters the network; exposed for
/// tests. Maps seconds to a small bounded feature via log1p scaling.
float normalize_dt(float dt_seconds);

}  // namespace nfv::ml
