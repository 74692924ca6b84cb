// 3D convolution: the computational heart of CosmoFlow (§III-C).
//
// Two engines are provided:
//  * reference — plain-layout 7-loop direct convolution used as the
//    correctness oracle in tests (free functions below);
//  * blocked — the production kernels implementing Algorithm 1 of the
//    paper: activations in nCdhw16c, weights in OIdhw16i16o, innermost
//    (ow, ic, oc) loops unrolled/vectorized to AVX-512 FMAs, threading
//    over (channel-block pair, output-depth) slabs (blocked forward),
//    (channel-block, output-depth) slabs (plain-source forward and the
//    backward mask/bias/plain-source weight sweep), input-depth slabs
//    (backward-data) and channel-block tiles (blocked backward-weights).
//
// Kernels are cubic and "same"/"valid" padding is resolved per spatial
// dimension at plan time (asymmetric when the total is odd, matching
// TensorFlow). The first layer of the network has a single input
// channel; it uses a dedicated plain-source kernel instead of blowing
// the 128^3 input up to 16 channels.
//
// The layer object is immutable per stream: all per-step staging (the
// zero-padded source copy, the transposed-weight scratch, the weight
// and bias gradients) lives in the LayerExecState the caller passes in,
// so concurrent streams can share one Conv3d.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dnn/layer.hpp"
#include "runtime/rng.hpp"
#include "tensor/layout.hpp"

namespace cf::dnn {

enum class Padding { kSame, kValid };

struct Conv3dConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;  // cubic
  std::int64_t stride = 1;
  Padding padding = Padding::kSame;
};

/// Resolved padding for one spatial dimension.
struct PadSpec {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t total() const { return lo + hi; }
};

class Conv3d final : public Layer {
 public:
  Conv3d(std::string name, Conv3dConfig config);

  std::string kind() const override { return "conv"; }

  /// Input: blocked {ICb, D, H, W, 16} when in_channels is a multiple
  /// of 16, else plain {IC, D, H, W} (first layer). Output: blocked
  /// {OCb, OD, OH, OW, 16}. out_channels must be a multiple of 16.
  tensor::Shape plan(const tensor::Shape& input) override;

  using Layer::backward;
  using Layer::forward;

  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               LayerExecState& exec,
               runtime::ThreadPool& pool) const override;
  void backward(const tensor::Tensor& src, tensor::Tensor& ddst,
                tensor::Tensor& dsrc, bool need_dsrc, LayerExecState& exec,
                runtime::ThreadPool& pool) const override;
  void backward(const tensor::Tensor& src, const tensor::Tensor& dst,
                tensor::Tensor& ddst, tensor::Tensor& dsrc, bool need_dsrc,
                LayerExecState& exec,
                runtime::ThreadPool& pool) const override;

  // bf16 inference forward (dnn/forward_rp.cpp): bf16 weights and
  // activations with fp32 accumulation. A blocked bf16 conv runs the
  // fp32 forward's kernel (forward_blocked) with bf16 loads and stores.
  bool supports_precision(Precision) const override { return true; }
  void forward_bf16(const bf16_t* src, bf16_t* dst,
                    std::span<const bf16_t> params, LayerExecState& exec,
                    runtime::ThreadPool& pool) const override;

  /// Forward stages the source into a zero-padded workspace (written by
  /// forward, re-read by backward-weights of the same stream). A fused
  /// pool appends its LeakyReLU mask (one bit per conv output) to the
  /// region.
  std::size_t forward_workspace_floats() const override;

  /// The stream's scratch span holds the backward sweep's per-slab
  /// partials, then backward-data's transposed weights
  /// ({..., 16oc, 16ic}); a planned context shares it across layers
  /// (DESIGN.md §2.2). A blocked-source layer with a fused pool puts
  /// the re-expanded full-resolution ddst in front of them.
  std::size_t backward_scratch_floats() const override;

  /// MKL-DNN-style post-op fusion: fold a trailing LeakyReLU into the
  /// forward output write and mask ddst once on backward entry. For
  /// slope in [0, 1) the output sign equals the pre-activation sign,
  /// so the fused results are bitwise identical to the unfused pair.
  bool fuse_leaky_relu(float slope) override;
  bool fused() const noexcept { return fused_; }

  /// Pool epilogue (DESIGN.md §2.1): a layer that absorbed its
  /// LeakyReLU also absorbs the AvgPool3d{2, 2} behind it. The output
  /// is then the pooled {OCb, OD/2, OH/2, OW/2, 16}: each forward job
  /// computes the four conv rows of a pooled row into a row buffer and
  /// averages every 2x2x2 window in AvgPool3d's own order, and a
  /// private workspace keeps one `y > 0` bit per conv output in place
  /// of the full-resolution output. The backward sweep re-expands
  /// pooled ddst * 0.125f under that mask, so every result is bitwise
  /// the unfused triple's. Odd conv dims pool like AvgPool3d (the last
  /// row is dropped) in the forward only; backward needs them even.
  bool fuse_avg_pool() override;
  bool pool_fused() const noexcept { return pooled_; }

  std::vector<ParamSpec> param_specs() override;
  FlopCounts flops() const override;

  /// Un-planned copy (same config + fusion state, fresh geometry and
  /// weights) for Network::make_shape_view.
  std::unique_ptr<Layer> clone_unplanned() const override {
    auto copy = std::make_unique<Conv3d>(name(), config_);
    if (fused_) copy->fuse_leaky_relu(slope_);
    if (pooled_) copy->fuse_avg_pool();
    return copy;
  }

  const Conv3dConfig& config() const noexcept { return config_; }

  /// Deterministic He initialization (fan-in = IC * K^3).
  void init_he(runtime::Rng& rng);

  /// Replace weights from / export weights to the plain
  /// {OC, IC, KD, KH, KW} layout (tests, checkpoints).
  void set_plain_weights(const tensor::Tensor& weights,
                         const tensor::Tensor& bias);
  tensor::Tensor plain_weights() const;

  /// Standalone-drive gradient views (the layer-owned LayerExecState
  /// behind the convenience forward/backward overloads). Context-driven
  /// gradients live in the context instead.
  tensor::Tensor plain_weight_grads();
  const tensor::Tensor& bias_grad() { return standalone_state().grads[1]; }

  const tensor::Tensor& bias() const noexcept { return bias_; }

  /// When false (default for the first network layer via Network),
  /// backward skips the input difference signal.
  bool input_is_plain() const noexcept { return plain_input_; }

 private:
  // The trailing `grain` on each pass is the stream's per-layer
  // intra-op grain (LayerExecState::intraop_grain) — forwarded to
  // parallel_for as the minimum jobs per chunk. It only changes how the
  // fixed job grid is partitioned, never the per-job arithmetic, so any
  // value is bitwise-equivalent (DESIGN.md §2.6).
  /// The forwards of both precisions: fp32 weights and output (Wt = Ot
  /// = float) or bf16 (Wt = Ot = bf16_t), over the fp32 padded source.
  /// The blocked (IC >= 16) one runs on the (ocb pair, dst depth) slab
  /// grid, the plain-source one on (ocb, dst depth). With a fused pool
  /// a dst row is pooled from four conv rows, and `mask` (fp32 only,
  /// null to skip) receives their `y > 0` bits.
  template <class Wt, class Ot>
  void forward_blocked(const float* padded, const Wt* weights, Ot* dst,
                       std::uint16_t* mask, runtime::ThreadPool& pool,
                       std::size_t grain) const;
  template <class Wt, class Ot>
  void forward_plain_src(const float* padded, const Wt* weights, Ot* dst,
                         std::uint16_t* mask, runtime::ThreadPool& pool,
                         std::size_t grain) const;
  /// Fused-pool epilogue of one dst row (ocb, pd, ph): averages the four
  /// conv rows at `rows` (row r = conv row (2pd + r / 2, 2ph + r % 2),
  /// out_w_ positions each) into dst and records their mask bits.
  template <class Ot>
  void pool_rows(const Ot* rows, std::int64_t ocb, std::int64_t pd,
                 std::int64_t ph, Ot* dst, std::uint16_t* mask) const;
  /// The one sweep over ddst that opens every backward, on the
  /// (ocb, od) slab grid: masks ddst with the fused LeakyReLU
  /// derivative (`dst` = the forward output, or null when unfused),
  /// sums the bias gradient and, for a plain source, every
  /// weight-gradient tap. With a fused pool it reads pooled ddst and
  /// the forward's mask instead, and writes the full-resolution masked
  /// ddst to `dfull` when a later pass reads it (null: nothing does).
  /// Per-slab partials in `partials` combine in slab order.
  void backward_sweep(const tensor::Tensor* dst, tensor::Tensor& ddst,
                      float* dfull, bool need_dsrc, float* partials,
                      LayerExecState& exec, runtime::ThreadPool& pool) const;
  void backward_weights_blocked(const float* ddst, const float* padded,
                                tensor::Tensor& weight_grad,
                                runtime::ThreadPool& pool,
                                std::size_t grain) const;
  void backward_data_blocked(const float* ddst, tensor::Tensor& dsrc,
                             std::span<float> scratch,
                             runtime::ThreadPool& pool,
                             std::size_t grain) const;
  void backward_data_plain_src(const tensor::Tensor& ddst,
                               tensor::Tensor& dsrc,
                               runtime::ThreadPool& pool) const;

  /// Stages `src` into the stream's padded workspace. When the
  /// workspace is shared between layers the zero border may have been
  /// clobbered since the context was created, so it is re-zeroed here;
  /// a private (per-layer) region keeps its construction-time zeros and
  /// only the interior rows are rewritten.
  void stage_padded_src(const tensor::Tensor& src, LayerExecState& exec,
                        runtime::ThreadPool& pool) const;

  /// Floats of the padded source at the head of the forward workspace.
  std::size_t padded_floats() const;
  /// Elements of the conv output before any fused pool.
  std::int64_t conv_numel() const {
    return config_.out_channels * out_d_ * out_h_ * out_w_;
  }
  /// The fused pool's mask in the workspace tail: one uint16 of
  /// `y > 0` lane bits per (ocb, od, oh, ow) conv output position. Null
  /// without a fused pool or when the workspace is shared (an
  /// inference context: no backward reads it).
  std::uint16_t* pool_mask(const LayerExecState& exec) const;

  Conv3dConfig config_;
  bool plain_input_ = false;

  // Fused LeakyReLU epilogue (see fuse_leaky_relu) and pool epilogue
  // (see fuse_avg_pool).
  bool fused_ = false;
  float slope_ = 0.0f;
  bool pooled_ = false;

  // Spatial geometry (set by plan). out_x_ are the conv's own output
  // dims, before any fused pool; pd_/ph_/pw_ are the padded extents
  // in_x_ + pad_x_.total() of the staging workspace.
  std::int64_t in_d_ = 0, in_h_ = 0, in_w_ = 0;
  std::int64_t out_d_ = 0, out_h_ = 0, out_w_ = 0;
  std::int64_t pd_ = 0, ph_ = 0, pw_ = 0;
  PadSpec pad_d_, pad_h_, pad_w_;

  // Parameters. Weights live permanently in the blocked layout
  // ({OCb, ICb, K, K, K, 16ic, 16oc}, or {OCb, K, K, K, IC, 16oc} for
  // the plain-input case).
  tensor::Tensor weights_;
  tensor::Tensor bias_;
};

// ---------------------------------------------------------------------------
// Reference engine (plain layouts, correctness oracle).

/// dst {OC, OD, OH, OW} = conv(src {IC, D, H, W}, weights
/// {OC, IC, K, K, K}) + bias, with the given stride and per-dim pads.
void conv3d_forward_reference(const tensor::Tensor& src,
                              const tensor::Tensor& weights,
                              const tensor::Tensor& bias, std::int64_t stride,
                              const PadSpec& pd, const PadSpec& ph,
                              const PadSpec& pw, tensor::Tensor& dst);

void conv3d_backward_data_reference(const tensor::Tensor& ddst,
                                    const tensor::Tensor& weights,
                                    std::int64_t stride, const PadSpec& pd,
                                    const PadSpec& ph, const PadSpec& pw,
                                    tensor::Tensor& dsrc);

void conv3d_backward_weights_reference(
    const tensor::Tensor& src, const tensor::Tensor& ddst,
    std::int64_t stride, const PadSpec& pd, const PadSpec& ph,
    const PadSpec& pw, tensor::Tensor& dweights, tensor::Tensor& dbias);

/// Resolves the padding of one spatial dimension.
PadSpec resolve_pad(Padding mode, std::int64_t in, std::int64_t kernel,
                    std::int64_t stride);

}  // namespace cf::dnn
