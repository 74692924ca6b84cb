// Layer abstraction for the CosmoFlow network.
//
// The paper trains with a mini-batch of one sample per rank, so a layer
// maps one activation tensor to one activation tensor. Convolutional
// activations travel in the blocked nCdhw16c layout end-to-end (the
// network inserts explicit reorders only at the plain-input boundary
// and before the dense head), mirroring the MKL-DNN graph the paper
// describes in §V-B.
//
// Layers are split model/stream (DESIGN.md §2.3): the layer object
// holds only immutable-after-finalize state — geometry from plan(),
// weights, fusion flags — while everything a single execution stream
// mutates (timers, forward staging workspace, backward scratch,
// gradient tensors) lives in a LayerExecState that the caller passes
// into every forward/backward. A dnn::ExecContext owns one
// LayerExecState per layer; standalone drivers (unit tests, kernel
// benches) use the convenience overloads below, which route through a
// lazily created layer-owned state instead.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnn/precision.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "tensor/tensor.hpp"

namespace cf::dnn {

/// Floating point operation counts per pass for one sample, used for
/// the §V-A flop-rate accounting and Table I.
struct FlopCounts {
  std::int64_t fwd = 0;
  std::int64_t bwd_data = 0;
  std::int64_t bwd_weights = 0;

  std::int64_t total() const { return fwd + bwd_data + bwd_weights; }

  FlopCounts& operator+=(const FlopCounts& other) {
    fwd += other.fwd;
    bwd_data += other.bwd_data;
    bwd_weights += other.bwd_weights;
    return *this;
  }
};

/// One parameter tensor of the *model*: the value lives in the layer
/// (rebound into the network's param arena at finalize). Gradients are
/// per-stream state and live in a LayerExecState, parallel to this
/// list.
struct ParamSpec {
  std::string name;
  tensor::Tensor* value = nullptr;
};

/// Mutable view of one parameter tensor and its gradient, used by the
/// optimizer (LARC normalizes per parameter tensor) and by gradient
/// aggregation. Pairs a ParamSpec value with the gradient tensor of
/// one particular execution stream.
struct ParamView {
  std::string name;
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
};

/// Per-layer wall-clock accounting (Table I / Fig 3).
struct LayerTimers {
  runtime::TimeStats fwd;
  runtime::TimeStats bwd_data;
  runtime::TimeStats bwd_weights;
};

/// Per-layer profile row (Table I), produced by ExecContext::profiles.
struct LayerProfile {
  std::string name;
  std::string kind;
  runtime::TimeStats fwd;
  runtime::TimeStats bwd_data;
  runtime::TimeStats bwd_weights;
  FlopCounts flops;
};

/// Everything one execution stream mutates while driving one layer.
/// Owned by a dnn::ExecContext (one per layer) or by the layer itself
/// for standalone drives; the layer object never touches it except
/// through the reference passed into forward/backward, so N streams
/// can run the same layer concurrently.
struct LayerExecState {
  LayerTimers timers;

  /// Forward staging memory, size >= forward_workspace_floats()
  /// (the conv padded-source copy). Zeroed once at creation; when
  /// `workspace_shared` is set the region is aliased by other layers
  /// between calls, so the layer must re-establish any zero borders
  /// itself each call.
  std::span<float> workspace;
  bool workspace_shared = false;

  /// Backward scratch, size >= backward_scratch_floats(). Contents are
  /// step-transient — nothing may be carried across backward calls.
  std::span<float> scratch;

  /// Gradient tensors, parallel to param_specs(). Accumulated into by
  /// backward — callers zero them per step.
  std::vector<tensor::Tensor> grads;

  /// Minimum job-grid items per parallel_for chunk for this layer's
  /// kernels (ThreadPool grain semantics). 1 = spread maximally; the
  /// cost model raises it when per-chunk dispatch overhead would eat
  /// the win (ExecContext::apply_intraop_plan). Purely a partitioning
  /// hint: every kernel decomposition is deterministic, so any value
  /// yields bitwise-identical results (DESIGN.md §2.6).
  std::size_t intraop_grain = 1;
};

class Layer {
 public:
  explicit Layer(std::string name)
      : name_(std::move(name)),
        label_fwd_(name_ + "/fwd"),
        label_bwd_(name_ + "/bwd"),
        label_bww_(name_ + "/bww"),
        label_bwd_data_(name_ + "/bwd_data") {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// One of "conv", "pool", "dense", "activation", "reorder" — the
  /// category key for the Fig 3 breakdown.
  virtual std::string kind() const = 0;

  /// Validates `input` and computes the output shape; called once by
  /// Network::finalize. Allocates parameters and records geometry.
  virtual tensor::Shape plan(const tensor::Shape& input) = 0;

  // --- Graph-IR hooks (DESIGN.md §2.8) --------------------------------
  // A node in a dnn::Graph consumes arity() input tensors in a fixed
  // edge order. Single-input layers get the multi-input entry points
  // for free (they route to the plain overloads); multi-input layers
  // (Add) override the *_multi set and leave the single-input ones
  // throwing.

  /// Number of input tensors this layer consumes (graph fan-in).
  virtual std::size_t arity() const { return 1; }

  /// plan() over all input shapes, in edge order.
  virtual tensor::Shape plan_multi(std::span<const tensor::Shape> inputs) {
    if (inputs.size() != 1) {
      throw std::logic_error("Layer::plan_multi: " + name_ +
                             " is single-input");
    }
    return plan(inputs[0]);
  }

  /// forward() over all inputs, in edge order.
  virtual void forward_multi(std::span<const tensor::Tensor* const> srcs,
                             tensor::Tensor& dst, LayerExecState& exec,
                             runtime::ThreadPool& pool) const {
    if (srcs.size() != 1) {
      throw std::logic_error("Layer::forward_multi: " + name_ +
                             " is single-input");
    }
    forward(*srcs[0], dst, exec, pool);
  }

  /// Backward over all input edges. `dsrcs[k]` receives d(loss)/d(input
  /// k) when `need_dsrc[k]`; when `accumulate[k]` is additionally set
  /// the edge's contribution must be *added* to dsrcs[k] (the producer
  /// has other consumers whose contributions are already there) instead
  /// of overwriting it. The execution context handles accumulation for
  /// single-input layers itself, so they are only ever called with
  /// accumulate[0] == false here.
  virtual void backward_multi(std::span<const tensor::Tensor* const> srcs,
                              const tensor::Tensor& dst,
                              tensor::Tensor& ddst,
                              std::span<tensor::Tensor* const> dsrcs,
                              std::span<const std::uint8_t> need_dsrc,
                              std::span<const std::uint8_t> accumulate,
                              LayerExecState& exec,
                              runtime::ThreadPool& pool) const {
    if (srcs.size() != 1 || (need_dsrc[0] != 0 && accumulate[0] != 0)) {
      throw std::logic_error("Layer::backward_multi: " + name_ +
                             " is single-input");
    }
    backward(*srcs[0], dst, ddst, *dsrcs[0], need_dsrc[0] != 0, exec, pool);
  }

  /// Fresh, un-planned copy of this layer: same constructor arguments,
  /// same fusion state, no geometry and no weights — the raw material
  /// Network::make_shape_view re-plans at another input shape. Layers
  /// that cannot be re-planned keep the throwing default.
  virtual std::unique_ptr<Layer> clone_unplanned() const {
    throw std::logic_error("Layer::clone_unplanned: " + name_ +
                           " does not support per-shape cloning");
  }

  const tensor::Shape& input_shape() const noexcept { return input_shape_; }
  const tensor::Shape& output_shape() const noexcept {
    return output_shape_;
  }

  /// dst must have output_shape(). `exec` carries this stream's
  /// mutable state; the method is const on the layer so concurrent
  /// streams may share one layer object.
  virtual void forward(const tensor::Tensor& src, tensor::Tensor& dst,
                       LayerExecState& exec,
                       runtime::ThreadPool& pool) const = 0;

  /// Computes parameter gradients (accumulated into `exec.grads` —
  /// callers zero them per step) and, when `need_dsrc`, the input
  /// difference signal. `src` is the forward input of this layer.
  /// `ddst` is *consumed*: fused layers mask it with the activation
  /// derivative in place (it is dead after this call — the network's
  /// backward sweep never re-reads a layer's ddst, so no copy is owed).
  virtual void backward(const tensor::Tensor& src, tensor::Tensor& ddst,
                        tensor::Tensor& dsrc, bool need_dsrc,
                        LayerExecState& exec,
                        runtime::ThreadPool& pool) const = 0;

  /// Backward variant that also receives this layer's own forward
  /// output `dst`. The execution context calls this one: layers with a
  /// fused eltwise epilogue recover the activation-derivative mask
  /// from `dst`; everything else ignores it and falls through to the
  /// plain overload.
  virtual void backward(const tensor::Tensor& src,
                        const tensor::Tensor& dst, tensor::Tensor& ddst,
                        tensor::Tensor& dsrc, bool need_dsrc,
                        LayerExecState& exec,
                        runtime::ThreadPool& pool) const {
    static_cast<void>(dst);
    backward(src, ddst, dsrc, need_dsrc, exec, pool);
  }

  /// Convenience overloads for driving a layer outside an ExecContext
  /// (unit tests, kernel benches): they route through a lazily created
  /// layer-owned LayerExecState, so grads/timers accumulate on the
  /// layer exactly as they did when the layer owned them directly.
  void forward(const tensor::Tensor& src, tensor::Tensor& dst,
               runtime::ThreadPool& pool) {
    forward(src, dst, standalone_state(), pool);
  }
  void backward(const tensor::Tensor& src, tensor::Tensor& ddst,
                tensor::Tensor& dsrc, bool need_dsrc,
                runtime::ThreadPool& pool) {
    backward(src, ddst, dsrc, need_dsrc, standalone_state(), pool);
  }
  void backward(const tensor::Tensor& src, const tensor::Tensor& dst,
                tensor::Tensor& ddst, tensor::Tensor& dsrc, bool need_dsrc,
                runtime::ThreadPool& pool) {
    backward(src, dst, ddst, dsrc, need_dsrc, standalone_state(), pool);
  }

  // --- Reduced-precision inference (DESIGN.md §2.5) -------------------

  /// Which inference precisions this layer can execute. kBf16 needs an
  /// explicit forward_bf16 override, so the default declines it.
  virtual bool supports_precision(Precision p) const {
    return p == Precision::kFp32;
  }

  /// bf16 forward: `src`/`dst` are raw buffers holding bf16 images of
  /// exactly the tensors the fp32 forward would see (same shapes, same
  /// blocked layouts); `params` is this layer's slice of the network's
  /// bf16 arena (Network::bf16_param_segment) — a plain bf16 image of
  /// the fp32 segment unless the layer repacked it (pack_weights_bf16).
  /// Kernels widen on load, accumulate in fp32 and narrow with
  /// round-to-nearest-even on store. Inference-only; the default
  /// throws.
  virtual void forward_bf16(const bf16_t* src, bf16_t* dst,
                            std::span<const bf16_t> params,
                            LayerExecState& exec,
                            runtime::ThreadPool& pool) const {
    static_cast<void>(src);
    static_cast<void>(dst);
    static_cast<void>(params);
    static_cast<void>(exec);
    static_cast<void>(pool);
    throw std::logic_error("Layer::forward_bf16: " + name_ +
                           " has no bf16 forward path");
  }

  /// Invoked by Network::prepare_inference_precision after the plain
  /// bf16 image of this layer's segment was built, with a mutable view
  /// of that slice. A layer whose bf16 kernel wants a different weight
  /// packing (e.g. the ic-pair-interleaved tiles the vdpbf16ps conv
  /// kernels read) overwrites its weight portion in place — same
  /// element count, layer-private layout, forward_bf16 is the only
  /// reader. Default keeps the plain image.
  virtual void pack_weights_bf16(std::span<bf16_t> segment) const {
    static_cast<void>(segment);
  }

  /// Floats of forward staging workspace this stream must provide
  /// (the conv padded-source copy). The execution context zeroes the
  /// region once at creation; see LayerExecState::workspace.
  virtual std::size_t forward_workspace_floats() const { return 0; }

  /// Floats of backward scratch this layer wants. Layer backwards of
  /// one stream run strictly one at a time, so a planned context sizes
  /// ONE shared arena to the max across layers (the memory planner;
  /// see DESIGN.md §2.2).
  virtual std::size_t backward_scratch_floats() const { return 0; }

  /// Ask the layer to absorb a trailing LeakyReLU (negative slope
  /// `slope`) into its own forward epilogue and backward entry. Layers
  /// that support MKL-DNN-style post-op fusion override this to return
  /// true; the network then drops the standalone activation layer.
  virtual bool fuse_leaky_relu(float slope) {
    static_cast<void>(slope);
    return false;
  }

  /// Ask the layer to absorb the AvgPool3d{2, 2} that consumes its
  /// fused LeakyReLU output (the pool epilogue of DESIGN.md §2.1). The
  /// fusion pass asks only when the pool is that output's sole consumer
  /// and the planned output dims are even; on true it drops the pool
  /// node and the layer plans the pooled shape from then on.
  virtual bool fuse_avg_pool() { return false; }

  /// Parameter tensors of the model (empty for parameterless layers).
  /// Gradients are not part of the model — each ExecContext allocates
  /// its own, parallel to this list.
  virtual std::vector<ParamSpec> param_specs() { return {}; }

  /// Standalone-drive view pairing param_specs() with the layer-owned
  /// state's gradient tensors (lazily created).
  std::vector<ParamView> params() {
    std::vector<ParamSpec> specs = param_specs();
    std::vector<ParamView> views;
    if (specs.empty()) return views;
    LayerExecState& st = standalone_state();
    views.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      views.push_back({specs[i].name, specs[i].value, &st.grads[i]});
    }
    return views;
  }

  virtual FlopCounts flops() const { return {}; }

  std::int64_t param_count() {
    std::int64_t n = 0;
    for (const auto& p : param_specs()) n += p.value->shape().numel();
    return n;
  }

  /// Timers of the standalone (layer-owned) state; per-context timers
  /// live in the context's LayerExecState instead.
  LayerTimers& timers() { return standalone_state().timers; }
  void reset_timers() { standalone_state().timers = LayerTimers{}; }

  /// The layer-owned LayerExecState backing the convenience overloads.
  /// Created (or rebuilt) on first use after plan(): workspace and
  /// grads are zero-initialized, scratch is sized to the layer's
  /// request.
  LayerExecState& standalone_state() {
    const std::size_t ws = forward_workspace_floats();
    const std::size_t sc = backward_scratch_floats();
    std::vector<ParamSpec> specs = param_specs();
    if (standalone_ && standalone_->matches(ws, sc, specs)) {
      return standalone_->state;
    }
    auto st = std::make_unique<StandaloneExec>();
    st->workspace = runtime::AlignedBuffer<float>(ws);
    if (ws != 0) std::memset(st->workspace.data(), 0, ws * sizeof(float));
    st->scratch = runtime::AlignedBuffer<float>(sc);
    st->state.workspace = {st->workspace.data(), ws};
    st->state.scratch = {st->scratch.data(), sc};
    st->state.grads.reserve(specs.size());
    for (const auto& spec : specs) {
      st->state.grads.emplace_back(spec.value->shape());
    }
    standalone_ = std::move(st);
    return standalone_->state;
  }

  // Precomputed CF_TRACE_SCOPE labels ("conv2/fwd", ...) so the span
  // hot path never concatenates strings.
  const std::string& span_label_fwd() const noexcept { return label_fwd_; }
  const std::string& span_label_bwd() const noexcept { return label_bwd_; }
  const std::string& span_label_bww() const noexcept { return label_bww_; }
  const std::string& span_label_bwd_data() const noexcept {
    return label_bwd_data_;
  }

 protected:
  void set_shapes(const tensor::Shape& in, const tensor::Shape& out) {
    input_shape_ = in;
    output_shape_ = out;
  }

 private:
  struct StandaloneExec {
    LayerExecState state;
    runtime::AlignedBuffer<float> workspace;
    runtime::AlignedBuffer<float> scratch;

    // A state built before plan() (or before a re-plan) is stale;
    // detect by comparing the sizes it was built for.
    bool matches(std::size_t ws, std::size_t sc,
                 const std::vector<ParamSpec>& specs) const {
      if (workspace.size() != ws || scratch.size() != sc) return false;
      if (state.grads.size() != specs.size()) return false;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (state.grads[i].shape() != specs[i].value->shape()) return false;
      }
      return true;
    }
  };

  std::string name_;
  std::string label_fwd_;
  std::string label_bwd_;
  std::string label_bww_;
  std::string label_bwd_data_;
  tensor::Shape input_shape_;
  tensor::Shape output_shape_;
  std::unique_ptr<StandaloneExec> standalone_;
};

}  // namespace cf::dnn
