// Inter-op vs intra-op split chooser (DESIGN.md §2.6).
//
// The paper's KNL configuration partitions each layer across 68 cores;
// this reproduction makes the same tradeoff explicit. A core budget can
// be spent on *streams* (independent ExecContexts — inter-op, scales
// near-linearly because streams share only the read-only weight arena)
// or on *threads per stream* (intra-op — splits each kernel's job grid
// through ThreadPool::parallel_for, paying a dispatch wake per pass and
// a parallel-efficiency tax on the shared memory system). The CostModel
// predicts per-layer pass times from a roofline estimate (flops at a
// measured single-thread rate + bytes at a stream rate), applies an
// efficiency curve eff(t) = 1 / (1 + alpha * (t - 1)), and enumerates
// the (streams, threads_per_stream) grid for a given budget. It also
// emits a per-layer *grain* — the minimum job-grid items per chunk —
// so layers whose whole pass is cheaper than a dispatch wake collapse
// to serial instead of paying for threads they cannot feed.
//
// The model only ever changes how fixed job grids are partitioned,
// never what any job computes, so every choice is bitwise-equivalent
// (deterministic-reduction rule, DESIGN.md §2.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cf::dnn {

class Network;

/// Per-layer cost inputs, derived from the finalized network geometry.
struct LayerCost {
  std::string name;
  std::string kind;          // "conv", "pool", "dense", ...
  std::int64_t flops = 0;    // per forward pass (+ backward if training)
  std::int64_t bytes = 0;    // activation traffic estimate
  std::size_t jobs = 1;      // the forward pass's parallel job-grid size
  double serial_seconds = 0; // predicted single-thread pass time
};

/// Measured single-thread machine rates and threading overheads. The
/// defaults are deliberately conservative; benches may substitute
/// calibrated numbers. Only *ratios* matter for the split decision.
struct CostModelParams {
  double flops_per_second = 8.0e9;   // single-thread fp32 FMA rate
  double bytes_per_second = 1.0e10;  // single-thread sustained stream rate
  double dispatch_seconds = 3.0e-6;  // parallel_for wake+join cost
  double min_chunk_seconds = 2.0e-5; // smallest chunk worth a wake
  double efficiency_alpha = 0.05;    // eff(t) = 1 / (1 + alpha*(t-1))
};

/// What the model chose for a core budget. `grains` is parallel to the
/// network's layer list and feeds LayerExecState::intraop_grain.
struct IntraopPlan {
  std::size_t streams = 1;
  std::size_t threads_per_stream = 1;
  std::vector<std::size_t> grains;
  double predicted_efficiency = 1.0;  // eff at threads_per_stream
};

class CostModel {
 public:
  /// Derives per-layer costs from a finalized network. `training`
  /// includes the backward flops in each layer's cost (the trainer's
  /// view); inference counts the forward only.
  explicit CostModel(const Network& net, CostModelParams params = {},
                     bool training = false);

  const std::vector<LayerCost>& layer_costs() const noexcept {
    return costs_;
  }
  const CostModelParams& params() const noexcept { return params_; }

  /// Predicted wall-clock of one pass through the network on one
  /// stream with `threads` intra-op threads. Non-increasing in
  /// `threads`: extra threads beyond a layer's job grid idle rather
  /// than hurt (the model caps t at the grid size per layer).
  double predicted_seconds(std::size_t threads) const;

  /// Parallel efficiency of the whole-network pass at `threads`
  /// relative to serial: serial_time / (threads * time(threads)).
  double predicted_efficiency(std::size_t threads) const;

  /// Per-layer grains for a stream running `threads` intra-op threads:
  /// the minimum jobs per chunk so no chunk is cheaper than
  /// min_chunk_seconds. Always >= 1; layers with expensive jobs get 1
  /// (spread maximally), layers cheaper than a wake collapse serial.
  std::vector<std::size_t> grains_for(std::size_t threads) const;

  /// Chooses the inter-op/intra-op split for `core_budget` cores,
  /// maximizing predicted throughput streams / time(threads) over all
  /// (s, t) with s * t <= budget and s <= max_streams (0 = unbounded).
  /// Ties prefer more streams (inter-op has no efficiency tax). A
  /// 1-core budget always returns {1, 1}.
  IntraopPlan choose(std::size_t core_budget,
                     std::size_t max_streams = 0) const;

 private:
  double layer_seconds(const LayerCost& cost, std::size_t threads) const;

  CostModelParams params_;
  std::vector<LayerCost> costs_;
};

}  // namespace cf::dnn
