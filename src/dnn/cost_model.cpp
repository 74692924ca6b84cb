#include "dnn/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dnn/network.hpp"
#include "tensor/layout.hpp"

namespace cf::dnn {

namespace {

/// Job-grid size of a layer's forward pass, the grid the kernels
/// actually dispatch (DESIGN.md §2.6). It is one number per layer and
/// its grain is shared by every pass, so it counts the forward — the
/// one pass inference and training both run: a blocked conv (IC >= 16)
/// partitions over (output-channel-block pair, output-depth) slabs, a
/// plain-source conv and pool over (channel-block, output-depth) slabs,
/// dense over its fixed 16 reduction chunks, everything else over
/// ~4096-item elementwise blocks. The conv backward passes run other
/// grids — the sweep (ocb, od), backward-weights (ocb, icb, kd),
/// backward-data (icb, id) — with the same grain.
std::size_t job_grid_size(const Layer& layer) {
  const tensor::Shape& out = layer.output_shape();
  const std::string kind = layer.kind();
  if ((kind == "conv" || kind == "pool") && out.rank() == 5) {
    const bool paired = kind == "conv" && layer.input_shape().rank() == 5;
    const std::int64_t blocks = paired ? (out[0] + 1) / 2 : out[0];
    return static_cast<std::size_t>(
        std::max<std::int64_t>(1, blocks * out[1]));
  }
  if (kind == "dense") return 16;  // Dense's fixed partial-chunk table
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, out.numel() / 4096));
}

}  // namespace

CostModel::CostModel(const Network& net, CostModelParams params,
                     bool training)
    : params_(params) {
  if (!net.finalized()) {
    throw std::logic_error("CostModel: network not finalized");
  }
  if (params_.flops_per_second <= 0 || params_.bytes_per_second <= 0) {
    throw std::invalid_argument("CostModel: rates must be positive");
  }
  costs_.reserve(net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const Layer& layer = net.layer(i);
    const FlopCounts fc = layer.flops();
    LayerCost cost;
    cost.name = layer.name();
    cost.kind = layer.kind();
    cost.flops = training ? fc.total() : fc.fwd;
    // Activation traffic: read the input, write the output (training
    // re-reads both on the way back). Weight traffic is folded into the
    // flop term — the blocked kernels keep tiles register/L1-resident.
    const std::int64_t elems =
        layer.input_shape().numel() + layer.output_shape().numel();
    cost.bytes = (training ? 3 : 1) * elems *
                 static_cast<std::int64_t>(sizeof(float));
    cost.jobs = job_grid_size(layer);
    cost.serial_seconds =
        static_cast<double>(cost.flops) / params_.flops_per_second +
        static_cast<double>(cost.bytes) / params_.bytes_per_second;
    costs_.push_back(std::move(cost));
  }
}

double CostModel::layer_seconds(const LayerCost& cost,
                                std::size_t threads) const {
  const std::size_t t =
      std::max<std::size_t>(1, std::min(threads, cost.jobs));
  if (t == 1) return cost.serial_seconds;
  const double eff =
      1.0 / (1.0 + params_.efficiency_alpha * static_cast<double>(t - 1));
  return cost.serial_seconds / (static_cast<double>(t) * eff) +
         params_.dispatch_seconds;
}

double CostModel::predicted_seconds(std::size_t threads) const {
  double total = 0.0;
  for (const LayerCost& cost : costs_) {
    total += layer_seconds(cost, threads);
  }
  return total;
}

double CostModel::predicted_efficiency(std::size_t threads) const {
  if (threads <= 1) return 1.0;
  const double serial = predicted_seconds(1);
  const double threaded = predicted_seconds(threads);
  if (serial <= 0.0 || threaded <= 0.0) return 1.0;
  return serial / (static_cast<double>(threads) * threaded);
}

std::vector<std::size_t> CostModel::grains_for(std::size_t threads) const {
  std::vector<std::size_t> grains;
  grains.reserve(costs_.size());
  for (const LayerCost& cost : costs_) {
    if (threads <= 1) {
      // Serial stream: grain only matters for the chunk count, and one
      // thread always runs one chunk; keep the neutral value.
      grains.push_back(1);
      continue;
    }
    const double per_job =
        cost.serial_seconds / static_cast<double>(cost.jobs);
    double g = 1.0;
    if (per_job > 0.0) {
      g = std::ceil(params_.min_chunk_seconds / per_job);
    }
    // Clamp: never ask for chunks larger than the whole grid (that is
    // exactly "run serial", which total/grain < 2 already encodes).
    g = std::clamp(g, 1.0, static_cast<double>(cost.jobs));
    grains.push_back(static_cast<std::size_t>(g));
  }
  return grains;
}

IntraopPlan CostModel::choose(std::size_t core_budget,
                              std::size_t max_streams) const {
  const std::size_t budget = std::max<std::size_t>(1, core_budget);
  const std::size_t stream_cap =
      max_streams == 0 ? budget : std::min(budget, max_streams);

  IntraopPlan best;
  double best_throughput = -1.0;
  for (std::size_t s = 1; s <= stream_cap; ++s) {
    const std::size_t t = std::max<std::size_t>(1, budget / s);
    const double seconds = predicted_seconds(t);
    if (seconds <= 0.0) continue;
    const double throughput = static_cast<double>(s) / seconds;
    // Strictly-better wins; ties prefer more streams (inter-op carries
    // no efficiency tax and keeps per-request latency machinery out of
    // the kernels). The enumeration order makes that the >= branch.
    if (throughput >= best_throughput) {
      best_throughput = throughput;
      best.streams = s;
      best.threads_per_stream = t;
    }
  }
  best.grains = grains_for(best.threads_per_stream);
  best.predicted_efficiency = predicted_efficiency(best.threads_per_stream);
  return best;
}

}  // namespace cf::dnn
