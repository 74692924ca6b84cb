#include "core/topology.hpp"

#include <stdexcept>

#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/flatten.hpp"
#include "dnn/graph_ops.hpp"

namespace cf::core {

TopologyConfig cosmoflow_128() {
  TopologyConfig config;
  config.name = "cosmoflow-128";
  config.input_dhw = 128;
  config.convs = {
      {16, 3, 1, true},    // 128^3 x 16 -> pool -> 64^3
      {32, 4, 1, true},    // 64^3 x 32 -> pool -> 32^3 (dominant layer)
      {64, 3, 1, true},    // 32^3 x 64 -> pool -> 16^3
      {128, 3, 2, false},  // -> 8^3 x 128
      {128, 3, 1, false},
      {128, 3, 2, false},  // -> 4^3 x 128
      {128, 3, 1, false},
  };
  config.dense_hidden = {656, 64};  // 4^3 * 128 = 8192 -> 656 -> 64 -> 3
  config.outputs = 3;
  return config;
}

TopologyConfig cosmoflow_64_baseline() {
  TopologyConfig config;
  config.name = "ravanbakhsh-64";
  config.input_dhw = 64;
  config.convs = {
      {16, 3, 1, true},    // 64^3 -> 32^3
      {32, 4, 1, true},    // -> 16^3
      {64, 3, 1, true},    // -> 8^3
      {128, 3, 2, false},  // -> 4^3
      {128, 3, 1, false},
      {128, 3, 2, false},  // -> 2^3
  };
  config.dense_hidden = {256, 64};  // 2^3 * 128 = 1024 -> 256 -> 64 -> 2
  config.outputs = 2;
  return config;
}

TopologyConfig cosmoflow_scaled(std::int64_t input_dhw) {
  TopologyConfig config;
  config.input_dhw = input_dhw;
  config.outputs = 3;
  switch (input_dhw) {
    case 64:
      config.name = "cosmoflow-64";
      config.convs = {
          {16, 3, 1, true},    // -> 32^3
          {32, 3, 1, true},    // -> 16^3
          {64, 3, 2, false},   // -> 8^3
          {64, 3, 2, false},   // -> 4^3
      };
      config.dense_hidden = {128, 32};  // 4^3 * 64 = 4096
      break;
    case 32:
      config.name = "cosmoflow-32";
      config.convs = {
          {16, 3, 1, true},   // -> 16^3
          {32, 3, 1, true},   // -> 8^3
          {64, 3, 2, false},  // -> 4^3
      };
      config.dense_hidden = {128, 32};  // 4^3 * 64 = 4096
      break;
    case 16:
      config.name = "cosmoflow-16";
      config.convs = {
          {16, 3, 1, true},   // -> 8^3
          {32, 3, 2, false},  // -> 4^3
      };
      config.dense_hidden = {64, 32};  // 4^3 * 32 = 2048
      break;
    case 8:
      config.name = "cosmoflow-8";
      config.convs = {
          {16, 3, 1, true},   // -> 4^3
          {32, 3, 1, false},
      };
      config.dense_hidden = {64, 32};  // 4^3 * 32 = 2048
      break;
    default:
      throw std::invalid_argument(
          "cosmoflow_scaled: supported inputs are 8, 16, 32, 64");
  }
  return config;
}

TopologyConfig topology_for_input(std::int64_t input_dhw) {
  if (input_dhw == 128) return cosmoflow_128();
  for (const std::int64_t dhw : {8, 16, 32, 64}) {
    if (input_dhw == dhw) return cosmoflow_scaled(dhw);
  }
  throw std::invalid_argument(
      "topology_for_input: supported inputs are 8, 16, 32, 64, 128 (got " +
      std::to_string(input_dhw) + ")");
}

TopologyConfig preset_topology(const std::string& name) {
  if (name == "cosmoflow-128") return cosmoflow_128();
  if (name == "ravanbakhsh-64") return cosmoflow_64_baseline();
  for (const std::int64_t dhw : {std::int64_t{8}, std::int64_t{16},
                                 std::int64_t{32}, std::int64_t{64}}) {
    if (name == "cosmoflow-" + std::to_string(dhw)) {
      return cosmoflow_scaled(dhw);
    }
  }
  throw std::invalid_argument(
      "preset_topology: unknown preset '" + name +
      "' (expected cosmoflow-128, cosmoflow-64, cosmoflow-32, "
      "cosmoflow-16, cosmoflow-8 or ravanbakhsh-64)");
}

ResidualTopologyConfig cosmoflow_residual() { return {}; }

tensor::Shape input_shape(const TopologyConfig& config) {
  return tensor::Shape{1, config.input_dhw, config.input_dhw,
                       config.input_dhw};
}

tensor::Shape input_shape(const ResidualTopologyConfig& config) {
  return tensor::Shape{1, config.input_dhw, config.input_dhw,
                       config.input_dhw};
}

dnn::Network build_residual_network(const ResidualTopologyConfig& config,
                                    std::uint64_t seed, bool fuse_eltwise,
                                    bool memplan) {
  if (config.width % 16 != 0 || config.width <= 0) {
    throw std::invalid_argument(
        "build_residual_network: width must be a positive multiple of 16");
  }
  if (config.input_dhw < 4 || config.input_dhw % 4 != 0) {
    throw std::invalid_argument(
        "build_residual_network: input_dhw must be a multiple of 4");
  }
  if (config.head_outputs.empty()) {
    throw std::invalid_argument(
        "build_residual_network: at least one output head");
  }
  using dnn::kGraphInput;
  using dnn::NodeId;
  dnn::Network net;
  net.set_fuse_eltwise(fuse_eltwise);
  net.set_memory_planning(memplan);
  const float slope = config.leaky_slope;
  std::vector<dnn::Conv3d*> convs;
  std::vector<dnn::Dense*> denses;
  auto conv = [&](const std::string& name, std::vector<NodeId> inputs,
                  std::int64_t in_c, std::int64_t out_c) {
    auto layer = std::make_unique<dnn::Conv3d>(
        name, dnn::Conv3dConfig{in_c, out_c, 3, 1, dnn::Padding::kSame});
    convs.push_back(layer.get());
    return net.add_node(std::move(layer), std::move(inputs));
  };
  auto dense = [&](const std::string& name, std::vector<NodeId> inputs,
                   std::int64_t in_f, std::int64_t out_f) {
    auto layer = std::make_unique<dnn::Dense>(name, in_f, out_f);
    denses.push_back(layer.get());
    return net.add_node(std::move(layer), std::move(inputs));
  };

  // Stem: two conv/act/pool stages, 1 -> 16 -> width channels.
  NodeId c1 = conv("conv1", {kGraphInput}, 1, 16);
  NodeId a1 = net.emplace_node<dnn::LeakyRelu>({c1}, "act1", slope);
  NodeId p1 = net.emplace_node<dnn::AvgPool3d>({a1}, "pool1",
                                               dnn::AvgPool3dConfig{2, 2});
  NodeId c2 = conv("conv2", {p1}, 16, config.width);
  NodeId a2 = net.emplace_node<dnn::LeakyRelu>({c2}, "act2", slope);
  NodeId p2 = net.emplace_node<dnn::AvgPool3d>({a2}, "pool2",
                                               dnn::AvgPool3dConfig{2, 2});

  // Residual block: conv -> act -> conv, summed with the block input.
  // The trailing activation consumes the Add node (which declines
  // fusion), so it stays a standalone graph node.
  NodeId r1 = conv("res_conv1", {p2}, config.width, config.width);
  NodeId ra = net.emplace_node<dnn::LeakyRelu>({r1}, "res_act1", slope);
  NodeId r2 = conv("res_conv2", {ra}, config.width, config.width);
  NodeId sum = net.emplace_node<dnn::Add>({p2, r2}, "res_add");
  NodeId res = net.emplace_node<dnn::LeakyRelu>({sum}, "res_act2", slope);

  // Shape-agnostic head: GlobalAvgPool -> dense trunk -> one dense
  // output node per head.
  NodeId gap = net.emplace_node<dnn::GlobalAvgPool>({res}, "gap");
  NodeId fc1 = dense("fc1", {gap}, config.width, config.trunk);
  NodeId fa1 = net.emplace_node<dnn::LeakyRelu>({fc1}, "fc_act1", slope);
  std::vector<NodeId> heads;
  for (std::size_t h = 0; h < config.head_outputs.size(); ++h) {
    heads.push_back(dense("head" + std::to_string(h + 1), {fa1},
                          config.trunk, config.head_outputs[h]));
  }
  net.set_heads(heads);
  net.finalize(input_shape(config));

  // Deterministic initialization, same streaming as build_network.
  std::uint64_t stream = 1;
  for (dnn::Conv3d* c : convs) {
    runtime::Rng rng(seed, stream++);
    c->init_he(rng);
  }
  for (dnn::Dense* d : denses) {
    runtime::Rng rng(seed, stream++);
    d->init_xavier(rng);
  }
  return net;
}

dnn::Network build_network(const TopologyConfig& config, std::uint64_t seed,
                           bool fuse_eltwise, bool memplan) {
  if (config.convs.empty() || config.outputs <= 0) {
    throw std::invalid_argument("build_network: malformed topology");
  }
  dnn::Network net;
  net.set_fuse_eltwise(fuse_eltwise);
  net.set_memory_planning(memplan);
  std::int64_t channels = 1;
  std::int64_t dhw = config.input_dhw;
  int index = 1;
  std::vector<dnn::Conv3d*> convs;
  for (const ConvSpec& spec : config.convs) {
    const std::string id = std::to_string(index++);
    auto& conv = net.emplace<dnn::Conv3d>(
        "conv" + id,
        dnn::Conv3dConfig{channels, spec.out_channels, spec.kernel,
                          spec.stride, dnn::Padding::kSame});
    convs.push_back(&conv);
    net.emplace<dnn::LeakyRelu>("act" + id, config.leaky_slope);
    dhw = (dhw + spec.stride - 1) / spec.stride;  // same padding
    if (spec.pool_after) {
      net.emplace<dnn::AvgPool3d>("pool" + id, dnn::AvgPool3dConfig{2, 2});
      if (dhw % 2 != 0) {
        throw std::invalid_argument(
            "build_network: pooled dimension must be even");
      }
      dhw /= 2;
    }
    channels = spec.out_channels;
  }
  net.emplace<dnn::Flatten>("flatten", channels);

  std::int64_t features = channels * dhw * dhw * dhw;
  int dense_index = 1;
  std::vector<dnn::Dense*> denses;
  for (const std::int64_t width : config.dense_hidden) {
    const std::string id = std::to_string(dense_index++);
    denses.push_back(&net.emplace<dnn::Dense>("fc" + id, features, width));
    net.emplace<dnn::LeakyRelu>("fc_act" + id, config.leaky_slope);
    features = width;
  }
  denses.push_back(&net.emplace<dnn::Dense>(
      "fc" + std::to_string(dense_index), features, config.outputs));

  net.finalize(input_shape(config));

  // Deterministic initialization: one RNG stream per layer.
  std::uint64_t stream = 1;
  for (dnn::Conv3d* conv : convs) {
    runtime::Rng rng(seed, stream++);
    conv->init_he(rng);
  }
  for (dnn::Dense* dense : denses) {
    runtime::Rng rng(seed, stream++);
    dense->init_xavier(rng);
  }
  return net;
}

}  // namespace cf::core
