// The load-bearing property of the conv/dense → LeakyReLU epilogue
// fusion: the fused graph must be *bitwise identical* to the unfused
// one. The epilogue applies the same `v > 0 ? v : slope*v` expression
// to the same accumulator values the standalone layer would have read,
// and the backward mask keys off the sign of the fused output — which
// equals the pre-activation sign for slope in [0, 1) — so fwd, bwd and
// whole training trajectories may not differ in a single bit.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/activations.hpp"
#include "dnn/avgpool3d.hpp"
#include "dnn/conv3d.hpp"
#include "dnn/dense.hpp"
#include "dnn/graph_ops.hpp"
#include "dnn/network.hpp"
#include "dnn/precision.hpp"
#include "obs/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr float kSlope = 0.01f;

// --- Layer-level: one fused Conv3d vs conv + standalone LeakyRelu. ---

struct FusedConvCase {
  std::int64_t ic, oc, dhw, kernel, stride;
};

class FusedConvVsUnfused : public ::testing::TestWithParam<FusedConvCase> {};

TEST_P(FusedConvVsUnfused, ForwardAndBackwardBitIdentical) {
  const FusedConvCase& c = GetParam();
  const dnn::Conv3dConfig config{c.ic, c.oc, c.kernel, c.stride,
                                 dnn::Padding::kSame};
  dnn::Conv3d plain("conv", config);
  dnn::Conv3d fused("conv", config);
  ASSERT_TRUE(fused.fuse_leaky_relu(kSlope));
  ASSERT_TRUE(fused.fused());
  // Out-of-range slopes must be rejected (sign equivalence breaks).
  dnn::Conv3d reject("conv", config);
  EXPECT_FALSE(reject.fuse_leaky_relu(1.0f));
  EXPECT_FALSE(reject.fuse_leaky_relu(-0.1f));

  runtime::Rng rng(42, static_cast<std::uint64_t>(c.ic * 100 + c.oc));
  Tensor plain_src(Shape{c.ic, c.dhw, c.dhw, c.dhw});
  tensor::fill_normal(plain_src, rng, 0.0f, 1.0f);
  Tensor weights(Shape{c.oc, c.ic, c.kernel, c.kernel, c.kernel});
  tensor::fill_normal(weights, rng, 0.0f, 0.5f);
  Tensor bias(Shape{c.oc});
  tensor::fill_normal(bias, rng, 0.0f, 0.1f);

  const Shape in_shape = plain.input_is_plain()
                             ? plain_src.shape()
                             : Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16};
  plain.plan(in_shape);
  fused.plan(in_shape);
  plain.set_plain_weights(weights, bias);
  fused.set_plain_weights(weights, bias);

  dnn::LeakyRelu act("act", kSlope);
  act.plan(plain.output_shape());

  runtime::ThreadPool pool(3);
  const Tensor src = plain.input_is_plain()
                         ? plain_src.clone()
                         : tensor::to_blocked_activation(plain_src);

  Tensor conv_out(plain.output_shape());
  Tensor act_out(plain.output_shape());
  Tensor fused_out(fused.output_shape());
  plain.forward(src, conv_out, pool);
  act.forward(conv_out, act_out, pool);
  fused.forward(src, fused_out, pool);
  EXPECT_EQ(tensor::max_abs_diff(fused_out.values(), act_out.values()),
            0.0f);

  // A NaN output takes the slope in both masks (`y > 0` is false).
  for (const std::size_t i : {std::size_t{0}, conv_out.size() / 2}) {
    conv_out[i] = fused_out[i] = std::numeric_limits<float>::quiet_NaN();
  }

  Tensor ddst(plain.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
  const Tensor ddst_in = ddst.clone();

  // Unfused chain: activation backward, then the conv backward.
  Tensor dact(plain.output_shape());
  act.backward(conv_out, ddst, dact, /*need_dsrc=*/true, pool);
  Tensor dsrc_plain(plain.input_shape());
  plain.backward(src, dact, dsrc_plain, /*need_dsrc=*/true, pool);

  // Fused: one call, the mask recovered from the forward output.
  Tensor dsrc_fused(fused.input_shape());
  fused.backward(src, fused_out, ddst, dsrc_fused, /*need_dsrc=*/true,
                 pool);

  EXPECT_EQ(tensor::max_abs_diff(dsrc_fused.values(), dsrc_plain.values()),
            0.0f);
  const Tensor dw_plain = plain.plain_weight_grads();
  const Tensor dw_fused = fused.plain_weight_grads();
  EXPECT_EQ(tensor::max_abs_diff(dw_fused.values(), dw_plain.values()),
            0.0f);
  EXPECT_EQ(tensor::max_abs_diff(fused.bias_grad().values(),
                                 plain.bias_grad().values()),
            0.0f);

  // Without dsrc (every network's first layer) the sweep may keep the
  // masked ddst in registers; every tap group must still see the mask.
  for (Tensor& grad : fused.standalone_state().grads) grad.zero();
  Tensor ddst_again = ddst_in.clone();
  fused.backward(src, fused_out, ddst_again, dsrc_fused,
                 /*need_dsrc=*/false, pool);
  EXPECT_EQ(tensor::max_abs_diff(fused.plain_weight_grads().values(),
                                 dw_plain.values()),
            0.0f);
  EXPECT_EQ(tensor::max_abs_diff(fused.bias_grad().values(),
                                 plain.bias_grad().values()),
            0.0f);

  // A fused layer cannot run the dst-less backward overload.
  Tensor dsrc(fused.input_shape());
  EXPECT_THROW(fused.backward(src, ddst, dsrc, true, pool),
               std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedConvVsUnfused,
    ::testing::Values(FusedConvCase{1, 16, 8, 3, 1},   // plain-input path
                      FusedConvCase{1, 16, 17, 3, 1},  // many slabs, odd W
                      FusedConvCase{3, 16, 8, 3, 1},   // 3 tap groups
                      FusedConvCase{16, 32, 8, 3, 1},  // blocked path
                      FusedConvCase{32, 64, 8, 3, 2},  // strided
                      FusedConvCase{16, 32, 7, 4, 1}), // odd size, even k
    [](const ::testing::TestParamInfo<FusedConvCase>& info) {
      const FusedConvCase& c = info.param;
      return "ic" + std::to_string(c.ic) + "_oc" + std::to_string(c.oc) +
             "_s" + std::to_string(c.dhw) + "_k" +
             std::to_string(c.kernel) + "_st" + std::to_string(c.stride);
    });

TEST(FusedDenseVsUnfused, ForwardAndBackwardBitIdentical) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {512, 128}, {128, 32}, {33, 7}};
  for (const auto& [in, out] : shapes) {
    dnn::Dense plain("fc", in, out);
    dnn::Dense fused("fc", in, out);
    ASSERT_TRUE(fused.fuse_leaky_relu(kSlope));
    plain.plan(Shape{in});
    fused.plan(Shape{in});
    runtime::Rng rng(7, static_cast<std::uint64_t>(in));
    plain.init_xavier(rng);
    fused.weights() = plain.weights().clone();
    fused.bias() = plain.bias().clone();

    runtime::ThreadPool pool(3);
    Tensor src(Shape{in});
    tensor::fill_normal(src, rng, 0.0f, 1.0f);

    dnn::LeakyRelu act("act", kSlope);
    act.plan(Shape{out});
    Tensor fc_out{Shape{out}}, act_out{Shape{out}}, fused_out{Shape{out}};
    plain.forward(src, fc_out, pool);
    act.forward(fc_out, act_out, pool);
    fused.forward(src, fused_out, pool);
    EXPECT_EQ(tensor::max_abs_diff(fused_out.values(), act_out.values()),
              0.0f);

    Tensor ddst(Shape{out});
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
    Tensor dact{Shape{out}}, dsrc_plain{Shape{in}}, dsrc_fused{Shape{in}};
    act.backward(fc_out, ddst, dact, true, pool);
    plain.backward(src, dact, dsrc_plain, true, pool);
    fused.backward(src, fused_out, ddst, dsrc_fused, true, pool);

    EXPECT_EQ(
        tensor::max_abs_diff(dsrc_fused.values(), dsrc_plain.values()),
        0.0f);
    auto plain_params = plain.params();
    auto fused_params = fused.params();
    ASSERT_EQ(plain_params.size(), fused_params.size());
    for (std::size_t p = 0; p < plain_params.size(); ++p) {
      EXPECT_EQ(tensor::max_abs_diff(fused_params[p].grad->values(),
                                     plain_params[p].grad->values()),
                0.0f)
          << "param " << plain_params[p].name;
    }
    EXPECT_THROW(fused.backward(src, ddst, dsrc_fused, true, pool),
                 std::logic_error);
  }
}

// --- Network-level: the fusion pass collapses pairs and preserves
// every bit of the forward/backward results. ---

TEST(FusionPass, CollapsesConvAndDensePairsAndPreservesBits) {
  for (const std::int64_t dhw : {std::int64_t{16}, std::int64_t{32}}) {
    const core::TopologyConfig topo = core::cosmoflow_scaled(dhw);
    dnn::Network fused = core::build_network(topo, /*seed=*/9);
    dnn::Network plain =
        core::build_network(topo, /*seed=*/9, /*fuse_eltwise=*/false);

    // One absorbed LeakyRelu per conv and per hidden dense; the output
    // layer keeps no activation. Every pool sits behind a fused conv
    // over even dims, so each is absorbed too.
    const std::size_t pairs =
        topo.convs.size() + topo.dense_hidden.size();
    std::size_t pools = 0;
    for (const core::ConvSpec& spec : topo.convs) pools += spec.pool_after;
    EXPECT_EQ(fused.fused_pairs(), pairs);
    EXPECT_EQ(fused.fused_pools(), pools);
    EXPECT_EQ(plain.fused_pairs(), 0u);
    EXPECT_EQ(plain.fused_pools(), 0u);
    EXPECT_EQ(fused.layer_count() + pairs + pools, plain.layer_count());
    ASSERT_EQ(fused.param_count(), plain.param_count());

    runtime::ThreadPool pool(4);
    runtime::Rng rng(11, static_cast<std::uint64_t>(dhw));
    Tensor input(core::input_shape(topo));
    tensor::fill_normal(input, rng, 0.0f, 1.0f);

    dnn::ExecContext ctx_fused =
        fused.make_context(dnn::ExecMode::kTraining);
    dnn::ExecContext ctx_plain =
        plain.make_context(dnn::ExecMode::kTraining);
    const Tensor& out_fused = ctx_fused.forward(input, pool);
    const Tensor& out_plain = ctx_plain.forward(input, pool);
    EXPECT_EQ(
        tensor::max_abs_diff(out_fused.values(), out_plain.values()),
        0.0f);

    Tensor dloss(fused.output_shape());
    tensor::fill_normal(dloss, rng, 0.0f, 1.0f);
    ctx_fused.backward(dloss, pool);
    ctx_plain.backward(dloss, pool);
    std::vector<float> grads_fused(
        static_cast<std::size_t>(fused.param_count()));
    std::vector<float> grads_plain(grads_fused.size());
    ctx_fused.copy_grads_to(grads_fused);
    ctx_plain.copy_grads_to(grads_plain);
    EXPECT_EQ(tensor::max_abs_diff(grads_fused, grads_plain), 0.0f);
  }
}

// --- Pool epilogue: one Conv3d absorbing LeakyReLU + AvgPool3d{2, 2}
// vs the three standalone layers. The epilogue narrows and pools the
// same stored conv values in AvgPool3d's own order, and the backward
// re-expands pooled ddst * 0.125f under the forward's `y > 0` mask, so
// every output and gradient must match bit for bit. ---

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A conv's bf16 parameter segment (weights then bias), the image
/// Network::prepare_inference_precision hands forward_bf16.
std::vector<dnn::bf16_t> bf16_segment(dnn::Conv3d& conv) {
  std::vector<dnn::bf16_t> segment;
  for (const dnn::ParamSpec& p : conv.param_specs()) {
    const std::size_t at = segment.size();
    segment.resize(at + p.value->size());
    dnn::bf16_from_f32(p.value->data(), segment.data() + at, p.value->size());
  }
  return segment;
}

struct FusedPoolCase {
  std::int64_t ic, oc, dhw, stride;
};

class FusedPoolVsUnfused : public ::testing::TestWithParam<FusedPoolCase> {};

TEST_P(FusedPoolVsUnfused, ForwardBackwardAndBf16BitIdentical) {
  const FusedPoolCase& c = GetParam();
  const dnn::Conv3dConfig config{c.ic, c.oc, 3, c.stride,
                                 dnn::Padding::kSame};
  const auto make_conv = [&](bool eltwise, bool pool) {
    auto conv = std::make_unique<dnn::Conv3d>("conv", config);
    if (eltwise) {
      EXPECT_TRUE(conv->fuse_leaky_relu(kSlope));
    }
    if (pool) {
      EXPECT_TRUE(conv->fuse_avg_pool());
      EXPECT_FALSE(conv->fuse_avg_pool());  // one pool per conv
    }
    return conv;
  };
  // The pool needs the LeakyReLU's mask: without it the conv declines.
  EXPECT_FALSE(make_conv(false, false)->fuse_avg_pool());

  runtime::Rng rng(17, static_cast<std::uint64_t>(c.ic * 1000 + c.oc));
  Tensor plain_src(Shape{c.ic, c.dhw, c.dhw, c.dhw});
  tensor::fill_normal(plain_src, rng, 0.0f, 1.0f);
  Tensor weights(Shape{c.oc, c.ic, 3, 3, 3});
  tensor::fill_normal(weights, rng, 0.0f, 0.5f);
  Tensor bias(Shape{c.oc});
  tensor::fill_normal(bias, rng, 0.0f, 0.1f);

  // The unfused triple, at 3 threads.
  auto conv = make_conv(false, false);
  const Shape in_shape = conv->input_is_plain()
                             ? plain_src.shape()
                             : Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16};
  conv->plan(in_shape);
  conv->set_plain_weights(weights, bias);
  dnn::LeakyRelu act("act", kSlope);
  dnn::AvgPool3d avg("pool", dnn::AvgPool3dConfig{2, 2});
  act.plan(conv->output_shape());
  avg.plan(conv->output_shape());
  const Tensor src = conv->input_is_plain()
                         ? plain_src.clone()
                         : tensor::to_blocked_activation(plain_src);

  runtime::ThreadPool pool3(3);
  Tensor conv_out(conv->output_shape());
  Tensor act_out(conv->output_shape());
  Tensor pool_out(avg.output_shape());
  conv->forward(src, conv_out, pool3);
  act.forward(conv_out, act_out, pool3);
  avg.forward(act_out, pool_out, pool3);

  Tensor ddst(avg.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
  Tensor ddst_pool = ddst.clone();
  Tensor dpool(conv->output_shape());
  Tensor dact(conv->output_shape());
  Tensor dsrc_ref(conv->input_shape());
  avg.backward(act_out, ddst_pool, dpool, /*need_dsrc=*/true, pool3);
  act.backward(conv_out, dpool, dact, /*need_dsrc=*/true, pool3);
  conv->backward(src, dact, dsrc_ref, /*need_dsrc=*/true, pool3);
  const Tensor dw_ref = conv->plain_weight_grads();
  const Tensor db_ref = conv->bias_grad().clone();

  // The fused layer at 1 (serial), 2, 3 and 5 threads: every thread
  // count reproduces the unfused bits.
  for (const std::size_t threads : {1, 2, 3, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::ThreadPool pool(threads);
    auto fused = make_conv(true, true);
    fused->plan(in_shape);
    fused->set_plain_weights(weights, bias);
    ASSERT_EQ(fused->output_shape(), avg.output_shape());
    Tensor out(fused->output_shape());
    fused->forward(src, out, pool);
    EXPECT_TRUE(bits_equal(out, pool_out));

    Tensor ddst_fused = ddst.clone();
    Tensor dsrc(fused->input_shape());
    fused->backward(src, out, ddst_fused, dsrc, /*need_dsrc=*/true, pool);
    EXPECT_TRUE(bits_equal(dsrc, dsrc_ref));
    EXPECT_TRUE(bits_equal(fused->plain_weight_grads(), dw_ref));
    EXPECT_TRUE(bits_equal(fused->bias_grad(), db_ref));

    // Without dsrc (a network's first layer) a plain source never
    // builds full-resolution ddst; every tap group re-expands it.
    for (Tensor& grad : fused->standalone_state().grads) grad.zero();
    Tensor ddst_again = ddst.clone();
    fused->backward(src, out, ddst_again, dsrc, /*need_dsrc=*/false, pool);
    EXPECT_TRUE(bits_equal(fused->plain_weight_grads(), dw_ref));
    EXPECT_TRUE(bits_equal(fused->bias_grad(), db_ref));
  }

  // bf16: the epilogue pools the narrowed conv rows exactly as
  // AvgPool3d's bf16 forward pools the stored bf16 activation.
  auto eltwise = make_conv(true, false);
  auto fused = make_conv(true, true);
  for (dnn::Conv3d* layer : {eltwise.get(), fused.get()}) {
    layer->plan(in_shape);
    layer->set_plain_weights(weights, bias);
  }
  const std::vector<dnn::bf16_t> segment = bf16_segment(*eltwise);
  std::vector<dnn::bf16_t> src16(src.size());
  dnn::bf16_from_f32(src.data(), src16.data(), src.size());
  std::vector<dnn::bf16_t> conv16(conv_out.size());
  std::vector<dnn::bf16_t> pooled16(pool_out.size());
  std::vector<dnn::bf16_t> fused16(pool_out.size());
  eltwise->forward_bf16(src16.data(), conv16.data(), segment,
                        eltwise->standalone_state(), pool3);
  avg.forward_bf16(conv16.data(), pooled16.data(), {},
                   avg.standalone_state(), pool3);
  fused->forward_bf16(src16.data(), fused16.data(), segment,
                      fused->standalone_state(), pool3);
  EXPECT_EQ(fused16, pooled16);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedPoolVsUnfused,
    ::testing::Values(
        // Plain source (IC = 1 kernel): conv rows of 14 run 8-, 4- and
        // 1-wide position blocks.
        FusedPoolCase{1, 16, 14, 1},
        FusedPoolCase{3, 16, 6, 1},    // plain, generic tier, 3 tap groups
        FusedPoolCase{16, 48, 14, 1},  // blocked, odd OCb (3), 8/4/1 tails
        FusedPoolCase{16, 16, 12, 2},  // blocked, OCb 1, stride 2
        FusedPoolCase{32, 32, 16, 2}), // blocked pair, stride 2
    [](const ::testing::TestParamInfo<FusedPoolCase>& info) {
      const FusedPoolCase& c = info.param;
      return "ic" + std::to_string(c.ic) + "_oc" + std::to_string(c.oc) +
             "_s" + std::to_string(c.dhw) + "_st" + std::to_string(c.stride);
    });

TEST(FusionPass, PoolFusionDeclinesFanOutOddDimsAndOtherPools) {
  using dnn::kGraphInput;
  using dnn::NodeId;
  // conv -> act -> `pool` -> GlobalAvgPool head, optionally with the
  // activation also feeding a second head.
  const auto build = [](std::int64_t dhw, dnn::AvgPool3dConfig pool,
                        bool act, bool act_fans_out) {
    dnn::Network net;
    net.set_fuse_eltwise(true);
    NodeId x = net.add_node(
        std::make_unique<dnn::Conv3d>(
            "conv", dnn::Conv3dConfig{1, 16, 3, 1, dnn::Padding::kSame}),
        {kGraphInput});
    if (act) x = net.emplace_node<dnn::LeakyRelu>({x}, "act", kSlope);
    const NodeId p = net.emplace_node<dnn::AvgPool3d>({x}, "pool", pool);
    std::vector<NodeId> heads{
        net.emplace_node<dnn::GlobalAvgPool>({p}, "gap")};
    if (act_fans_out) {
      heads.push_back(net.emplace_node<dnn::GlobalAvgPool>({x}, "gap2"));
    }
    net.set_heads(heads);
    net.finalize(Shape{1, dhw, dhw, dhw});
    return net;
  };
  const dnn::AvgPool3dConfig pool2{2, 2};

  // The activation's output also feeds a second head, so it must stay
  // materialized: the LeakyReLU fuses, the pool does not.
  dnn::Network fan_out = build(8, pool2, true, true);
  EXPECT_EQ(fan_out.fused_pairs(), 1u);
  EXPECT_EQ(fan_out.fused_pools(), 0u);
  EXPECT_EQ(fan_out.layer_count(), 4u);

  // Odd conv output dims (7^3): the backward cannot re-expand the row
  // the pool drops.
  dnn::Network odd = build(7, pool2, true, false);
  EXPECT_EQ(odd.fused_pairs(), 1u);
  EXPECT_EQ(odd.fused_pools(), 0u);

  // Pools other than kernel 2 / stride 2 are not the epilogue.
  for (const dnn::AvgPool3dConfig other :
       {dnn::AvgPool3dConfig{3, 2}, dnn::AvgPool3dConfig{2, 1}}) {
    dnn::Network net = build(8, other, true, false);
    EXPECT_EQ(net.fused_pairs(), 1u);
    EXPECT_EQ(net.fused_pools(), 0u);
  }

  // Without a LeakyReLU there is no mask: Conv3d::fuse_avg_pool says no.
  dnn::Network bare = build(8, pool2, false, false);
  EXPECT_EQ(bare.fused_pairs(), 0u);
  EXPECT_EQ(bare.fused_pools(), 0u);

  // The accepted case shrinks the graph to conv -> gap.
  dnn::Network accepted = build(8, pool2, true, false);
  EXPECT_EQ(accepted.fused_pairs(), 1u);
  EXPECT_EQ(accepted.fused_pools(), 1u);
  EXPECT_EQ(accepted.layer_count(), 2u);
  EXPECT_EQ(obs::Registry::global().gauge("dnn/fused_pools").value(), 1.0);
}

core::ResidualTopologyConfig small_residual(std::int64_t dhw) {
  core::ResidualTopologyConfig config;
  config.input_dhw = dhw;
  config.width = 32;
  config.trunk = 16;
  config.head_outputs = {2, 1};
  return config;
}

TEST(FusionPass, ResidualPoolFanOutMatchesUnfusedBits) {
  // pool2's output feeds both res_conv1 and the residual Add; once
  // conv2 absorbs pool2, conv2's pooled output fans out instead and its
  // ddst is the fan-in sum of both edges.
  const core::ResidualTopologyConfig config = small_residual(8);
  dnn::Network fused = core::build_residual_network(config, 19);
  dnn::Network plain =
      core::build_residual_network(config, 19, /*fuse_eltwise=*/false);
  EXPECT_EQ(fused.fused_pools(), 2u);
  ASSERT_EQ(fused.param_count(), plain.param_count());

  runtime::ThreadPool pool(3);
  runtime::Rng rng(23, 1);
  Tensor input(core::input_shape(config));
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  dnn::ExecContext ctx_fused = fused.make_context(dnn::ExecMode::kTraining);
  dnn::ExecContext ctx_plain = plain.make_context(dnn::ExecMode::kTraining);
  EXPECT_TRUE(bits_equal(ctx_fused.forward(input, pool),
                         ctx_plain.forward(input, pool)));
  Tensor dloss(fused.output_shape());
  tensor::fill_normal(dloss, rng, 0.0f, 1.0f);
  ctx_fused.backward(dloss, pool);
  ctx_plain.backward(dloss, pool);
  std::vector<float> grads_fused(
      static_cast<std::size_t>(fused.param_count()));
  std::vector<float> grads_plain(grads_fused.size());
  ctx_fused.copy_grads_to(grads_fused);
  ctx_plain.copy_grads_to(grads_plain);
  EXPECT_EQ(std::memcmp(grads_fused.data(), grads_plain.data(),
                        grads_fused.size() * sizeof(float)),
            0);

  dnn::ExecContext inf_fused = fused.make_context(dnn::ExecMode::kInference);
  dnn::ExecContext inf_plain = plain.make_context(dnn::ExecMode::kInference);
  EXPECT_TRUE(bits_equal(inf_fused.forward(input, pool),
                         inf_plain.forward(input, pool)));
}

TEST(FusionPass, ShapeViewsCarryThePoolEpilogue) {
  dnn::Network fused = core::build_residual_network(small_residual(8), 29);
  dnn::Network plain = core::build_residual_network(
      small_residual(8), 29, /*fuse_eltwise=*/false);
  const auto pooled_convs = [](const dnn::Network& net) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      const auto* conv =
          dynamic_cast<const dnn::Conv3d*>(&net.graph().layer(i));
      n += conv != nullptr && conv->pool_fused();
    }
    return n;
  };
  ASSERT_EQ(pooled_convs(fused), 2u);
  for (std::size_t i = 0; i < fused.layer_count(); ++i) {
    const auto* conv =
        dynamic_cast<const dnn::Conv3d*>(&fused.graph().layer(i));
    if (conv == nullptr) continue;
    const std::unique_ptr<dnn::Layer> copy = conv->clone_unplanned();
    const auto* clone = dynamic_cast<const dnn::Conv3d*>(copy.get());
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->fused(), conv->fused());
    EXPECT_EQ(clone->pool_fused(), conv->pool_fused());
  }

  // At 12^3 every pooled conv sees even dims; at 6^3 conv2's are odd
  // (3^3), and the view's forward drops the last row as AvgPool3d does.
  runtime::ThreadPool pool(2);
  for (const std::int64_t dhw : {std::int64_t{12}, std::int64_t{6}}) {
    SCOPED_TRACE("dhw " + std::to_string(dhw));
    const Shape shape{1, dhw, dhw, dhw};
    const std::unique_ptr<dnn::Network> view = fused.make_shape_view(shape);
    const std::unique_ptr<dnn::Network> plain_view =
        plain.make_shape_view(shape);
    EXPECT_EQ(pooled_convs(*view), 2u);
    EXPECT_EQ(view->layer_count(), fused.layer_count());
    runtime::Rng rng(31, static_cast<std::uint64_t>(dhw));
    Tensor input(shape);
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    dnn::ExecContext a = view->make_context(dnn::ExecMode::kInference);
    dnn::ExecContext b = plain_view->make_context(dnn::ExecMode::kInference);
    EXPECT_TRUE(bits_equal(a.forward(input, pool), b.forward(input, pool)));
  }
}

// --- End-to-end: whole training trajectories match. ---

TEST(FusionE2E, LossTrajectoryIdenticalAcrossRankCounts) {
  runtime::ThreadPool gen_pool;
  core::DatasetGenConfig gen;
  gen.simulations = 6;
  gen.sim.grid = {16, 64.0};
  gen.sim.voxels = 16;
  gen.seed = 53;
  core::GeneratedDataset dataset = core::generate_dataset(gen, gen_pool);
  const data::InMemorySource train(std::move(dataset.train));
  const data::InMemorySource val(std::move(dataset.val));

  for (const int nranks : {1, 4}) {
    const auto run = [&](bool fuse) {
      core::TrainerConfig config;
      config.nranks = nranks;
      config.epochs = 2;
      config.fuse_eltwise = fuse;
      core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
      return trainer.run();
    };
    const auto fused = run(true);
    const auto plain = run(false);
    ASSERT_EQ(fused.size(), plain.size());
    for (std::size_t e = 0; e < fused.size(); ++e) {
      EXPECT_EQ(fused[e].train_loss, plain[e].train_loss)
          << "nranks " << nranks << " epoch " << e;
      EXPECT_EQ(fused[e].val_loss, plain[e].val_loss)
          << "nranks " << nranks << " epoch " << e;
    }
  }
}

}  // namespace
}  // namespace cf
