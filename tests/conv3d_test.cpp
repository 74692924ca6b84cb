// Validation of the blocked 3D convolution engine (Algorithm 1)
// against the plain-layout reference kernels and against numerical
// gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "dnn/conv3d.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::dnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct ConvCase {
  std::int64_t ic, oc, dhw, kernel, stride;
  Padding padding;
};

std::string case_name(const ::testing::TestParamInfo<ConvCase>& info) {
  const ConvCase& c = info.param;
  return "ic" + std::to_string(c.ic) + "_oc" + std::to_string(c.oc) + "_s" +
         std::to_string(c.dhw) + "_k" + std::to_string(c.kernel) + "_st" +
         std::to_string(c.stride) +
         (c.padding == Padding::kSame ? "_same" : "_valid");
}

class BlockedConvVsReference : public ::testing::TestWithParam<ConvCase> {
 protected:
  void SetUp() override {
    const ConvCase& c = GetParam();
    config_ = Conv3dConfig{c.ic, c.oc, c.kernel, c.stride, c.padding};
    conv_ = std::make_unique<Conv3d>("conv", config_);

    runtime::Rng rng(42, static_cast<std::uint64_t>(c.ic * 1000 + c.oc));
    plain_src_ = Tensor(Shape{c.ic, c.dhw, c.dhw, c.dhw});
    tensor::fill_normal(plain_src_, rng, 0.0f, 1.0f);
    plain_weights_ =
        Tensor(Shape{c.oc, c.ic, c.kernel, c.kernel, c.kernel});
    tensor::fill_normal(plain_weights_, rng, 0.0f, 0.5f);
    bias_ = Tensor(Shape{c.oc});
    tensor::fill_normal(bias_, rng, 0.0f, 0.1f);

    const Shape in_shape = conv_->input_is_plain()
                               ? plain_src_.shape()
                               : Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16};
    conv_->plan(in_shape);
    conv_->set_plain_weights(plain_weights_, bias_);

    pd_ = resolve_pad(c.padding, c.dhw, c.kernel, c.stride);
    const std::int64_t out =
        tensor::conv_out_dim(c.dhw, c.kernel, c.stride, pd_.total());
    ref_dst_ = Tensor(Shape{c.oc, out, out, out});
    conv3d_forward_reference(plain_src_, plain_weights_, bias_, c.stride,
                             pd_, pd_, pd_, ref_dst_);

    src_ = conv_->input_is_plain() ? plain_src_.clone()
                                   : tensor::to_blocked_activation(plain_src_);
    dst_ = Tensor(conv_->output_shape());
  }

  Tensor blocked_output_as_plain() const {
    return tensor::from_blocked_activation(dst_, config_.out_channels);
  }

  Conv3dConfig config_;
  std::unique_ptr<Conv3d> conv_;
  Tensor plain_src_, plain_weights_, bias_;
  Tensor src_, dst_, ref_dst_;
  PadSpec pd_;
  runtime::ThreadPool pool_{3};
};

TEST_P(BlockedConvVsReference, ForwardMatches) {
  conv_->forward(src_, dst_, pool_);
  const Tensor plain_out = blocked_output_as_plain();
  EXPECT_TRUE(tensor::allclose(plain_out.values(), ref_dst_.values(), 1e-4f,
                               1e-4f))
      << "max diff "
      << tensor::max_abs_diff(plain_out.values(), ref_dst_.values());
}

TEST_P(BlockedConvVsReference, BackwardWeightsMatches) {
  const ConvCase& c = GetParam();
  conv_->forward(src_, dst_, pool_);

  runtime::Rng rng(7);
  Tensor plain_ddst(ref_dst_.shape());
  tensor::fill_normal(plain_ddst, rng, 0.0f, 1.0f);

  Tensor ref_dw(plain_weights_.shape());
  Tensor ref_db(Shape{c.oc});
  conv3d_backward_weights_reference(plain_src_, plain_ddst, c.stride, pd_,
                                    pd_, pd_, ref_dw, ref_db);

  Tensor ddst = tensor::to_blocked_activation(plain_ddst);
  Tensor dsrc(conv_->input_shape());
  conv_->backward(src_, ddst, dsrc, /*need_dsrc=*/false, pool_);

  const Tensor dw = conv_->plain_weight_grads();
  EXPECT_TRUE(tensor::allclose(dw.values(), ref_dw.values(), 1e-3f, 1e-3f))
      << "max dw diff "
      << tensor::max_abs_diff(dw.values(), ref_dw.values());
  EXPECT_TRUE(tensor::allclose(conv_->bias_grad().values(), ref_db.values(),
                               1e-3f, 1e-3f));
}

TEST_P(BlockedConvVsReference, BackwardDataMatches) {
  const ConvCase& c = GetParam();
  conv_->forward(src_, dst_, pool_);

  runtime::Rng rng(8);
  Tensor plain_ddst(ref_dst_.shape());
  tensor::fill_normal(plain_ddst, rng, 0.0f, 1.0f);

  Tensor ref_dsrc(plain_src_.shape());
  conv3d_backward_data_reference(plain_ddst, plain_weights_, c.stride, pd_,
                                 pd_, pd_, ref_dsrc);

  Tensor ddst = tensor::to_blocked_activation(plain_ddst);
  Tensor dsrc(conv_->input_shape());
  conv_->backward(src_, ddst, dsrc, /*need_dsrc=*/true, pool_);

  const Tensor plain_dsrc =
      conv_->input_is_plain()
          ? dsrc.clone()
          : tensor::from_blocked_activation(dsrc, c.ic);
  EXPECT_TRUE(tensor::allclose(plain_dsrc.values(), ref_dsrc.values(), 1e-3f,
                               1e-3f))
      << "max dsrc diff "
      << tensor::max_abs_diff(plain_dsrc.values(), ref_dsrc.values());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockedConvVsReference,
    ::testing::Values(
        // Blocked-source cases (IC multiple of 16).
        ConvCase{16, 16, 6, 3, 1, Padding::kSame},
        ConvCase{16, 16, 6, 3, 1, Padding::kValid},
        ConvCase{16, 32, 8, 3, 2, Padding::kSame},
        ConvCase{32, 16, 5, 3, 1, Padding::kSame},
        ConvCase{16, 16, 8, 4, 1, Padding::kSame},   // even kernel, asym pad
        ConvCase{16, 16, 9, 4, 2, Padding::kValid},
        ConvCase{32, 32, 6, 2, 2, Padding::kValid},
        ConvCase{16, 48, 6, 3, 1, Padding::kSame},
        ConvCase{16, 16, 7, 5, 1, Padding::kSame},   // k > stride coverage
        ConvCase{16, 16, 6, 3, 3, Padding::kValid},  // stride == kernel
        // The paired forward's 8-, 4- and 1-wide position tails at real
        // widths, with an odd trailing output-channel block (OC = 48):
        // out_w 13 = 8 + 4 + 1, 12 = 8 + 4 (even k, asymmetric pad),
        // 6 = 4 + 1 + 1 (stride 2).
        ConvCase{16, 48, 13, 3, 1, Padding::kSame},
        ConvCase{32, 32, 12, 4, 1, Padding::kSame},
        ConvCase{16, 48, 11, 3, 2, Padding::kSame},
        // Plain-source cases (first layer, IC < 16).
        ConvCase{1, 16, 8, 3, 1, Padding::kSame},
        ConvCase{1, 32, 8, 3, 1, Padding::kValid},
        ConvCase{2, 16, 6, 4, 2, Padding::kSame},
        ConvCase{4, 16, 6, 2, 1, Padding::kValid},
        // The one-sweep plain-source backward: odd W tail and many
        // slabs, stride 2, valid padding, more taps than one register
        // group holds (k = 4: 64 taps; IC = 3: 81 taps).
        ConvCase{1, 16, 17, 3, 1, Padding::kSame},
        ConvCase{1, 16, 9, 3, 2, Padding::kSame},
        ConvCase{1, 16, 10, 3, 1, Padding::kValid},
        ConvCase{1, 16, 9, 4, 1, Padding::kSame},
        ConvCase{3, 32, 7, 3, 1, Padding::kSame}),
    case_name);

// The blocked forward's summation order, pinned bit for bit: every
// output element is its bias, then one fused multiply-add per tap in
// icb -> kd -> kh -> kw -> ic order (padding taps included, as zeros),
// then the fused LeakyReLU. A kernel edit that reorders the reduction
// changes training trajectories; this test makes it fail loudly.
TEST(Conv3dOrder, BlockedForwardEqualsInOrderScalarReference) {
  struct Case {
    std::int64_t ic, oc, dhw, kernel, stride;
    bool fused;
  };
  for (const Case& c : {Case{16, 48, 13, 3, 1, true},
                        Case{32, 32, 12, 4, 1, false},
                        Case{16, 48, 11, 3, 2, true}}) {
    Conv3d conv("c", Conv3dConfig{c.ic, c.oc, c.kernel, c.stride,
                                  Padding::kSame});
    const float slope = 0.01f;
    if (c.fused) conv.fuse_leaky_relu(slope);
    conv.plan(Shape{c.ic / 16, c.dhw, c.dhw, c.dhw, 16});
    runtime::Rng rng(17, static_cast<std::uint64_t>(c.oc));
    Tensor w(Shape{c.oc, c.ic, c.kernel, c.kernel, c.kernel});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    Tensor bias(Shape{c.oc});
    tensor::fill_normal(bias, rng, 0.0f, 0.1f);
    conv.set_plain_weights(w, bias);
    Tensor src(Shape{c.ic, c.dhw, c.dhw, c.dhw});
    tensor::fill_normal(src, rng, 0.0f, 1.0f);

    runtime::ThreadPool pool(2);
    Tensor dst(conv.output_shape());
    conv.forward(tensor::to_blocked_activation(src), dst, pool);
    const Tensor out = tensor::from_blocked_activation(dst, c.oc);

    const std::int64_t k = c.kernel;
    const PadSpec pad = resolve_pad(Padding::kSame, c.dhw, k, c.stride);
    const std::int64_t n = out.shape()[1];
    const auto at = [&](std::int64_t ci, std::int64_t z, std::int64_t y,
                        std::int64_t x) {
      z -= pad.lo, y -= pad.lo, x -= pad.lo;
      const bool inside = z >= 0 && z < c.dhw && y >= 0 && y < c.dhw &&
                          x >= 0 && x < c.dhw;
      return inside ? src[static_cast<std::size_t>(
                          ((ci * c.dhw + z) * c.dhw + y) * c.dhw + x)]
                    : 0.0f;
    };
    std::int64_t mismatches = 0;
    for (std::int64_t oc = 0; oc < c.oc; ++oc) {
      for (std::int64_t od = 0; od < n; ++od) {
        for (std::int64_t oh = 0; oh < n; ++oh) {
          for (std::int64_t ow = 0; ow < n; ++ow) {
            float acc = bias[static_cast<std::size_t>(oc)];
            for (std::int64_t icb = 0; icb < c.ic / 16; ++icb) {
              for (std::int64_t kd = 0; kd < k; ++kd) {
                for (std::int64_t kh = 0; kh < k; ++kh) {
                  for (std::int64_t kw = 0; kw < k; ++kw) {
                    for (std::int64_t i = 0; i < 16; ++i) {
                      const std::int64_t ci = icb * 16 + i;
                      const float wv = w[static_cast<std::size_t>(
                          (((oc * c.ic + ci) * k + kd) * k + kh) * k + kw)];
                      const float sv =
                          at(ci, od * c.stride + kd, oh * c.stride + kh,
                             ow * c.stride + kw);
#if defined(__AVX512F__)
                      acc = std::fmaf(wv, sv, acc);  // one vfmadd lane
#else
                      acc += wv * sv;  // the portable tier's expression
#endif
                    }
                  }
                }
              }
            }
            if (c.fused && !(acc > 0.0f)) acc = slope * acc;
            const float got = out[static_cast<std::size_t>(
                ((oc * n + od) * n + oh) * n + ow)];
            if (std::memcmp(&got, &acc, sizeof(float)) != 0) ++mismatches;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "ic " << c.ic << " oc " << c.oc << " k "
                             << k << " stride " << c.stride;
  }
}

TEST(Conv3d, RejectsBadConfigs) {
  EXPECT_THROW(Conv3d("c", Conv3dConfig{16, 20, 3, 1, Padding::kSame}),
               std::invalid_argument);  // OC not multiple of 16
  EXPECT_THROW(Conv3d("c", Conv3dConfig{24, 16, 3, 1, Padding::kSame}),
               std::invalid_argument);  // IC 16 < x not multiple of 16
  EXPECT_THROW(Conv3d("c", Conv3dConfig{16, 16, 0, 1, Padding::kSame}),
               std::invalid_argument);
  EXPECT_THROW(Conv3d("c", Conv3dConfig{0, 16, 3, 1, Padding::kSame}),
               std::invalid_argument);
}

TEST(Conv3d, PlanRejectsMismatchedInput) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  EXPECT_THROW(conv.plan(Shape{16, 6, 6, 6}), std::invalid_argument);
  EXPECT_THROW(conv.plan(Shape{2, 6, 6, 6, 16}), std::invalid_argument);
  Conv3d first("c", Conv3dConfig{1, 16, 3, 1, Padding::kSame});
  EXPECT_THROW(first.plan(Shape{2, 6, 6, 6}), std::invalid_argument);
}

TEST(Conv3d, ForwardValidatesShapes) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 4, 4, 4, 16});
  runtime::ThreadPool pool(1);
  Tensor bad_src(Shape{1, 5, 4, 4, 16});
  Tensor dst(conv.output_shape());
  EXPECT_THROW(conv.forward(bad_src, dst, pool), std::invalid_argument);
}

TEST(Conv3d, FlopCountMatchesFormula) {
  Conv3d conv("c", Conv3dConfig{16, 32, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 8, 8, 8, 16});
  const FlopCounts f = conv.flops();
  // 2 * 8^3 * 32 * 16 * 27
  EXPECT_EQ(f.fwd, 2LL * 512 * 32 * 16 * 27);
  EXPECT_EQ(f.bwd_data, f.fwd);
  EXPECT_EQ(f.bwd_weights, f.fwd);
}

TEST(Conv3d, ParamCountIncludesBias) {
  Conv3d conv("c", Conv3dConfig{16, 32, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 8, 8, 8, 16});
  EXPECT_EQ(conv.param_count(), 32 * 16 * 27 + 32);
}

TEST(Conv3d, GradsAccumulateAcrossBackwardCalls) {
  Conv3d conv("c", Conv3dConfig{16, 16, 3, 1, Padding::kSame});
  conv.plan(Shape{1, 4, 4, 4, 16});
  runtime::Rng rng(3);
  conv.init_he(rng);
  runtime::ThreadPool pool(2);

  Tensor src(conv.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor dst(conv.output_shape());
  Tensor ddst(conv.output_shape());
  tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
  Tensor dsrc(conv.input_shape());

  conv.forward(src, dst, pool);
  conv.backward(src, ddst, dsrc, false, pool);
  const Tensor once = conv.plain_weight_grads();
  conv.backward(src, ddst, dsrc, false, pool);
  const Tensor twice = conv.plain_weight_grads();

  Tensor doubled = once.clone();
  tensor::scale(doubled.values(), 2.0f);
  EXPECT_TRUE(
      tensor::allclose(twice.values(), doubled.values(), 1e-4f, 1e-4f));
}

// Central-difference gradient check through the blocked engine: for a
// loss L = sum(R * conv(src)), dL/dw must match the analytic backward.
TEST(Conv3dGradCheck, WeightsAndBiasAndData) {
  const Conv3dConfig config{16, 16, 3, 2, Padding::kSame};
  Conv3d conv("c", config);
  conv.plan(Shape{1, 5, 5, 5, 16});
  runtime::ThreadPool pool(2);
  runtime::Rng rng(11);

  Tensor weights(Shape{16, 16, 3, 3, 3});
  tensor::fill_normal(weights, rng, 0.0f, 0.3f);
  Tensor bias(Shape{16});
  tensor::fill_normal(bias, rng, 0.0f, 0.1f);
  conv.set_plain_weights(weights, bias);

  Tensor src(conv.input_shape());
  tensor::fill_normal(src, rng, 0.0f, 1.0f);
  Tensor direction(conv.output_shape());
  tensor::fill_normal(direction, rng, 0.0f, 1.0f);

  Tensor dst(conv.output_shape());
  const auto loss = [&] {
    conv.forward(src, dst, pool);
    return tensor::dot(dst.values(), direction.values());
  };

  loss();
  Tensor dsrc(conv.input_shape());
  conv.backward(src, direction, dsrc, true, pool);
  const Tensor analytic_dw = conv.plain_weight_grads();
  const Tensor analytic_db = conv.bias_grad().clone();
  const Tensor analytic_dsrc = dsrc.clone();

  const float eps = 1e-2f;
  runtime::Rng pick(13);
  // Sampled weight coordinates.
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.uniform_index(weights.size());
    Tensor perturbed = weights.clone();
    perturbed[i] += eps;
    conv.set_plain_weights(perturbed, bias);
    const double up = loss();
    perturbed[i] -= 2 * eps;
    conv.set_plain_weights(perturbed, bias);
    const double down = loss();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_dw[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "weight index " << i;
  }
  conv.set_plain_weights(weights, bias);
  // Sampled bias coordinates.
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t i = pick.uniform_index(bias.size());
    Tensor perturbed = bias.clone();
    perturbed[i] += eps;
    conv.set_plain_weights(weights, perturbed);
    const double up = loss();
    perturbed[i] -= 2 * eps;
    conv.set_plain_weights(weights, perturbed);
    const double down = loss();
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_db[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "bias index " << i;
  }
  conv.set_plain_weights(weights, bias);
  // Sampled input coordinates.
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t i = pick.uniform_index(src.size());
    const float original = src[i];
    src[i] = original + eps;
    const double up = loss();
    src[i] = original - eps;
    const double down = loss();
    src[i] = original;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic_dsrc[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)))
        << "src index " << i;
  }
}

}  // namespace
}  // namespace cf::dnn
