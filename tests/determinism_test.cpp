// Cross-cutting determinism properties.
//
// Synchronous data-parallel training is only correct if every replica
// applies bit-identical updates, which requires every kernel in the
// chain — convolution, pooling, reduction, optimizer — to be
// deterministic regardless of the thread count it runs with. These
// tests pin that invariant at each level of the stack.
#include <gtest/gtest.h>

#include <cstring>

#include "core/dataset_gen.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "dnn/conv3d.hpp"
#include "runtime/rng.hpp"
#include "tensor/layout.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf {
namespace {

using tensor::Shape;
using tensor::Tensor;

class ConvThreadInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ConvThreadInvariance, ForwardAndBackwardBitIdentical) {
  const int threads = GetParam();
  const dnn::Conv3dConfig config{16, 32, 3, 1, dnn::Padding::kSame};

  const auto run = [&](int nthreads) {
    dnn::Conv3d conv("conv", config);
    conv.plan(Shape{1, 6, 6, 6, 16});
    runtime::Rng rng(3);
    conv.init_he(rng);
    runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
    Tensor src(conv.input_shape());
    tensor::fill_normal(src, rng, 0.0f, 1.0f);
    Tensor dst(conv.output_shape());
    conv.forward(src, dst, pool);
    Tensor ddst(conv.output_shape());
    tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
    Tensor dsrc(conv.input_shape());
    conv.backward(src, ddst, dsrc, true, pool);
    std::vector<float> all = dst.to_vector();
    const auto dw = conv.plain_weight_grads().to_vector();
    all.insert(all.end(), dw.begin(), dw.end());
    const auto ds = dsrc.to_vector();
    all.insert(all.end(), ds.begin(), ds.end());
    return all;
  };

  const auto serial = run(1);
  const auto threaded = run(threads);
  ASSERT_EQ(serial.size(), threaded.size());
  EXPECT_EQ(tensor::max_abs_diff(serial, threaded), 0.0f);
}

// The backward sweep (LeakyReLU mask, bias and plain-source weight
// taps) combines per-(ocb, od) slab partials in slab order, so the
// weight and bias gradients at any thread count and grain equal the
// serial ones bitwise — fused or not, with an out_d (11) that none of
// the thread counts divides.
TEST_P(ConvThreadInvariance, BackwardSweepGradsBitIdentical) {
  const int threads = GetParam();
  struct Case {
    std::int64_t ic, oc, kernel;
    bool fused;
  };
  for (const Case& c : {Case{1, 16, 3, false}, Case{1, 32, 3, true},
                        Case{3, 16, 3, true}, Case{16, 32, 3, true}}) {
    const auto run = [&](int nthreads, std::size_t grain) {
      dnn::Conv3d conv("conv",
                       dnn::Conv3dConfig{c.ic, c.oc, c.kernel, 1,
                                         dnn::Padding::kSame});
      if (c.fused) conv.fuse_leaky_relu(0.01f);
      conv.plan(c.ic < 16 ? Shape{c.ic, 11, 11, 11}
                          : Shape{c.ic / 16, 11, 11, 11, 16});
      runtime::Rng rng(5);
      conv.init_he(rng);
      conv.standalone_state().intraop_grain = grain;
      runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
      Tensor src(conv.input_shape());
      tensor::fill_normal(src, rng, 0.0f, 1.0f);
      Tensor dst(conv.output_shape());
      conv.forward(src, dst, pool);
      Tensor ddst(conv.output_shape());
      tensor::fill_normal(ddst, rng, 0.0f, 1.0f);
      Tensor dsrc(conv.input_shape());
      conv.backward(src, dst, ddst, dsrc, /*need_dsrc=*/false, pool);
      std::vector<float> grads = conv.plain_weight_grads().to_vector();
      const auto db = conv.bias_grad().to_vector();
      grads.insert(grads.end(), db.begin(), db.end());
      return grads;
    };
    const auto serial = run(1, 1);
    const auto threaded = run(threads, 3);
    ASSERT_EQ(serial.size(), threaded.size());
    EXPECT_EQ(tensor::max_abs_diff(serial, threaded), 0.0f)
        << "ic " << c.ic << " oc " << c.oc << " fused " << c.fused;
  }
}

// The blocked forward runs on the (ocb pair, od) grid; an odd trailing
// output-channel block (OC = 48) computes a duplicated second tile and
// drops it. Outputs equal the serial ones bitwise at every thread count
// and grain, fused or not, with out_d 11 and out_w 11 = 8 + 1 + 1 + 1.
TEST_P(ConvThreadInvariance, ForwardOddOcbBitIdentical) {
  const int threads = GetParam();
  for (const bool fused : {false, true}) {
    const auto run = [&](int nthreads, std::size_t grain) {
      dnn::Conv3d conv("conv", dnn::Conv3dConfig{16, 48, 3, 1,
                                                 dnn::Padding::kSame});
      if (fused) conv.fuse_leaky_relu(0.01f);
      conv.plan(Shape{1, 11, 11, 11, 16});
      runtime::Rng rng(6);
      conv.init_he(rng);
      conv.standalone_state().intraop_grain = grain;
      runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
      Tensor src(conv.input_shape());
      tensor::fill_normal(src, rng, 0.0f, 1.0f);
      Tensor dst(conv.output_shape());
      conv.forward(src, dst, pool);
      return dst.to_vector();
    };
    const auto serial = run(1, 1);
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3}}) {
      const auto threaded = run(threads, grain);
      ASSERT_EQ(serial.size(), threaded.size());
      EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                            serial.size() * sizeof(float)),
                0)
          << "fused " << fused << " grain " << grain;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvThreadInvariance,
                         ::testing::Values(2, 3, 5, 8));

TEST(NetworkThreadInvariance, FullForwardBitIdentical) {
  const auto run = [&](int nthreads) {
    dnn::Network net = core::build_network(core::cosmoflow_scaled(16), 9);
    dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kTraining);
    runtime::ThreadPool pool(static_cast<std::size_t>(nthreads));
    Tensor input(net.input_shape());
    runtime::Rng rng(10);
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    return ctx.forward(input, pool).to_vector();
  };
  EXPECT_EQ(tensor::max_abs_diff(run(1), run(4)), 0.0f);
}

TEST(TrainerDeterminism, IoThreadCountDoesNotChangeTraining) {
  // Prefetch parallelism must not change *what* is trained on, only
  // when it arrives.
  const auto run = [&](std::size_t io_threads) {
    runtime::ThreadPool pool;
    core::DatasetGenConfig gen;
    gen.simulations = 6;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 20;
    core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
    data::InMemorySource train(std::move(dataset.train));
    data::InMemorySource val(std::move(dataset.val));
    core::TrainerConfig config;
    config.nranks = 2;
    config.epochs = 2;
    config.pipeline.io_threads = io_threads;
    core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
    return trainer.run().back().train_loss;
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(TrainerDeterminism, RankCountChangesTrajectoryButNotValidity) {
  // Different rank counts legitimately produce different trajectories
  // (different global batch); both must stay finite and reproducible.
  const auto run = [&](int ranks) {
    runtime::ThreadPool pool;
    core::DatasetGenConfig gen;
    gen.simulations = 6;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 21;
    core::GeneratedDataset dataset = core::generate_dataset(gen, pool);
    data::InMemorySource train(std::move(dataset.train));
    data::InMemorySource val(std::move(dataset.val));
    core::TrainerConfig config;
    config.nranks = ranks;
    config.epochs = 2;
    core::Trainer trainer(core::cosmoflow_scaled(8), train, val, config);
    return trainer.run().back().train_loss;
  };
  const double two_a = run(2);
  const double two_b = run(2);
  const double four = run(4);
  EXPECT_EQ(two_a, two_b);
  EXPECT_TRUE(std::isfinite(four));
  EXPECT_NE(two_a, four);
}

TEST(DatasetDeterminism, GenerationIsThreadCountInvariant) {
  const auto run = [&](std::size_t threads) {
    runtime::ThreadPool pool(threads);
    core::DatasetGenConfig gen;
    gen.simulations = 3;
    gen.sim.grid = {16, 64.0};
    gen.sim.voxels = 16;
    gen.seed = 22;
    return core::generate_dataset(gen, pool);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    ASSERT_EQ(tensor::max_abs_diff(a.train[i].volume.values(),
                                   b.train[i].volume.values()),
              0.0f)
        << "sample " << i;
  }
}

}  // namespace
}  // namespace cf
