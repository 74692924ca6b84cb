// Tests for topologies (including the paper's published aggregate
// statistics), metrics, checkpoints and the SSGD trainer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "cosmo/simulation.hpp"
#include "data/dataset.hpp"
#include "dnn/dense.hpp"
#include "runtime/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace cf::core {
namespace {

TEST(Topology, Canonical128MatchesPaperAggregates) {
  // §III-A / §V-A: 7 conv + 3 FC layers, 3 avg pools, ~7 M parameters
  // (28.15 MB), 69.33 Gflop per sample with batch size 1.
  dnn::Network net = build_network(cosmoflow_128(), /*seed=*/1);

  int convs = 0, pools = 0, denses = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const std::string kind = net.layer(i).kind();
    convs += kind == "conv";
    pools += kind == "pool";
    denses += kind == "dense";
  }
  EXPECT_EQ(convs, 7);
  // build_network fuses each pool into the conv before it.
  EXPECT_EQ(pools + static_cast<int>(net.fused_pools()), 3);
  EXPECT_EQ(denses, 3);

  EXPECT_EQ(net.param_count(), 7054259);  // 28.2 MB vs paper's 28.15 MB
  const double gflop =
      static_cast<double>(net.flops(/*skip_first_bwd_data=*/true).total()) /
      1e9;
  EXPECT_NEAR(gflop, 69.33, 1.5);  // we land at 68.5

  EXPECT_EQ(net.output_shape(), tensor::Shape({3}));
  EXPECT_EQ(net.input_shape(), tensor::Shape({1, 128, 128, 128}));
}

TEST(Topology, ChannelCountsAreMultiplesOf16) {
  for (const ConvSpec& spec : cosmoflow_128().convs) {
    EXPECT_EQ(spec.out_channels % 16, 0);
  }
}

TEST(Topology, BaselineHasTwoOutputs) {
  dnn::Network net = build_network(cosmoflow_64_baseline(), 1);
  EXPECT_EQ(net.output_shape(), tensor::Shape({2}));
  EXPECT_EQ(net.input_shape(), tensor::Shape({1, 64, 64, 64}));
}

TEST(Topology, ScaledVariantsBuildAndRun) {
  runtime::ThreadPool pool(2);
  for (const std::int64_t dhw : {16, 32}) {
    dnn::Network net = build_network(cosmoflow_scaled(dhw), 3);
    dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);
    tensor::Tensor input(net.input_shape());
    runtime::Rng rng(4);
    tensor::fill_normal(input, rng, 0.0f, 1.0f);
    const tensor::Tensor& out = ctx.forward(input, pool);
    EXPECT_EQ(out.shape(), tensor::Shape({3}));
    for (const float v : out.values()) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_THROW(cosmoflow_scaled(20), std::invalid_argument);
}

TEST(Topology, InitializationIsDeterministic) {
  dnn::Network a = build_network(cosmoflow_scaled(16), 9);
  dnn::Network b = build_network(cosmoflow_scaled(16), 9);
  dnn::Network c = build_network(cosmoflow_scaled(16), 10);
  std::vector<float> pa(static_cast<std::size_t>(a.param_count()));
  std::vector<float> pb(pa.size());
  std::vector<float> pc(pa.size());
  a.copy_params_to(pa);
  b.copy_params_to(pb);
  c.copy_params_to(pc);
  EXPECT_EQ(tensor::max_abs_diff(pa, pb), 0.0f);
  EXPECT_GT(tensor::max_abs_diff(pa, pc), 0.0f);
}

TEST(Metrics, RelativeErrorMatchesPaperFormula) {
  std::vector<Prediction> preds(1);
  preds[0].predicted = {0.30, 0.80, 1.00};
  preds[0].truth = {0.33, 0.80, 0.90};
  const auto err = mean_relative_error(preds);
  EXPECT_NEAR(err[0], 0.03 / 0.30, 1e-12);
  EXPECT_NEAR(err[1], 0.0, 1e-12);
  EXPECT_NEAR(err[2], 0.10 / 1.00, 1e-12);
}

TEST(Metrics, RmseAndCorrelation) {
  std::vector<Prediction> preds;
  for (int i = 0; i < 10; ++i) {
    Prediction p;
    const double t = 0.1 * i;
    p.truth = {t, t, t};
    p.predicted = {t + 0.1, t, -t};  // biased, perfect, anti-correlated
    preds.push_back(p);
  }
  const auto r = rmse(preds);
  EXPECT_NEAR(r[0], 0.1, 1e-9);
  EXPECT_NEAR(r[1], 0.0, 1e-9);
  const auto c = correlation(preds);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 1.0, 1e-9);
  EXPECT_NEAR(c[2], -1.0, 1e-9);
}

TEST(Metrics, RejectsEmptyAndZeroEstimates) {
  EXPECT_THROW(mean_relative_error({}), std::invalid_argument);
  std::vector<Prediction> zero(1);
  zero[0].predicted = {0.0, 1.0, 1.0};
  zero[0].truth = {0.1, 1.0, 1.0};
  EXPECT_THROW(mean_relative_error(zero), std::invalid_argument);
}

TEST(Checkpoint, RoundTripRestoresPredictions) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cf_ckpt_test.bin").string();
  dnn::Network net = build_network(cosmoflow_scaled(16), 21);
  dnn::ExecContext ctx = net.make_context(dnn::ExecMode::kInference);
  runtime::ThreadPool pool(1);
  tensor::Tensor input(net.input_shape());
  runtime::Rng rng(22);
  tensor::fill_normal(input, rng, 0.0f, 1.0f);
  const std::vector<float> before = ctx.forward(input, pool).to_vector();

  save_checkpoint(path, "cosmoflow-16", net);

  dnn::Network fresh = build_network(cosmoflow_scaled(16), 999);
  load_checkpoint(path, "cosmoflow-16", fresh);
  dnn::ExecContext fresh_ctx =
      fresh.make_context(dnn::ExecMode::kInference);
  const std::vector<float> after =
      fresh_ctx.forward(input, pool).to_vector();
  EXPECT_EQ(tensor::max_abs_diff(before, after), 0.0f);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsWrongTopologyAndCorruption) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cf_ckpt_test2.bin")
          .string();
  dnn::Network net = build_network(cosmoflow_scaled(16), 21);
  save_checkpoint(path, "cosmoflow-16", net);

  dnn::Network other = build_network(cosmoflow_scaled(16), 1);
  EXPECT_THROW(load_checkpoint(path, "cosmoflow-32", other),
               std::runtime_error);

  // Corrupt one parameter byte.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    const char corrupt = 0x5A;
    f.write(&corrupt, 1);
  }
  EXPECT_THROW(load_checkpoint(path, "cosmoflow-16", other),
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(CheckpointFuzz, EveryBitFlipTruncationAndTailIsRejected) {
  // A tiny hand-built network keeps the file at ~2 KB, so every single
  // bit can be flipped.
  const auto make_net = [](std::uint64_t seed) {
    dnn::Network net;
    auto& fc = net.emplace<dnn::Dense>("fc", 16, 32);
    net.finalize(tensor::Shape{16});
    runtime::Rng rng(seed);
    fc.init_xavier(rng);
    return net;
  };
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  const std::string pristine = (tmp / "cf_ckpt_fuzz.bin").string();
  const std::string mutated = (tmp / "cf_ckpt_fuzz_bad.bin").string();
  dnn::Network saved = make_net(3);
  save_checkpoint(pristine, "tiny", saved);
  std::vector<char> bytes;
  {
    std::ifstream in(pristine, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 2000u);
  ASSERT_LT(bytes.size(), 4096u);

  dnn::Network target = make_net(4);
  std::vector<float> before(static_cast<std::size_t>(target.param_count()));
  target.copy_params_to(before);
  // Loads `contents` into target; true when it threw runtime_error and
  // left every parameter as it was.
  const auto rejected = [&](const std::vector<char>& contents) {
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(contents.data(),
                static_cast<std::streamsize>(contents.size()));
    }
    bool threw = false;
    try {
      load_checkpoint(mutated, "tiny", target);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    std::vector<float> now(before.size());
    target.copy_params_to(now);
    return threw && std::memcmp(now.data(), before.data(),
                                now.size() * sizeof(float)) == 0;
  };

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ASSERT_TRUE(rejected(flipped))
          << "bit " << bit << " of byte " << i << " flipped";
    }
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_TRUE(rejected({bytes.begin(), bytes.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 len)}))
        << "truncated to " << len << " bytes";
  }
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4}}) {
    std::vector<char> padded = bytes;
    padded.resize(bytes.size() + extra, '\0');
    EXPECT_TRUE(rejected(padded)) << extra << " bytes appended";
  }

  // The pristine file still loads, bit for bit.
  load_checkpoint(pristine, "tiny", target);
  std::vector<float> loaded(before.size()), expected(before.size());
  target.copy_params_to(loaded);
  saved.copy_params_to(expected);
  EXPECT_EQ(std::memcmp(loaded.data(), expected.data(),
                        loaded.size() * sizeof(float)),
            0);
  std::filesystem::remove(pristine);
  std::filesystem::remove(mutated);
}

// --- Trainer ---------------------------------------------------------

/// Synthetic learnable dataset: the volume mean encodes the targets.
std::vector<data::Sample> make_learnable_samples(std::size_t count,
                                                 std::int64_t dhw,
                                                 std::uint64_t seed) {
  std::vector<data::Sample> samples;
  samples.reserve(count);
  runtime::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const float level = rng.uniform();
    data::Sample s;
    s.volume = tensor::Tensor(tensor::Shape{1, dhw, dhw, dhw});
    for (float& v : s.volume.values()) {
      v = level + 0.05f * rng.normal();
    }
    s.target = {level, 1.0f - level, 0.5f * level + 0.25f};
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(Trainer, LossDecreasesOnLearnableProblem) {
  data::InMemorySource train(make_learnable_samples(32, 16, 1));
  data::InMemorySource val(make_learnable_samples(8, 16, 2));

  TrainerConfig config;
  config.nranks = 1;
  config.epochs = 5;
  config.base_lr = 5e-3;
  config.min_lr = 1e-4;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  const auto stats = trainer.run();
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
  EXPECT_LT(stats.back().val_loss, stats.front().val_loss);

  // Must beat the mean predictor (target variance is 1/12 for uniform
  // levels; the two derived targets scale that).
  EXPECT_LT(stats.back().val_loss, 0.05);
}

TEST(Trainer, ReplicasStayIdenticalAcrossRanks) {
  data::InMemorySource train(make_learnable_samples(16, 16, 3));
  data::InMemorySource val(make_learnable_samples(4, 16, 4));

  TrainerConfig config;
  config.nranks = 4;
  config.epochs = 2;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  trainer.run();

  std::vector<float> p0(
      static_cast<std::size_t>(trainer.network(0).param_count()));
  trainer.network(0).copy_params_to(p0);
  for (int r = 1; r < 4; ++r) {
    std::vector<float> pr(p0.size());
    trainer.network(r).copy_params_to(pr);
    EXPECT_EQ(tensor::max_abs_diff(p0, pr), 0.0f) << "rank " << r;
  }
}

TEST(Trainer, DeterministicAcrossRuns) {
  const auto run_once = [] {
    data::InMemorySource train(make_learnable_samples(16, 16, 5));
    data::InMemorySource val(make_learnable_samples(4, 16, 6));
    TrainerConfig config;
    config.nranks = 2;
    config.epochs = 2;
    Trainer trainer(cosmoflow_scaled(16), train, val, config);
    const auto stats = trainer.run();
    return stats.back().train_loss;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Trainer, GlobalBatchGrowsWithRanks) {
  // Same data, same epochs: more ranks -> fewer optimizer steps ->
  // slower convergence per epoch (the §VII-A observation that the
  // 8192-node run lags the 2048-node run).
  const auto final_loss = [](int nranks) {
    data::InMemorySource train(make_learnable_samples(64, 16, 7));
    data::InMemorySource val(make_learnable_samples(8, 16, 8));
    TrainerConfig config;
    config.nranks = nranks;
    config.epochs = 4;
    Trainer trainer(cosmoflow_scaled(16), train, val, config);
    return trainer.run().back().train_loss;
  };
  const double small_batch = final_loss(1);
  const double large_batch = final_loss(16);
  EXPECT_LT(small_batch, large_batch);
}

TEST(Trainer, EvaluateReturnsPhysicalUnits) {
  data::InMemorySource train(make_learnable_samples(16, 16, 9));
  data::InMemorySource val(make_learnable_samples(4, 16, 10));
  TrainerConfig config;
  config.nranks = 1;
  config.epochs = 1;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  trainer.run();

  const auto preds = trainer.evaluate(val);
  ASSERT_EQ(preds.size(), 4u);
  const cosmo::ParamRanges ranges;
  for (const Prediction& p : preds) {
    // Truths were encoded from [0,1] targets, so they map inside the
    // physical ranges.
    EXPECT_GE(p.truth[0], ranges.omega_m_lo - 1e-6);
    EXPECT_LE(p.truth[0], ranges.omega_m_hi + 1e-6);
    EXPECT_GE(p.truth[1], ranges.sigma8_lo - 1e-6);
    EXPECT_LE(p.truth[2], ranges.ns_hi + 1e-6);
  }
}

TEST(Trainer, BreakdownCoversMajorCategories) {
  data::InMemorySource train(make_learnable_samples(8, 16, 11));
  data::InMemorySource val(make_learnable_samples(2, 16, 12));
  TrainerConfig config;
  config.nranks = 2;
  config.epochs = 1;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  trainer.run();
  const CategoryBreakdown breakdown = trainer.breakdown();
  EXPECT_GT(breakdown.seconds.at("conv"), 0.0);
  EXPECT_GT(breakdown.seconds.at("dense"), 0.0);
  EXPECT_GT(breakdown.seconds.at("optimizer"), 0.0);
  EXPECT_GT(breakdown.seconds.at("comm"), 0.0);
  EXPECT_GT(breakdown.total, 0.0);
}

TEST(Trainer, SgdAblationRuns) {
  data::InMemorySource train(make_learnable_samples(16, 16, 13));
  data::InMemorySource val(make_learnable_samples(4, 16, 14));
  TrainerConfig config;
  config.nranks = 1;
  config.epochs = 3;
  config.optimizer = OptimizerKind::kSgdMomentum;
  config.base_lr = 1e-3;
  config.min_lr = 1e-4;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  const auto stats = trainer.run();
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss * 2.0);
  for (const auto& s : stats) EXPECT_TRUE(std::isfinite(s.train_loss));
}

TEST(Trainer, RejectsBadConfigurations) {
  data::InMemorySource train(make_learnable_samples(4, 16, 15));
  data::InMemorySource val(make_learnable_samples(2, 16, 16));
  TrainerConfig config;
  config.nranks = 8;  // more ranks than samples
  EXPECT_THROW(Trainer(cosmoflow_scaled(16), train, val, config),
               std::invalid_argument);
  config.nranks = 0;
  EXPECT_THROW(Trainer(cosmoflow_scaled(16), train, val, config),
               std::invalid_argument);
}

TEST(Trainer, RunTwiceThrows) {
  data::InMemorySource train(make_learnable_samples(4, 16, 17));
  data::InMemorySource val(make_learnable_samples(2, 16, 18));
  TrainerConfig config;
  config.epochs = 1;
  Trainer trainer(cosmoflow_scaled(16), train, val, config);
  trainer.run();
  EXPECT_THROW(trainer.run(), std::logic_error);
}

}  // namespace
}  // namespace cf::core
