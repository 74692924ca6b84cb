// Standalone per-layer probes of the traced mode: each times calls into
// one module's public functions, with a span around every call.
#include <algorithm>
#include <complex>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/mlcomm.hpp"
#include "cosmo/deposit.hpp"
#include "cosmo/fft3d.hpp"
#include "cosmo/gaussian_field.hpp"
#include "cosmo/simulation.hpp"
#include "cosmo/zeldovich.hpp"
#include "data/cfrecord.hpp"
#include "data/crc32.hpp"
#include "data/pipeline.hpp"
#include "dnn/cost_model.hpp"
#include "tensor/tensor_ops.hpp"

namespace cfbench {
namespace {

using cf::tensor::Tensor;

// Times `fn` inside a span; returns seconds.
template <typename Fn>
double timed(SpanLog& spans, const std::string& name, std::uint64_t op,
             Fn&& fn) {
  const int id = spans.begin(name, op);
  const Clock::time_point t = Clock::now();
  fn();
  const double s = seconds_between(t, Clock::now());
  spans.end(id);
  return s;
}

double gflops(std::int64_t flops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(flops) / seconds / 1e9 : 0.0;
}

}  // namespace

void run_conv_table(std::size_t threads, std::uint64_t seed, Report& report,
                    SpanLog& spans) {
  // The canonical net, driven layer by layer through Layer::forward /
  // Layer::backward with each layer's own state, at the cost-model
  // grains the trainer would apply for `threads`.
  constexpr int kReps = 3;
  cf::dnn::Network net =
      cf::core::build_network(cf::core::cosmoflow_128(), seed);
  const cf::dnn::CostModel model(net, {}, /*training=*/true);
  const cf::dnn::IntraopPlan plan = model.choose(threads, 1);
  cf::runtime::ThreadPool pool(threads);
  const std::size_t n = net.layer_count();

  std::vector<Tensor> acts;
  acts.emplace_back(net.input_shape());
  cf::runtime::Rng rng(seed, 0x7461626c65ULL);  // "table"
  cf::tensor::fill_normal(acts[0], rng, 0.0f, 1.0f);
  // Backward consumes its upstream gradient, so every call gets a fresh
  // copy of the same noise.
  std::vector<Tensor> ddst;
  std::vector<Tensor> dsrc;
  std::int64_t largest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cf::dnn::Layer& layer = net.layer(i);
    layer.standalone_state().intraop_grain = plan.grains[i];
    acts.emplace_back(layer.output_shape());
    ddst.emplace_back(layer.output_shape());
    dsrc.emplace_back(layer.input_shape());
    largest = std::max(largest, layer.output_shape().numel());
  }
  Tensor noise(cf::tensor::Shape{largest});
  cf::tensor::fill_normal(noise, rng, 0.0f, 1e-3f);

  std::vector<std::vector<double>> fwd(n), bww(n), full(n);
  for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
    const auto op = static_cast<std::uint64_t>(rep);
    for (std::size_t i = 0; i < n; ++i) {
      cf::dnn::Layer& layer = net.layer(i);
      const double s = timed(spans, "dnn." + layer.name() + ".fwd", op, [&] {
        layer.forward(acts[i], acts[i + 1], pool);
      });
      if (rep > 0) fwd[i].push_back(s);
    }
    for (std::size_t k = n; k-- > 0;) {
      cf::dnn::Layer& layer = net.layer(k);
      for (const bool need_dsrc : {false, true}) {
        // Training never asks the input layer for a data gradient.
        if (need_dsrc && k == 0) continue;
        std::memcpy(ddst[k].data(), noise.data(),
                    ddst[k].size() * sizeof(float));
        const double s = timed(
            spans, "dnn." + layer.name() + (need_dsrc ? ".bwd_all" : ".bww"),
            op, [&] {
              layer.backward(acts[k], acts[k + 1], ddst[k], dsrc[k],
                             need_dsrc, pool);
            });
        if (rep > 0) (need_dsrc ? full : bww)[k].push_back(s);
      }
    }
  }

  double pool_fwd = 0.0, pool_bwd = 0.0, dense_fwd = 0.0, dense_bwd = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const cf::dnn::Layer& layer = net.layer(i);
    const double f = median(fwd[i]);
    const double w = median(bww[i]);
    const double a = median(full[i]);
    if (layer.kind() == "conv") {
      const cf::dnn::FlopCounts flops = layer.flops();
      const std::string p = "dnn." + layer.name() + ".";
      // bwd is the backward-data share: the need_dsrc=true pass minus
      // the weights-only pass.
      report.metric(p + "fwd_ms", f * 1e3, "ms");
      report.metric(p + "bww_ms", w * 1e3, "ms");
      report.metric(p + "fwd_gflops", gflops(flops.fwd, f), "GF/s");
      report.metric(p + "bww_gflops", gflops(flops.bwd_weights, w), "GF/s");
      if (i > 0) {
        report.metric(p + "bwd_ms", (a - w) * 1e3, "ms");
        report.metric(p + "bwd_gflops", gflops(flops.bwd_data, a - w),
                      "GF/s");
      }
    } else if (layer.kind() == "pool") {
      pool_fwd += f;
      pool_bwd += a;
    } else if (layer.kind() == "dense") {
      dense_fwd += f;
      dense_bwd += a;
    }
  }
  report.metric("dnn.pool.fwd_ms", pool_fwd * 1e3, "ms");
  report.metric("dnn.pool.bwd_ms", pool_bwd * 1e3, "ms");
  report.metric("dnn.dense.fwd_ms", dense_fwd * 1e3, "ms");
  report.metric("dnn.dense.bwd_ms", dense_bwd * 1e3, "ms");
}

void run_bf16_probe(const TrainSpec& spec, const TrainData& data,
                    std::uint64_t seed, Report& report, SpanLog& spans) {
  // Batch-1 bf16 inference of the workload's net at its stream width.
  const std::size_t threads = spec.stream_threads();
  const int reps = spec.topology.input_dhw >= 128 ? 10 : 200;
  cf::dnn::Network net = cf::core::build_network(spec.topology, seed);
  net.prepare_inference_precision(cf::dnn::Precision::kBf16);
  const cf::dnn::CostModel model(net);
  cf::dnn::ExecContext ctx =
      net.make_context(cf::dnn::ExecMode::kInference,
                       cf::dnn::Precision::kBf16, model.choose(threads, 1));
  cf::runtime::ThreadPool pool(threads);
  const cf::data::Sample sample = data.train->make_reader()->get(0);
  std::vector<double> times;
  for (int rep = 0; rep <= reps; ++rep) {
    const double s = timed(spans, "dnn.infer.bf16",
                           static_cast<std::uint64_t>(rep),
                           [&] { ctx.forward(sample.volume, pool); });
    if (rep > 0) times.push_back(s);
  }
  report.metric("dnn.infer.bf16_ms", median(times) * 1e3, "ms");
}

void run_comm_probe(const TrainSpec& spec, std::uint64_t seed,
                    Report& report, SpanLog& spans) {
  // One synchronous allreduce-average of a full gradient arena per call.
  constexpr int kReps = 10;
  const cf::dnn::Network net = cf::core::build_network(spec.topology, seed);
  const auto elems = static_cast<std::size_t>(net.param_count());
  std::vector<double> times;
  cf::comm::MlComm comm(spec.ranks);
  comm.run([&](cf::comm::RankHandle& rank) {
    std::vector<float> grads(elems, 1.0f + static_cast<float>(rank.rank()));
    for (int rep = 0; rep <= kReps; ++rep) {
      rank.barrier();
      if (rank.rank() == 0) {
        const double s = timed(spans, "comm.allreduce",
                               static_cast<std::uint64_t>(rep),
                               [&] { rank.allreduce_average(grads); });
        if (rep > 0) times.push_back(s);
      } else {
        rank.allreduce_average(grads);
      }
    }
  });
  report.metric("comm.allreduce_ms", median(times) * 1e3, "ms");
}

void run_data_probe(const TrainData& data, const std::string& dir,
                    Report& report, SpanLog& spans) {
  constexpr int kReps = 3;
  // RecordWriter over the serialized training samples.
  std::vector<std::vector<std::uint8_t>> payloads;
  double payload_bytes = 0.0;
  {
    const auto reader = data.train->make_reader();
    const std::size_t count = std::min<std::size_t>(data.train->size(), 16);
    for (std::size_t i = 0; i < count; ++i) {
      payloads.push_back(cf::data::serialize_sample(reader->get(i)));
      payload_bytes += static_cast<double>(payloads.back().size());
    }
  }
  const std::string shard = dir + "/probe.cfrecord";
  std::vector<double> write_s;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double s = timed(spans, "data.write", static_cast<std::uint64_t>(rep),
                           [&] {
                             cf::data::RecordWriter writer(shard);
                             for (const auto& p : payloads) writer.write(p);
                             writer.close();
                           });
    if (rep > 0) write_s.push_back(s);
  }
  report.metric("data.write_MBps", payload_bytes / median(write_s) / 1e6,
                "MB/s");

  // crc32c over the whole shard image, repeated to at least ~64 MiB.
  std::ifstream in(shard, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::filesystem::remove(shard);
  const std::size_t passes =
      std::max<std::size_t>(1, (std::size_t{64} << 20) / bytes.size());
  std::vector<double> crc_s;
  std::uint32_t sink = 0;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double s = timed(spans, "data.crc", static_cast<std::uint64_t>(rep),
                           [&] {
                             for (std::size_t p = 0; p < passes; ++p) {
                               sink ^= cf::data::crc32c(bytes);
                             }
                           });
    if (rep > 0) crc_s.push_back(s);
  }
  report.detail("crc_sink", static_cast<double>(sink));
  report.metric("data.crc_GBps",
                static_cast<double>(bytes.size() * passes) / median(crc_s) / 1e9,
                "GB/s");

  // Drain one epoch through Pipeline::next with no compute behind it.
  std::vector<double> read_s;
  cf::data::PipelineConfig config;
  config.metric_prefix = "cfbench/probe/pipeline";
  cf::data::Pipeline pipeline(*data.train, config);
  cf::data::Sample sample;
  std::vector<std::size_t> order(data.train->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double s = timed(spans, "data.epoch", static_cast<std::uint64_t>(rep),
                           [&] {
                             pipeline.start_epoch(order);
                             while (pipeline.next(sample)) {
                             }
                           });
    if (rep > 0) read_s.push_back(s);
  }
  report.metric("data.read_samples_per_s",
                static_cast<double>(order.size()) / median(read_s), "1/s");
}

void run_cosmo_probe(const TrainSpec& spec, std::uint64_t seed,
                     Report& report, SpanLog& spans) {
  // The pieces of Simulation::run on the workload's box, at the width
  // set-up generates with. A 256^3 box takes seconds, so it runs once.
  const int reps = spec.grid >= 256 ? 1 : 5;
  cf::runtime::ThreadPool pool;
  cf::cosmo::SimulationConfig config;
  config.grid = {spec.grid, spec.box_size};
  config.voxels = spec.voxels;
  const cf::cosmo::CosmoParams params =
      cf::cosmo::sample_parameters(1, seed).front();
  const cf::cosmo::PowerSpectrum ps(params, config.transfer);
  const cf::cosmo::Simulation sim(config);
  const cf::cosmo::Fft3d fft(config.grid.n);
  std::vector<double> delta_s, fft_s, za_s, deposit_s, sim_s;
  for (int rep = 0; rep < reps; ++rep) {
    const auto op = static_cast<std::uint64_t>(rep);
    cf::runtime::Rng rng(seed, op);
    std::vector<std::complex<float>> delta_k;
    const double d = timed(spans, "cosmo.delta_k", op, [&] {
      delta_k = cf::cosmo::generate_delta_k(ps, config.grid, rng, pool);
    });
    std::vector<std::complex<float>> grid = delta_k;
    const double f = timed(spans, "cosmo.fft3d", op, [&] {
      fft.inverse(grid.data(), pool);
      fft.forward(grid.data(), pool);
    });
    cf::cosmo::ParticleSet particles;
    const double z = timed(spans, "cosmo.zeldovich", op, [&] {
      particles = cf::cosmo::zeldovich_displace(delta_k, config.grid, 1.0, pool);
    });
    const double p = timed(spans, "cosmo.deposit", op, [&] {
      cf::cosmo::deposit_particles(particles, config.voxels, config.scheme);
    });
    const double s = timed(spans, "cosmo.sim", op,
                           [&] { sim.run(params, seed + op, pool); });
    delta_s.push_back(d);
    fft_s.push_back(f);
    za_s.push_back(z);
    deposit_s.push_back(p);
    sim_s.push_back(s);
  }
  report.metric("cosmo.sim_ms", median(sim_s) * 1e3, "ms");
  report.metric("cosmo.delta_k_ms", median(delta_s) * 1e3, "ms");
  report.metric("cosmo.fft3d_ms", median(fft_s) * 1e3, "ms");
  report.metric("cosmo.zeldovich_ms", median(za_s) * 1e3, "ms");
  report.metric("cosmo.deposit_ms", median(deposit_s) * 1e3, "ms");
}

void run_dispatch_probe(std::size_t threads, Report& report, SpanLog& spans) {
  // An empty parallel_for across the whole pool: wake, run, join.
  constexpr int kBatches = 9;
  constexpr int kCalls = 2000;
  cf::runtime::ThreadPool pool(threads);
  std::vector<double> per_call;
  for (int b = 0; b <= kBatches; ++b) {
    const double s = timed(spans, "runtime.dispatch",
                           static_cast<std::uint64_t>(b), [&] {
                             for (int c = 0; c < kCalls; ++c) {
                               pool.parallel_for(
                                   threads,
                                   [](std::size_t, std::size_t, std::size_t) {});
                             }
                           });
    if (b > 0) per_call.push_back(s / kCalls);
  }
  report.metric("runtime.dispatch_us", median(per_call) * 1e6, "us");
}

}  // namespace cfbench
