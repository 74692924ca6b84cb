// Training workloads: data set-up through cosmo + data, untraced
// core::Trainer runs for the end-to-end numbers, and the traced replay
// of one training step from the library's public pieces.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/mlcomm.hpp"
#include "core/dataset_gen.hpp"
#include "core/trainer.hpp"
#include "data/augment.hpp"
#include "data/pipeline.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/loss.hpp"
#include "optim/larc_adam.hpp"

namespace cfbench {
namespace {

using cf::tensor::Tensor;

// How far the replayed step may sit from the untraced trainer step.
constexpr double kReconcileTolerance = 0.15;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> sample_hashes(
    const std::vector<cf::data::Sample>& samples) {
  std::vector<std::uint64_t> out;
  for (const auto& s : samples) out.push_back(fnv1a(serialize_sample(s)));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> source_hashes(
    const cf::data::SampleSource& source) {
  std::vector<std::uint64_t> out;
  const auto reader = source.make_reader();
  for (std::size_t i = 0; i < source.size(); ++i) {
    out.push_back(fnv1a(serialize_sample(reader->get(i))));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Reads `"key":<number>` from one flat JSONL record; NaN when absent
// or unparsable ("nan"/"inf" parse to themselves).
double json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nan("");
  const char* begin = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  return end == begin ? std::nan("") : value;
}

// What one core::Trainer run produced, read from its step log.
struct TrainerRun {
  std::vector<std::vector<double>> step_s;  // per rank, first step dropped
  std::vector<float> rank0_losses;          // every step, in order
  std::int64_t steps = 0;                   // global steps
  std::int64_t failed_steps = 0;            // any rank's loss non-finite
  double val_loss = 0.0;
};

TrainerRun run_trainer(const TrainSpec& spec, std::uint64_t seed,
                       const TrainData& data, const std::string& log_path,
                       bool check_outputs, Report& report) {
  cf::core::TrainerConfig config;
  config.nranks = spec.ranks;
  config.epochs = spec.epochs;
  config.seed = seed;
  config.threads_per_rank = spec.threads_per_rank;
  config.step_log_path = log_path;
  cf::core::Trainer trainer(spec.topology, *data.train, *data.val, config);
  const std::vector<cf::core::EpochStats> stats = trainer.run();

  TrainerRun run;
  run.val_loss = stats.back().val_loss;
  run.step_s.resize(static_cast<std::size_t>(spec.ranks));
  // Step records per rank arrive in step order; record k of every rank
  // is global step k.
  std::vector<std::vector<double>> losses(run.step_s.size());
  std::ifstream log(log_path);
  std::string line;
  while (std::getline(log, line)) {
    if (line.find("\"phase\":\"step\"") == std::string::npos) continue;
    const int rank = static_cast<int>(json_field(line, "rank"));
    if (rank < 0 || rank >= spec.ranks) {
      throw std::runtime_error("step log: bad rank in " + line);
    }
    auto& steps = losses[static_cast<std::size_t>(rank)];
    // A step's wall time includes the wait for its sample, which the
    // trainer charges to sec_io_wait right before the step starts.
    const double seconds =
        json_field(line, "sec_step") + json_field(line, "sec_io_wait");
    if (!steps.empty()) run.step_s[static_cast<std::size_t>(rank)].push_back(seconds);
    steps.push_back(json_field(line, "loss"));
  }
  std::filesystem::remove(log_path);
  run.steps = static_cast<std::int64_t>(losses[0].size());
  for (std::int64_t k = 0; k < run.steps; ++k) {
    bool finite = true;
    for (const auto& rank_losses : losses) {
      finite = finite && static_cast<std::size_t>(k) < rank_losses.size() &&
               std::isfinite(rank_losses[static_cast<std::size_t>(k)]);
    }
    if (!finite) ++run.failed_steps;
  }
  for (const double loss : losses[0]) {
    run.rank0_losses.push_back(static_cast<float>(loss));
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(data.train->size()) / spec.ranks *
      spec.epochs;
  report.gate("train_steps_logged", run.steps == expected,
              "step log holds " + std::to_string(run.steps) +
                  " steps, expected " + std::to_string(expected));
  report.gate("train_losses_finite", run.failed_steps == 0,
              std::to_string(run.failed_steps) + " steps had a non-finite loss");

  if (check_outputs) {
    // Replicas must be bit-identical after synchronous training.
    bool replicas_equal = true;
    const auto arena0 = trainer.network(0).param_arena();
    for (int r = 1; r < spec.ranks; ++r) {
      const auto arena = trainer.network(r).param_arena();
      replicas_equal = replicas_equal && arena.size() == arena0.size() &&
                       std::memcmp(arena.data(), arena0.data(),
                                   arena0.size() * sizeof(float)) == 0;
    }
    report.gate("train_replicas_bitwise_equal", replicas_equal,
                "rank replicas diverged");
    // Trainer::predict must match a private inference-context forward.
    const cf::data::Sample sample = data.val->make_reader()->get(0);
    const std::vector<float> predicted = trainer.predict(sample.volume);
    cf::dnn::ExecContext ctx =
        trainer.network(0).make_context(cf::dnn::ExecMode::kInference);
    cf::runtime::ThreadPool pool(spec.stream_threads());
    const std::vector<float> direct = ctx.forward(sample.volume, pool).to_vector();
    report.gate("train_predict_bitwise_equal",
                predicted.size() == direct.size() &&
                    std::memcmp(predicted.data(), direct.data(),
                                direct.size() * sizeof(float)) == 0,
                "Trainer::predict differs from an inference-context forward");
  }
  return run;
}

// Trainer runs repeated with the same seed until `seconds` are used up:
// another run starts while at least half of it still fits (so at least
// one runs); every run must reproduce the first bit for bit.
// `after_each` runs after every trainer run, inside the time budget.
struct TrainerRuns {
  std::vector<std::vector<double>> step_s;  // per rank, pooled
  std::vector<double> samples_per_s;        // global, one per run
  std::vector<float> rank0_losses;          // of the first run
  double val_loss = 0.0;
  int runs = 0;
};

TrainerRuns run_trainers(
    const TrainSpec& spec, const Options& opt, const TrainData& data,
    Report& report,
    const std::function<void(const TrainerRun&)>& after_each = {}) {
  TrainerRuns out;
  out.step_s.resize(static_cast<std::size_t>(spec.ranks));
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  while (out.runs == 0 ||
         seconds_between(start, Clock::now()) + last / 2 <= opt.seconds) {
    const Clock::time_point t = Clock::now();
    const std::string log_path =
        opt.work_dir + "/steps-" + std::to_string(out.runs) + ".jsonl";
    TrainerRun run = run_trainer(spec, opt.seed, data, log_path,
                                 /*check_outputs=*/out.runs == 0, report);
    if (after_each) after_each(run);
    last = seconds_between(t, Clock::now());
    report.count_ops(run.steps, run.failed_steps);
    if (out.runs == 0) {
      out.rank0_losses = run.rank0_losses;
      out.val_loss = run.val_loss;
    } else {
      report.gate("train_runs_deterministic",
                  run.rank0_losses == out.rank0_losses &&
                      run.val_loss == out.val_loss,
                  "a repeated trainer run with the same seed diverged");
    }
    for (std::size_t r = 0; r < out.step_s.size(); ++r) {
      out.step_s[r].insert(out.step_s[r].end(), run.step_s[r].begin(),
                           run.step_s[r].end());
    }
    const std::vector<double>& rank0 = run.step_s[0];
    double rank0_total = 0.0;
    for (const double s : rank0) rank0_total += s;
    out.samples_per_s.push_back(
        static_cast<double>(spec.ranks * rank0.size()) / rank0_total);
    ++out.runs;
  }
  return out;
}

// What every rank does before its first step: build and finalize the
// replica, create its training context and apply the cost-model plan.
void build_rank_state(const TrainSpec& spec, std::uint64_t seed) {
  cf::dnn::Network net = cf::core::build_network(spec.topology, seed);
  cf::dnn::ExecContext ctx = net.make_context(cf::dnn::ExecMode::kTraining);
  const cf::dnn::CostModel model(net, {}, /*training=*/true);
  ctx.apply_intraop(model.choose(spec.stream_threads(), 1));
}

struct ReplayStats {
  std::vector<float> rank0_losses;
  std::int64_t buckets = 0;      // rank 0, all steps
  std::int64_t bucket_bytes = 0;
  std::int64_t steps = 0;
};

// The trainer's steps rebuilt from public pieces, the way core::Trainer
// runs them: Pipeline::next -> staged forward -> loss -> backward
// posting MlComm buckets from grad_ready -> wait -> LarcAdam::step.
// Rank 0 records a span around every call, with op ids from `op_base`;
// step 0 pays first-touch costs and goes unrecorded, as the trainer
// statistics leave it out.
ReplayStats replay_steps(const TrainSpec& spec, std::uint64_t seed,
                         const TrainData& data, SpanLog& spans,
                         std::uint64_t op_base) {
  namespace cfc = cf::core;
  const std::int64_t steps_per_epoch =
      static_cast<std::int64_t>(data.train->size()) / spec.ranks;
  ReplayStats stats;
  cf::comm::MlComm comm(spec.ranks);
  comm.run([&](cf::comm::RankHandle& rank) {
    const int r = rank.rank();
    cf::runtime::ThreadPool pool(spec.stream_threads());
    cf::dnn::Network net = cfc::build_network(spec.topology, seed);
    cf::dnn::ExecContext ctx = net.make_context(cf::dnn::ExecMode::kTraining);
    if (spec.threads_per_rank == 0) {
      const cf::dnn::CostModel model(net, {}, /*training=*/true);
      ctx.apply_intraop(model.choose(spec.stream_threads(), 1));
    }
    const cfc::TrainerConfig defaults;
    const auto schedule = std::make_shared<cf::optim::PolynomialDecay>(
        defaults.base_lr, defaults.min_lr, spec.epochs * steps_per_epoch);
    cf::optim::LarcAdam optimizer(ctx.params(), defaults.adam,
                                  defaults.larc, schedule);
    cf::data::PipelineConfig pipe_config;
    pipe_config.metric_prefix = "cfbench/replay/r" + std::to_string(r);
    cf::data::Pipeline pipeline(*data.train, pipe_config);
    rank.broadcast(net.param_arena(), 0);

    const std::span<float> grads = ctx.grad_arena();
    const std::size_t bucket_elems = defaults.bucket_bytes / sizeof(float);
    std::vector<cf::comm::PendingReduce> pending;
    const std::int64_t n_out = net.output_shape()[0];
    std::vector<float> target(static_cast<std::size_t>(n_out));
    Tensor dloss(net.output_shape());
    cf::runtime::Rng augment_rng(seed ^ 0xA46D454E54ULL,
                                 static_cast<std::uint64_t>(r));
    cf::data::Sample sample;
    std::uint64_t op = 0;
    for (int epoch = 0; epoch < spec.epochs; ++epoch) {
      pipeline.start_epoch(cf::data::epoch_indices_for_rank(
          data.train->size(), spec.ranks, r,
          seed + static_cast<std::uint64_t>(epoch) + 1, /*shuffle=*/true));
      for (std::int64_t s = 0; s < steps_per_epoch; ++s, ++op) {
        SpanLog* log = r == 0 && op > 0 ? &spans : nullptr;
        ScopedSpan step(log, "train.step", op_base + op);
        {
          ScopedSpan span(log, "data.next", op_base + op);
          if (!pipeline.next(sample)) {
            throw std::runtime_error("replay: pipeline ran dry");
          }
        }
        {
          ScopedSpan span(log, "data.stage", op_base + op);
          cf::data::orient_volume_into(
              sample.volume, ctx.input_staging(),
              static_cast<std::uint32_t>(
                  augment_rng.uniform_index(cf::data::kOrientationCount)));
        }
        const Tensor* output = nullptr;
        {
          ScopedSpan span(log, "dnn.fwd", op_base + op);
          output = &ctx.forward_staged(pool);
        }
        float loss = 0.0f;
        {
          ScopedSpan span(log, "dnn.loss", op_base + op);
          std::copy_n(sample.target.begin(), n_out, target.begin());
          loss = cf::dnn::mse_loss(output->values(), target);
          cf::dnn::mse_loss_grad(output->values(), target, dloss.values());
        }
        pending.clear();
        {
          ScopedSpan span(log, "dnn.bwd", op_base + op);
          ctx.zero_grads();
          std::size_t lo = grads.size();
          std::size_t hi = grads.size();
          ctx.backward(dloss, pool, [&](std::size_t layer) {
            lo = net.segment_offset(layer);
            if (hi - lo >= bucket_elems) {
              pending.push_back(
                  rank.allreduce_average_async(grads.subspan(lo, hi - lo)));
              hi = lo;
            }
          });
          if (hi > lo) {
            pending.push_back(
                rank.allreduce_average_async(grads.subspan(lo, hi - lo)));
          }
        }
        {
          ScopedSpan span(log, "comm.wait", op_base + op);
          for (cf::comm::PendingReduce& p : pending) rank.wait(p);
        }
        {
          ScopedSpan span(log, "optim.step", op_base + op);
          optimizer.step(pool);
        }
        if (r == 0) {
          stats.rank0_losses.push_back(loss);
          stats.buckets += static_cast<std::int64_t>(pending.size());
          stats.bucket_bytes +=
              static_cast<std::int64_t>(grads.size() * sizeof(float));
          ++stats.steps;
        }
      }
    }
  });
  return stats;
}

}  // namespace

void check_split(const TrainSpec& spec) {
  const std::string name = spec.topology.name;
  if (spec.voxels <= 0 || spec.voxels % 2 != 0 ||
      spec.voxels / 2 != spec.topology.input_dhw) {
    throw std::invalid_argument(
        name + ": sub-volumes of " + std::to_string(spec.voxels) +
        "^3 boxes do not match the network input " +
        std::to_string(spec.topology.input_dhw) + "^3");
  }
  if (spec.val_sims == 0 || spec.val_sims >= spec.sims) {
    throw std::invalid_argument(
        name + ": " + std::to_string(spec.sims) + " boxes with " +
        std::to_string(spec.val_sims) +
        " held out leave the train or val split empty");
  }
  const std::size_t train_samples = (spec.sims - spec.val_sims) * 8;
  if (train_samples < static_cast<std::size_t>(spec.ranks)) {
    throw std::invalid_argument(
        name + ": " + std::to_string(train_samples) +
        " training samples cannot feed " + std::to_string(spec.ranks) +
        " ranks");
  }
}

TrainData make_train_data(const TrainSpec& spec, std::uint64_t seed,
                          const std::string& dir,
                          cf::runtime::ThreadPool& pool, Report& report) {
  cf::core::DatasetGenConfig gen;
  gen.simulations = spec.sims;
  gen.sim.grid = {spec.grid, spec.box_size};
  gen.sim.voxels = spec.voxels;
  gen.seed = seed;
  // split_by_group holds out floor(fraction * sims) whole boxes.
  gen.val_fraction = (static_cast<double>(spec.val_sims) + 0.5) /
                     static_cast<double>(spec.sims);
  gen.test_fraction = 0.0;
  const cf::core::GeneratedDataset generated =
      cf::core::generate_dataset(gen, pool);

  TrainData data;
  data.dir = dir;
  std::filesystem::create_directories(dir);
  data.train = std::make_unique<cf::data::CfrecordSource>(
      cf::data::write_shards(generated.train, dir, "train",
                             spec.samples_per_shard, seed));
  data.val = std::make_unique<cf::data::CfrecordSource>(
      cf::data::write_shards(generated.val, dir, "val",
                             spec.samples_per_shard, seed + 1));
  report.gate("data_readback_hash_equal",
              sample_hashes(generated.train) == source_hashes(*data.train) &&
                  sample_hashes(generated.val) == source_hashes(*data.val),
              "shards do not read back to the generated samples");
  return data;
}

void run_train_end_to_end(const Workload& w, const Options& opt,
                          Report& report) {
  const TrainSpec& spec = w.train;
  // Set-up runs on the vCPUs training uses, not all of them, for the
  // same reason training leaves some idle (see the workload table).
  cf::runtime::ThreadPool gen_pool(static_cast<std::size_t>(spec.ranks) *
                                   spec.stream_threads());
  std::vector<double> setup_s;
  TrainData data;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = k == 0 ? opt.process_start : Clock::now();
    TrainData d = make_train_data(
        spec, opt.seed, opt.work_dir + "/setup-" + std::to_string(k),
        gen_pool, report);
    build_rank_state(spec, opt.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k == 0) {
      data = std::move(d);
    } else {
      std::filesystem::remove_all(d.dir);
    }
  }

  const TrainerRuns runs = run_trainers(spec, opt, data, report);
  const std::vector<double>& rank0 = runs.step_s[0];
  // The highest step-time percentile with ten steps beyond it (none,
  // q = 0, when train-128 fits only two trainer runs).
  const Tail tail = supported_tail(rank0);

  report.metric("setup_s", median(setup_s), "s");
  // Each trainer run's samples/s, and their median: a host stall that
  // hits a few of train-32x2's ~20 trainer runs does not move it.
  report.metric("throughput_per_s", median(runs.samples_per_s), "1/s");
  report.metric("p50_ms", median(rank0) * 1e3, "ms");
  report.detail("step_ms_tail", tail.value * 1e3);
  report.detail("step_ms_tail_q", tail.q);
  report.detail("step_ms_samples", static_cast<double>(rank0.size()));
  report.detail("val_loss", runs.val_loss);
  report.detail("trainer_runs", runs.runs);
  report.detail("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()));
  report.detail("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()));
  std::fprintf(stderr,
               "cfbench: %s: setup %.2f s, %d trainer run(s), %zu timed "
               "rank-0 steps, step p50 %.2f ms, val loss %.6g\n",
               w.name.c_str(), median(setup_s), runs.runs, rank0.size(),
               median(rank0) * 1e3, runs.val_loss);
}

void run_train_traced(const TrainSpec& spec, const Options& opt,
                      const TrainData& data, Report& report, SpanLog& spans) {
  // Trainer and replay alternate, so both see the same machine state.
  ReplayStats replay;
  std::uint64_t op_base = 0;
  const TrainerRuns runs =
      run_trainers(spec, opt, data, report, [&](const TrainerRun& run) {
        const ReplayStats r =
            replay_steps(spec, opt.seed, data, spans, op_base);
        op_base += 1000000;
        report.gate("replay_matches_trainer_losses",
                    r.rank0_losses == run.rank0_losses,
                    "the replayed step diverged from core::Trainer");
        replay.buckets += r.buckets;
        replay.bucket_bytes += r.bucket_bytes;
        replay.steps += r.steps;
      });
  const double untraced = median(runs.step_s[0]);

  const auto p50_ms = [&](const char* name) {
    return median(spans.seconds_of(name)) * 1e3;
  };
  const double traced = p50_ms("train.step");
  std::vector<double> layer_sum;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    if (spans.spans()[i].name != "train.step") continue;
    double sum = 0.0;
    for (std::size_t j = i + 1; j < spans.spans().size(); ++j) {
      if (spans.spans()[j].parent == static_cast<int>(i)) {
        sum += spans.self_seconds(j);
      }
    }
    layer_sum.push_back(sum);
  }
  const double layers = median(layer_sum) * 1e3;
  const double trace_overhead = traced / (untraced * 1e3) - 1.0;

  cf::dnn::Network net = cf::core::build_network(spec.topology, opt.seed);
  const cf::dnn::CostModel model(net, {}, /*training=*/true);
  const double fwd = p50_ms("dnn.fwd");
  const double bwd = p50_ms("dnn.bwd");
  const double optim = p50_ms("optim.step");
  // LarcAdam touches every parameter in two sweeps: the norm pass
  // reads w and g, the update reads w, g, m, v and writes w, m, v.
  const double optim_bytes = 9.0 * 4.0 * static_cast<double>(net.param_count());

  report.metric("train.val_loss", runs.val_loss, "1");
  report.metric("dnn.fwd_ms", fwd, "ms");
  report.metric("dnn.bwd_ms", bwd, "ms");
  report.metric("dnn.model_error",
                (fwd + bwd) * 1e-3 /
                    model.predicted_seconds(spec.stream_threads()),
                "ratio");
  report.metric("dnn.peak_tensor_bytes",
                static_cast<double>(net.peak_tensor_bytes()), "B");
  report.metric("optim.step_ms", optim, "ms");
  report.metric("optim.GBps", optim_bytes / (optim * 1e-3) / 1e9, "GB/s");
  report.metric("comm.exposed_ms", p50_ms("comm.wait"), "ms");
  report.metric("comm.bytes_per_step",
                static_cast<double>(replay.bucket_bytes) /
                    static_cast<double>(replay.steps),
                "B");
  report.metric("comm.calls_per_step",
                static_cast<double>(replay.buckets) /
                    static_cast<double>(replay.steps),
                "count");
  report.metric("data.next_wait_ms", p50_ms("data.next"), "ms");
  report.metric("core.overhead_ms", untraced * 1e3 - layers, "ms");
  report.metric("obs.trace_overhead_frac", trace_overhead, "ratio");

  const bool reconciled = std::fabs(trace_overhead) <= kReconcileTolerance;
  std::fprintf(stderr,
               "cfbench: reconcile: untraced trainer step p50 %.3f ms, "
               "traced replay step p50 %.3f ms (%+.1f%%, tolerance "
               "%.0f%%), summed layer self time %.3f ms\n",
               untraced * 1e3, traced, 100.0 * trace_overhead,
               100.0 * kReconcileTolerance, layers);
  report.detail("reconcile_tolerance", kReconcileTolerance);
  report.detail("untraced_step_ms", untraced * 1e3);
  report.detail("traced_step_ms", traced);
  report.detail("layer_self_sum_ms", layers);
  report.gate("replay_reconciles_with_trainer", reconciled,
              "traced step differs from the untraced trainer step by more "
              "than the tolerance");
}

}  // namespace cfbench
