// Serving latency/throughput under three canonical traffic shapes —
// the evidence for SERVING.md's latency/throughput trade-off story.
//
// One micro-batching Server (cf::serve) over one shared Network is
// driven by:
//
//  * closed-loop — C clients submit, wait, submit again. Offered load
//    self-regulates to the service rate; measures best-case
//    throughput and in-system latency, never trips admission control.
//  * open-loop poisson — arrivals on a Poisson process at ~0.7x the
//    calibrated service capacity, submitted on a timer regardless of
//    completions. The realistic regime: latency includes queueing
//    delay, and the tail (p99/p999) separates from the median.
//  * open-loop bursty — the same average rate delivered as on/off
//    square-wave bursts at ~10x capacity, each burst sized past the
//    admission budget. The overload regime: queue depth hits the
//    budget and requests are shed with a typed Overloaded rejection;
//    measures the rejection rate and what the latency tail looks like
//    for the survivors.
//
// Latency percentiles come from the server's own serve/latency
// histogram (OBSERVABILITY.md) — the bench reads the same metrics a
// production exporter would, not a private stopwatch. Every completed
// output is verified bitwise against a serial reference (DESIGN.md
// §2.4), so a batching or concurrency bug fails the bench loudly.
//
//   ./bench_serve [--dhw=16] [--workers=2] [--threads-per-worker=1]
//       [--max-batch=8] [--max-delay-us=2000] [--queue-capacity=64]
//       [--requests=384] [--clients=4] [--precision=fp32|bf16]
//       [--smoke] [--json=BENCH_serve.json]
//
// --threads-per-worker=0 selects the server's cost-model auto mode
// (DESIGN.md §2.6): the dnn::CostModel splits the hardware-thread
// budget across the workers and applies its per-layer grains to every
// worker context. Like bench_inference_throughput, the JSON records
// hardware_threads and a scaling_valid flag — false when workers x
// threads oversubscribe the machine, where throughput rows measure
// time-slicing rather than capacity.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "examples/example_utils.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/precision.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

#ifndef COSMOFLOW_GIT_SHA
#define COSMOFLOW_GIT_SHA "unknown"
#endif

namespace {

using namespace cf;
using Clock = std::chrono::steady_clock;

// A small pool of distinct inputs cycled through by every phase, with
// serial reference outputs fixed up front for bitwise verification.
struct Workload {
  std::vector<tensor::Tensor> inputs;
  std::vector<std::vector<float>> expected;
};

// What one traffic phase measured; serialized into BENCH_serve.json.
struct PhaseResult {
  std::string name;
  std::size_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  double seconds = 0.0;
  double throughput = 0.0;  // completed / seconds
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  double mean_batch_fill = 0.0;
  double mean_queue_wait = 0.0;
  double rejection_rate = 0.0;
};

// Read the server's own serve/* metrics after shutdown — the bench
// consumes the same registry a production exporter would.
PhaseResult harvest(const std::string& name, std::size_t offered,
                    double seconds) {
  auto& reg = obs::Registry::global();
  PhaseResult r;
  r.name = name;
  r.offered = offered;
  r.accepted = reg.counter("serve/accepted").value();
  r.rejected = reg.counter("serve/rejected").value();
  r.completed = reg.counter("serve/completed").value();
  r.seconds = seconds;
  r.throughput =
      seconds > 0.0 ? static_cast<double>(r.completed) / seconds : 0.0;
  const obs::HistogramSnapshot lat =
      reg.histogram("serve/latency").snapshot();
  r.p50 = lat.percentile(0.50);
  r.p99 = lat.percentile(0.99);
  r.p999 = lat.percentile(0.999);
  r.mean_batch_fill = reg.stat("serve/batch_fill").snapshot().mean();
  r.mean_queue_wait = reg.stat("serve/queue_wait").snapshot().mean();
  r.rejection_rate =
      offered > 0 ? static_cast<double>(r.rejected) /
                        static_cast<double>(offered)
                  : 0.0;
  return r;
}

void print_result(const PhaseResult& r) {
  std::printf(
      "%-18s | %5zu offered | %5lld done | %4.1f%% shed | %8.2f req/s | "
      "p50 %7.2f ms | p99 %7.2f ms | p999 %7.2f ms | fill %.2f\n",
      r.name.c_str(), r.offered, static_cast<long long>(r.completed),
      100.0 * r.rejection_rate, r.throughput, r.p50 * 1e3, r.p99 * 1e3,
      r.p999 * 1e3, r.mean_batch_fill);
}

// Verify a completed result against the reference bits for its input.
void check_bits(const serve::InferenceResult& result,
                const std::vector<float>& expected,
                std::atomic<int>& mismatches) {
  if (tensor::max_abs_diff(result.output, expected) != 0.0f) {
    mismatches.fetch_add(1);
  }
}

int run(int argc, char** argv) {
  const examples::Flags flags(
      argc, argv,
      "usage: bench_serve [--dhw=N] [--workers=N] "
      "[--threads-per-worker=N] [--max-batch=N] [--max-delay-us=F] "
      "[--queue-capacity=N] [--requests=N] [--clients=N] "
      "[--precision=fp32|bf16] [--smoke] [--json=PATH]");
  std::int64_t dhw = flags.get_int("dhw", 16);
  serve::ServerConfig config;
  config.workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  config.threads_per_worker =
      static_cast<std::size_t>(flags.get_int("threads-per-worker", 1));
  config.max_batch = static_cast<std::size_t>(flags.get_int("max-batch", 8));
  config.max_delay_seconds = flags.get_double("max-delay-us", 2000.0) * 1e-6;
  config.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-capacity", 64));
  std::size_t requests =
      static_cast<std::size_t>(flags.get_int("requests", 384));
  std::size_t clients = static_cast<std::size_t>(flags.get_int("clients", 4));
  config.precision =
      dnn::precision_from_string(flags.get_string("precision", "fp32"));
  const bool smoke = flags.get_int("smoke", 0) != 0;
  const std::string json_path = flags.get_string("json", "");
  flags.reject_unknown();
  if (smoke) {
    // Sanitizer-friendly: tiny model, short phases, same code paths.
    dhw = 8;
    requests = 48;
    clients = 2;
  }
  if (clients == 0) clients = 1;

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool threads_auto = config.threads_per_worker == 0;
  std::printf("=== bench_serve: micro-batching inference service under "
              "closed-loop / poisson / bursty traffic ===\n");
  std::printf("(cosmoflow_scaled(%lld), %zu workers x %s threads, "
              "max_batch %zu, max_delay %.0f us, queue %zu, %zu requests "
              "per phase, %zu clients, %s inference, %u hardware "
              "threads)\n\n",
              static_cast<long long>(dhw), config.workers,
              threads_auto
                  ? "auto"
                  : std::to_string(config.threads_per_worker).c_str(),
              config.max_batch, config.max_delay_seconds * 1e6,
              config.queue_capacity, requests, clients,
              dnn::to_string(config.precision).data(), hardware_threads);

  // The bf16 side arena is packed on the mutable handle
  // before the const shared view is taken — the Server only accepts a
  // prepared network (DESIGN.md §2.5).
  auto mutable_network = std::make_shared<dnn::Network>(
      core::build_network(core::cosmoflow_scaled(dhw), 7));
  if (config.precision != dnn::Precision::kFp32) {
    mutable_network->prepare_inference_precision(config.precision);
  }
  const std::shared_ptr<const dnn::Network> network = mutable_network;

  // Resolve the auto width locally too (the Server repeats this in its
  // constructor): calibration must run with the same per-worker thread
  // count the server will use, or capacity is mis-estimated.
  std::size_t resolved_threads = config.threads_per_worker;
  if (threads_auto) {
    const dnn::CostModel cost_model(*network);
    const dnn::IntraopPlan plan = cost_model.choose(
        runtime::ThreadPool::default_num_threads(), config.workers);
    resolved_threads = plan.threads_per_stream;
    std::printf("cost model: auto resolved to %zu thread(s) per worker "
                "(predicted parallel efficiency %.2f)\n\n",
                resolved_threads, plan.predicted_efficiency);
  }

  // Input pool + serial reference bits, and service-time calibration
  // on the same context (the open-loop phases derive their arrival
  // rates from the measured per-request cost).
  Workload workload;
  double service_seconds = 0.0;
  {
    dnn::ExecContext ctx = network->make_context(
        dnn::ExecMode::kInference, config.precision);
    runtime::ThreadPool pool(resolved_threads);
    constexpr std::size_t kPool = 8;
    for (std::size_t i = 0; i < kPool; ++i) {
      runtime::Rng rng(97, i);
      tensor::Tensor input(network->input_shape());
      tensor::fill_normal(input, rng, 0.0f, 1.0f);
      workload.expected.push_back(ctx.forward(input, pool).to_vector());
      workload.inputs.push_back(std::move(input));
    }
    runtime::TimeStats calib;
    for (std::size_t i = 0; i < 2 * kPool; ++i) {
      const runtime::Stopwatch watch;
      ctx.forward(workload.inputs[i % kPool], pool);
      calib.add(watch.elapsed_seconds());
    }
    service_seconds = calib.mean();
  }
  // Capacity is calibrated with the worker topology the server will
  // actually run — config.workers concurrent streams — so core
  // contention is priced in (a serial estimate overstates capacity on
  // a small machine and turns the "below capacity" phase into
  // accidental overload).
  double capacity = 0.0;
  {
    constexpr std::size_t kCalibReps = 24;
    std::vector<std::thread> threads;
    const runtime::Stopwatch watch;
    for (std::size_t w = 0; w < config.workers; ++w) {
      threads.emplace_back([&, w] {
        dnn::ExecContext ctx = network->make_context(
            dnn::ExecMode::kInference, config.precision);
        runtime::ThreadPool pool(resolved_threads);
        for (std::size_t r = 0; r < kCalibReps; ++r) {
          ctx.forward(workload.inputs[(w + r) % workload.inputs.size()],
                      pool);
        }
      });
    }
    for (auto& t : threads) t.join();
    capacity = static_cast<double>(config.workers * kCalibReps) /
               watch.elapsed_seconds();
  }
  std::printf("calibration: %.3f ms/request serial, ~%.1f req/s "
              "aggregate capacity across %zu concurrent workers\n\n",
              service_seconds * 1e3, capacity, config.workers);
  const bool scaling_valid =
      static_cast<unsigned long long>(config.workers) *
          static_cast<unsigned long long>(
              resolved_threads == 0 ? 1 : resolved_threads) <=
      (hardware_threads == 0 ? 1u : hardware_threads);
  if (!scaling_valid) {
    std::printf("WARNING: %zu workers x %zu thread(s)/worker "
                "oversubscribe %u hardware thread(s) — throughput rows "
                "measure time-slicing, not capacity (scaling_valid will "
                "be false)\n\n",
                config.workers, resolved_threads, hardware_threads);
  }

  std::atomic<int> mismatches{0};
  std::vector<PhaseResult> results;
  const auto input_for = [&](std::size_t i) -> const tensor::Tensor& {
    return workload.inputs[i % workload.inputs.size()];
  };
  const auto expected_for =
      [&](std::size_t i) -> const std::vector<float>& {
    return workload.expected[i % workload.expected.size()];
  };

  // --- Phase 1: closed-loop. -----------------------------------------
  {
    serve::Server server(network, config);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    const runtime::Stopwatch watch;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= requests) break;
          std::future<serve::InferenceResult> future;
          // A closed-loop client retries a shed request immediately —
          // its own outstanding work bounds the offered load.
          while (server.submit(input_for(i).clone(), &future) !=
                 serve::SubmitStatus::kAccepted) {
            std::this_thread::yield();
          }
          check_bits(future.get(), expected_for(i), mismatches);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double seconds = watch.elapsed_seconds();
    server.shutdown();
    results.push_back(harvest("closed-loop", requests, seconds));
    print_result(results.back());
  }

  // --- Phases 2+3: open-loop. Arrivals come off a timer; completions
  // are collected behind them. ---------------------------------------
  const auto open_loop = [&](const std::string& name, auto next_gap) {
    serve::Server server(network, config);
    std::vector<std::pair<std::size_t, std::future<serve::InferenceResult>>>
        futures;
    futures.reserve(requests);
    const runtime::Stopwatch watch;
    Clock::time_point due = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(due);
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(next_gap(i)));
      std::future<serve::InferenceResult> future;
      if (server.submit(input_for(i).clone(), &future) ==
          serve::SubmitStatus::kAccepted) {
        futures.emplace_back(i, std::move(future));
      }
      // Overloaded submissions are genuinely shed: an open-loop client
      // does not retry, the rejection rate is the measurement.
    }
    for (auto& [i, future] : futures) {
      check_bits(future.get(), expected_for(i), mismatches);
    }
    const double seconds = watch.elapsed_seconds();
    server.shutdown();
    results.push_back(harvest(name, requests, seconds));
    print_result(results.back());
  };

  // Poisson arrivals at ~0.7x capacity: exponential interarrivals.
  {
    runtime::Rng rng(131);
    const double lambda = 0.7 * capacity;
    open_loop("open-loop-poisson", [&rng, lambda](std::size_t) {
      double u = rng.uniform_double();
      if (u >= 1.0) u = 0.9999999;
      return -std::log(1.0 - u) / lambda;
    });
  }

  // Bursty square wave: bursts at ~10x capacity, long enough to
  // overrun the admission budget plus everything buffered behind it,
  // separated by idle gaps that keep the average at the Poisson rate.
  {
    const double burst_gap = 1.0 / (10.0 * capacity);
    const std::size_t burst_len = 2 * config.queue_capacity;
    const double idle_gap =
        static_cast<double>(burst_len) *
        (1.0 / (0.7 * capacity) - burst_gap);
    open_loop("open-loop-bursty",
              [burst_gap, idle_gap, burst_len](std::size_t i) {
                const bool burst_end = (i + 1) % burst_len == 0;
                return burst_end ? idle_gap : burst_gap;
              });
  }

  if (mismatches.load() != 0) {
    throw std::runtime_error(
        "served output diverged from the serial reference bits");
  }
  std::printf("\nall completed outputs bitwise-match the serial "
              "reference (DESIGN.md 2.4)\n");

  if (!json_path.empty()) {
    obs::JsonObject rec;
    rec.field("bench", "serve")
        .field("commit", COSMOFLOW_GIT_SHA)
        .field("dhw", static_cast<std::int64_t>(dhw))
        .field("workers", static_cast<std::int64_t>(config.workers))
        .field("threads_per_worker",
               static_cast<std::int64_t>(resolved_threads))
        .field("threads_auto", threads_auto)
        .field("hardware_threads",
               static_cast<std::int64_t>(hardware_threads))
        .field("scaling_valid", scaling_valid)
        .field("max_batch", static_cast<std::int64_t>(config.max_batch))
        .field("max_delay_us", config.max_delay_seconds * 1e6)
        .field("queue_capacity",
               static_cast<std::int64_t>(config.queue_capacity))
        .field("requests", static_cast<std::int64_t>(requests))
        .field("clients", static_cast<std::int64_t>(clients))
        .field("precision", dnn::to_string(config.precision))
        .field("service_ms_serial", service_seconds * 1e3)
        .field("capacity_rps", capacity);
    for (const PhaseResult& r : results) {
      std::string base = r.name;
      for (char& ch : base) {
        if (ch == '-') ch = '_';
      }
      rec.field(base + "_throughput_rps", r.throughput)
          .field(base + "_p50_ms", r.p50 * 1e3)
          .field(base + "_p99_ms", r.p99 * 1e3)
          .field(base + "_p999_ms", r.p999 * 1e3)
          .field(base + "_rejection_rate", r.rejection_rate)
          .field(base + "_mean_batch_fill", r.mean_batch_fill);
    }
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::printf("FAILED to write json to %s\n", json_path.c_str());
      return 1;
    }
    const std::string line = rec.str() + "\n";
    std::fwrite(line.data(), 1, line.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf(
      "\nshape target: closed-loop completes everything with zero shed "
      "and per-request latency ~ max_delay + batch service time (the "
      "deadline budget is the price of batch fill when few clients are "
      "outstanding); poisson at 0.7x capacity completes everything with "
      "a queueing tail (p99 above p50); bursty overload sheds a nonzero "
      "fraction at the admission budget while survivor latency stays "
      "bounded by roughly queue_capacity / service rate.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
