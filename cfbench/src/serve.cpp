// serve-32: cosmoflow-32 in bf16 behind serve::Server, driven open-loop
// by one generator thread with Poisson arrivals at a fixed ladder of
// absolute rates. Latency runs from each request's scheduled send time
// to its result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/dataset_gen.hpp"
#include "serve/server.hpp"

namespace cfbench {
namespace {

using cf::tensor::Tensor;

// Arrival-rate ladder in requests/s, climbed in order. `low` keeps the
// queue idle. `high` loads the two workers to about a quarter of their
// capacity on a 4-core AVX-512 host, so a host running 2-3x slower
// still queues moderately. A rung meets the service limit when its p99
// latency is at most kP99LimitMs (refused or failed requests count as
// misses) and its backlog did not grow: once the admission queue holds
// kBacklogStop requests the generator stops the rung, which then
// misses, and the climb ends there. The generator is the only
// producer, so stopping below the queue budget (64) means no request
// is ever refused.
struct Rung {
  const char* name;
  double rate;
};
constexpr Rung kLadder[] = {{"r150", 150.0},   {"r250", 250.0},
                            {"r400", 400.0},   {"r600", 600.0},
                            {"r800", 800.0},   {"r1000", 1000.0},
                            {"r1100", 1100.0}, {"r1200", 1200.0},
                            {"r1300", 1300.0}, {"r1400", 1400.0}};
constexpr std::size_t kLow = 0;
constexpr std::size_t kHigh = 1;
constexpr double kP99LimitMs = 50.0;
constexpr std::size_t kBacklogStop = 60;
constexpr std::size_t kInputBoxes = 8;  // 64 generated sub-volumes
// The served model is part of the system under test, not of its
// traffic: its weights are fixed, the seed only drives the requests.
constexpr std::uint64_t kModelSeed = 1;

std::size_t requests_per_rung(int seconds) {
  // >= 1,010 completions leave ten samples beyond the p99.
  return std::max<std::size_t>(1100, static_cast<std::size_t>(110 * seconds));
}

struct ServeState {
  std::vector<Tensor> inputs;
  std::vector<std::vector<float>> expected;  // private bf16 forward
  double mae = 0.0;                          // bf16 vs fp32
  std::shared_ptr<const cf::dnn::Network> network;
  std::unique_ptr<cf::serve::Server> server;
};

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

ServeState serve_setup(std::uint64_t seed, cf::runtime::ThreadPool& gen_pool,
                       Report& report) {
  ServeState st;
  cf::core::DatasetGenConfig gen;
  gen.simulations = kInputBoxes;
  gen.sim.grid = {64, 128.0};
  gen.sim.voxels = 64;
  gen.seed = seed;
  gen.val_fraction = 0.0;
  gen.test_fraction = 0.0;
  cf::core::GeneratedDataset generated = cf::core::generate_dataset(gen, gen_pool);
  for (cf::data::Sample& s : generated.train) {
    st.inputs.push_back(std::move(s.volume));
  }

  auto net = std::make_shared<cf::dnn::Network>(
      cf::core::build_network(cf::core::cosmoflow_scaled(32), kModelSeed));
  cf::runtime::ThreadPool pool(1);
  std::vector<std::vector<float>> fp32;
  {
    cf::dnn::ExecContext ctx = net->make_context(cf::dnn::ExecMode::kInference);
    for (const Tensor& in : st.inputs) {
      fp32.push_back(ctx.forward(in, pool).to_vector());
    }
  }
  net->prepare_inference_precision(cf::dnn::Precision::kBf16);
  {
    cf::dnn::ExecContext ctx = net->make_context(
        cf::dnn::ExecMode::kInference, cf::dnn::Precision::kBf16);
    double abs_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < st.inputs.size(); ++i) {
      st.expected.push_back(ctx.forward(st.inputs[i], pool).to_vector());
      for (std::size_t j = 0; j < fp32[i].size(); ++j) {
        abs_sum += std::fabs(static_cast<double>(st.expected[i][j]) -
                             static_cast<double>(fp32[i][j]));
        ++count;
      }
    }
    st.mae = abs_sum / static_cast<double>(count);
  }
  st.network = net;

  cf::serve::ServerConfig config;  // default batch/deadline/queue budgets
  config.workers = 2;
  config.threads_per_worker = 0;  // cost-model auto
  config.precision = cf::dnn::Precision::kBf16;
  config.metric_prefix = "cfbench/serve";
  st.server = std::make_unique<cf::serve::Server>(st.network, config);

  // Warm-up: every worker context runs before the first timed request.
  std::vector<std::future<cf::serve::InferenceResult>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    std::future<cf::serve::InferenceResult> f;
    if (st.server->submit(st.inputs[i % st.inputs.size()].clone(), &f) ==
        cf::serve::SubmitStatus::kAccepted) {
      futures.push_back(std::move(f));
    }
  }
  bool warm_ok = futures.size() == 16;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    warm_ok = same_bits(futures[i].get().output,
                        st.expected[i % st.inputs.size()]) && warm_ok;
  }
  report.gate("serve_warmup", warm_ok, "warm-up requests failed");
  return st;
}

struct RungResult {
  std::string name;
  double rate = 0.0;
  std::size_t sent = 0, completed = 0, rejected = 0, errors = 0,
              mismatched = 0;
  std::vector<double> latency;  // seconds from scheduled send; inf = miss
  std::vector<double> late;     // generator lateness, seconds
  std::vector<double> queue, compute;
  double fill_sum = 0.0;        // batch size / max_batch, summed
  double busy_seconds = 0.0;    // first due -> last completion
  bool backlog = false;         // the backlog stop ended the rung
  std::size_t failed() const { return rejected + errors + mismatched; }
  double p50() const { return percentile(latency, 0.5); }
  double p99() const { return percentile(latency, 0.99); }
  double achieved() const {
    return static_cast<double>(completed) / busy_seconds;
  }
  double batch_fill() const {
    return completed > 0 ? fill_sum / static_cast<double>(completed) : 0.0;
  }
  bool meets() const {
    return !backlog && failed() == 0 && p99() * 1e3 <= kP99LimitMs;
  }
};

// One rung: `n` open-loop Poisson arrivals at the rung's rate.
RungResult run_rung(ServeState& st, std::size_t index, std::size_t n,
                    std::uint64_t seed, SpanLog* spans) {
  RungResult out;
  out.name = kLadder[index].name;
  out.rate = kLadder[index].rate;
  const std::uint64_t op_base = (index + 1) * 1000000;
  cf::runtime::Rng rng(seed, 0x72756e67ULL + index);  // "rung"
  std::vector<double> offset(n);
  std::vector<std::size_t> pick(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    offset[i] = t;
    t += -std::log(1.0 - std::min(rng.uniform_double(), 0.9999999)) /
         out.rate;
    pick[i] = static_cast<std::size_t>(rng.uniform_index(st.inputs.size()));
  }

  std::vector<std::optional<std::future<cf::serve::InferenceResult>>> futures(n);
  std::vector<Clock::time_point> due(n), submitted(n);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  Tensor next = st.inputs[pick[0]].clone();
  std::size_t sent = 0;
  for (; sent < n; ++sent) {
    const std::size_t i = sent;
    if (st.server->queue_depth() >= kBacklogStop) {
      out.backlog = true;
      break;
    }
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset[i]));
    std::this_thread::sleep_until(due[i]);
    submitted[i] = Clock::now();
    std::future<cf::serve::InferenceResult> f;
    if (st.server->submit(std::move(next), &f) ==
        cf::serve::SubmitStatus::kAccepted) {
      futures[i] = std::move(f);
    } else {
      ++out.rejected;
    }
    if (i + 1 < n) next = st.inputs[pick[i + 1]].clone();
  }
  out.sent = sent;

  const auto to_clock = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const std::size_t max_batch = st.server->config().max_batch;
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < sent; ++i) {
    out.late.push_back(seconds_between(due[i], submitted[i]));
    if (!futures[i]) {
      out.latency.push_back(INFINITY);
      continue;
    }
    cf::serve::InferenceResult result;
    try {
      result = futures[i]->get();
    } catch (const std::exception&) {
      ++out.errors;
      out.latency.push_back(INFINITY);
      continue;
    }
    if (!same_bits(result.output, st.expected[pick[i]])) {
      ++out.mismatched;
      out.latency.push_back(INFINITY);
      continue;
    }
    ++out.completed;
    const Clock::time_point done = submitted[i] + to_clock(result.total_seconds);
    last_done = std::max(last_done, done);
    out.latency.push_back(seconds_between(due[i], done));
    out.queue.push_back(result.queue_seconds);
    out.compute.push_back(result.compute_seconds);
    out.fill_sum += static_cast<double>(result.batch_size) /
                    static_cast<double>(max_batch);
    if (spans != nullptr) {
      const std::uint64_t op = op_base + i;
      const int root = spans->add("serve.request", op, -1, due[i], done);
      spans->add("serve.generator_late", op, root, due[i], submitted[i]);
      spans->add("serve.queue", op, root, submitted[i],
                 submitted[i] + to_clock(result.queue_seconds));
      spans->add("serve.compute", op, root,
                 done - to_clock(result.compute_seconds), done);
    }
  }
  out.busy_seconds = seconds_between(start, last_done);
  return out;
}

void log_rung(const RungResult& r) {
  std::fprintf(stderr,
               "cfbench: rung %-6s %6.0f req/s: sent %zu completed %zu "
               "rejected %zu failed %zu | p50 %7.2f ms p99 %7.2f ms | "
               "achieved %7.1f req/s | gen late p99 %.3f ms | %s\n",
               r.name.c_str(), r.rate, r.sent, r.completed, r.rejected,
               r.errors + r.mismatched, r.p50() * 1e3, r.p99() * 1e3,
               r.achieved(), percentile(r.late, 0.99) * 1e3,
               r.meets() ? "meets limit"
                         : (r.backlog ? "backlog grew" : "misses limit"));
}

void gate_outputs(const std::vector<RungResult>& rungs, Report& report) {
  std::size_t wrong = 0;
  for (const RungResult& r : rungs) {
    wrong += r.errors + r.mismatched;
    report.count_ops(static_cast<std::int64_t>(r.sent),
                     static_cast<std::int64_t>(r.failed()));
  }
  report.gate("serve_outputs_bitwise_equal", wrong == 0,
              std::to_string(wrong) +
                  " responses failed or differ from a private bf16 forward");
}

}  // namespace

void run_serve_end_to_end(const Options& opt, Report& report) {
  cf::runtime::ThreadPool gen_pool;
  std::vector<double> setup_s;
  ServeState st;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = k == 0 ? opt.process_start : Clock::now();
    ServeState s = serve_setup(opt.seed, gen_pool, report);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k == 0) st = std::move(s);
  }

  const std::size_t n = requests_per_rung(opt.seconds);
  std::vector<RungResult> rungs;
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    rungs.push_back(run_rung(st, i, n, opt.seed, nullptr));
    log_rung(rungs.back());
    // Every faster rung would back up too.
    if (rungs.back().backlog && i >= kHigh) break;
  }
  st.server->shutdown();
  gate_outputs(rungs, report);

  double max_rps = 0.0;
  for (const RungResult& r : rungs) {
    if (r.meets()) max_rps = r.achieved();
  }
  const RungResult& high = rungs[kHigh];
  report.metric("setup_s", median(setup_s), "s");
  report.metric("throughput_per_s", max_rps, "1/s");
  report.metric("p50_ms", high.p50() * 1e3, "ms");
  report.detail("p99_limit_ms", kP99LimitMs);
  report.detail("requests_per_rung", static_cast<double>(n));
  report.detail("serve.mae", st.mae);
  for (const RungResult& r : rungs) {
    const std::string p = "serve." + r.name + ".";
    report.detail(p + "p50_ms", r.p50() * 1e3);
    report.detail(p + "p99_ms", r.p99() * 1e3);
    report.detail(p + "samples", static_cast<double>(r.latency.size()));
    report.detail(p + "sent", static_cast<double>(r.sent));
    report.detail(p + "completed", static_cast<double>(r.completed));
    report.detail(p + "rejected", static_cast<double>(r.rejected));
    report.detail(p + "generator_late_ms.p99", percentile(r.late, 0.99) * 1e3);
    report.detail(p + "meets", r.meets() ? 1.0 : 0.0);
  }
}

void run_serve_traced(const Options& opt, Report& report, SpanLog& spans) {
  cf::runtime::ThreadPool gen_pool;
  ServeState st = serve_setup(opt.seed, gen_pool, report);
  // The rungs run at fixed rates, so their length does not shrink on a
  // fast host; capping them keeps a traced run well under three minutes
  // next to the training probes.
  const std::size_t n = requests_per_rung(std::min(opt.seconds, 20));
  std::vector<RungResult> rungs;
  for (const std::size_t i : {kLow, kHigh}) {
    rungs.push_back(run_rung(st, i, n, opt.seed, &spans));
    log_rung(rungs.back());
  }
  st.server->shutdown();
  gate_outputs(rungs, report);
  const char* names[] = {"low", "high"};
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    const RungResult& r = rungs[k];
    const std::string p = std::string("serve.") + names[k] + ".";
    report.metric(p + "p50_ms", r.p50() * 1e3, "ms");
    report.metric(p + "p99_ms", r.p99() * 1e3, "ms");
    report.metric(p + "queue_wait_p50_ms", percentile(r.queue, 0.5) * 1e3, "ms");
    report.metric(p + "queue_wait_p99_ms", percentile(r.queue, 0.99) * 1e3, "ms");
    report.metric(p + "compute_p50_ms", percentile(r.compute, 0.5) * 1e3, "ms");
    report.metric(p + "batch_fill", r.batch_fill(), "ratio");
    report.metric(p + "generator_late_p99_ms", percentile(r.late, 0.99) * 1e3,
                  "ms");
    report.detail(p + "sent", static_cast<double>(r.sent));
    report.detail(p + "completed", static_cast<double>(r.completed));
    report.detail(p + "rejected", static_cast<double>(r.rejected));
  }
  report.metric("serve.mae", st.mae, "1");
}

}  // namespace cfbench
