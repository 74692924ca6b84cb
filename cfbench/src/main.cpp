// cfbench — the repository benchmark. One invocation runs one named
// workload from a seed, checks its outputs, and prints one JSON result
// line last (see README.md in this directory for metrics and workloads).
//
//   cfbench --workload train-128 --seed 1 --seconds 10 --trace 0
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace cfbench {
namespace {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w;
    // The paper's canonical net at one rank: conv compute fills the step.
    // Both training workloads keep half of a 4-vCPU host idle. On a
    // shared host, a step that holds every vCPU in lock-step turns a few
    // % of steal into tens of % of step time; with two vCPUs idle, the
    // same steal left the step time flat (README.md, Workloads).
    TrainSpec t128;
    t128.topology = cf::core::cosmoflow_128();
    t128.ranks = 1;
    t128.threads_per_rank = 2;
    t128.epochs = 1;
    t128.sims = 3;
    t128.val_sims = 1;
    t128.grid = 128;
    t128.box_size = 512.0;
    t128.voxels = 256;
    t128.samples_per_shard = 4;
    w.push_back({"train-128", t128, false});
    // 2 ranks x 1 thread on the scaled net: optimizer, comm, pipeline
    // and dispatch overheads become visible next to small convs.
    TrainSpec t32;
    t32.topology = cf::core::cosmoflow_scaled(32);
    t32.ranks = 2;
    t32.threads_per_rank = 1;
    t32.epochs = 2;
    t32.sims = 16;
    t32.val_sims = 4;
    t32.grid = 64;
    t32.box_size = 128.0;
    t32.voxels = 64;
    t32.samples_per_shard = 16;
    w.push_back({"train-32x2", t32, false});
    // bf16 serving; its training spec only feeds the traced probes, at
    // the width one serving worker runs with.
    TrainSpec s32 = t32;
    s32.ranks = 1;
    s32.threads_per_rank = 2;
    s32.epochs = 1;
    s32.sims = 8;
    s32.val_sims = 1;
    w.push_back({"serve-32", s32, true});
    return w;
  }();
  return table;
}

struct FlagSpec {
  const char* name;
  const char* arg;
  const char* help;
};

constexpr FlagSpec kFlags[] = {
    {"workload", "NAME", "workload to run (required): train-128, "
                         "train-32x2 or serve-32"},
    {"seed", "N", "workload seed; the same seed gives the same inputs "
                  "(default 1)"},
    {"seconds", "S", "measurement time in seconds, 1..600 (default 10)"},
    {"trace", "0|1", "0: end-to-end metrics, tracing off; 1: traced run "
                     "with per-layer metrics (default 0)"},
    {"work-dir", "DIR", "scratch directory for shards and traces "
                        "(default .bench_build/cfbench/work)"},
    {"commit", "SHA", "source revision recorded in the provenance "
                      "(default none)"},
    {"source-digest", "HEX", "digest of the library sources recorded in "
                             "the provenance (default none)"},
    {"help", nullptr, "print this help and exit"},
};

void usage(std::FILE* out) {
  std::fprintf(out, "usage: cfbench --workload NAME [--seed N] "
                    "[--seconds S] [--trace 0|1] [options]\n\nflags:\n");
  for (const FlagSpec& flag : kFlags) {
    std::string lhs = std::string("--") + flag.name;
    if (flag.arg != nullptr) lhs += std::string(" ") + flag.arg;
    std::fprintf(out, "  %-22s %s\n", lhs.c_str(), flag.help);
  }
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "cfbench: %s\n", message.c_str());
  usage(stderr);
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& text,
                       std::int64_t lo, std::int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || value < lo ||
      value > hi) {
    usage_error("--" + flag + ": expected an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) +
                "], got '" + text + "'");
  }
  return value;
}

struct Args {
  std::string workload;
  Options options;
  bool trace = false;
  std::string commit = "none";
  std::string source_digest = "none";
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.options.work_dir = ".bench_build/cfbench/work";
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      usage_error("unexpected argument '" + token + "'");
    }
    std::string name = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& flag : kFlags) {
      if (name == flag.name) spec = &flag;
    }
    if (spec == nullptr) usage_error("unknown flag '--" + name + "'");
    if (spec->arg == nullptr) {
      if (has_value) usage_error("--" + name + " takes no value");
      usage(stdout);
      std::exit(0);
    }
    if (!has_value) {
      if (i + 1 >= argc) usage_error("--" + name + " needs a value");
      value = argv[++i];
    }
    if (name == "workload") {
      args.workload = value;
    } else if (name == "seed") {
      args.options.seed = static_cast<std::uint64_t>(
          parse_int(name, value, 0, std::int64_t{1} << 40));
    } else if (name == "seconds") {
      args.options.seconds = static_cast<int>(parse_int(name, value, 1, 600));
    } else if (name == "trace") {
      args.trace = parse_int(name, value, 0, 1) == 1;
    } else if (name == "work-dir") {
      args.options.work_dir = value;
    } else if (name == "commit") {
      args.commit = value;
    } else if (name == "source-digest") {
      args.source_digest = value;
    }
  }
  if (args.workload.empty()) usage_error("--workload is required");
  if (find_workload(args.workload) == nullptr) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    usage_error("unknown workload '" + args.workload + "' (known:" + names +
                ")");
  }
  return args;
}

std::string isa_json() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  bool avx512f = false, amx_tile = false, amx_bf16 = false,
       avx512_bf16 = false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    avx512f = (b >> 16) & 1u;
    amx_bf16 = (d >> 22) & 1u;
    amx_tile = (d >> 24) & 1u;
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d) != 0) {
    avx512_bf16 = (a >> 5) & 1u;
  }
  bool built_avx512f = false, built_avx512_bf16 = false;
#ifdef __AVX512F__
  built_avx512f = true;
#endif
#ifdef __AVX512BF16__
  built_avx512_bf16 = true;
#endif
  const auto flag = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{\"cpu_avx512f\": ";
  out += flag(avx512f);
  out += ", \"cpu_avx512_bf16\": ";
  out += flag(avx512_bf16);
  out += ", \"cpu_amx_tile\": ";
  out += flag(amx_tile);
  out += ", \"cpu_amx_bf16\": ";
  out += flag(amx_bf16);
  out += ", \"built_avx512f\": ";
  out += flag(built_avx512f);
  out += ", \"built_avx512_bf16\": ";
  out += flag(built_avx512_bf16);
  return out + "}";
}

std::string provenance_json(const Args& args, const Workload& w) {
  const std::size_t threads = w.train.stream_threads();
  std::string used;
  if (w.serve) {
    used = "2 workers x " + std::to_string(threads) + " threads";
  } else {
    used = std::to_string(w.train.ranks) + " ranks x " +
           std::to_string(threads) + " threads";
  }
  std::string out = "{\"workload\": " + json_string(w.name);
  out += ", \"seed\": " + std::to_string(args.options.seed);
  out += ", \"seconds\": " + std::to_string(args.options.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"commit\": " + json_string(args.commit);
  out += ", \"source_digest\": " + json_string(args.source_digest);
  out += ", \"nproc\": " +
         std::to_string(cf::runtime::ThreadPool::default_num_threads());
  out += ", \"isa\": " + isa_json();
  out += ", \"threads_used\": " + json_string(used);
  out += ", \"build_type\": " + json_string(CFBENCH_BUILD_TYPE);
  out += ", \"telemetry_compiled\": ";
  out += COSMOFLOW_TELEMETRY_ENABLED ? "\"ON\"" : "\"OFF\"";
  return out + "}";
}

int run(int argc, char** argv, Clock::time_point start) {
  Args args = parse_args(argc, argv);
  args.options.process_start = start;
  const Workload& w = *find_workload(args.workload);
  try {
    check_split(w.train);  // before any generation
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cfbench: invalid configuration: %s\n", e.what());
    return 2;
  }

  // End-to-end numbers are taken with the library tracer off; the
  // traced mode records its own spans around library calls instead.
  cf::obs::Tracer::global().set_enabled(false);

  const std::string base = args.options.work_dir;
  args.options.work_dir =
      base + "/" + w.name + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.options.work_dir);

  Report report;
  SpanLog spans;
  try {
    if (!args.trace) {
      if (w.serve) {
        run_serve_end_to_end(args.options, report);
      } else {
        run_train_end_to_end(w, args.options, report);
      }
      report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      const TrainSpec& spec = w.train;
      cf::runtime::ThreadPool gen_pool(static_cast<std::size_t>(spec.ranks) *
                                       spec.stream_threads());
      TrainData data = make_train_data(spec, args.options.seed,
                                       args.options.work_dir + "/data",
                                       gen_pool, report);
      run_train_traced(spec, args.options, data, report, spans);
      run_bf16_probe(spec, data, args.options.seed, report, spans);
      run_conv_table(spec.stream_threads(), args.options.seed, report,
                     spans);
      run_comm_probe(spec, args.options.seed, report, spans);
      run_data_probe(data, args.options.work_dir, report, spans);
      run_cosmo_probe(spec, args.options.seed, report, spans);
      run_dispatch_probe(spec.stream_threads(), report, spans);
      run_serve_traced(args.options, report, spans);
      const std::string trace_path = base + "/trace-" + w.name + ".json";
      report.gate("trace_written", spans.write_chrome_trace(trace_path),
                  "could not write " + trace_path);
      report.detail("trace_file", trace_path);
    }
  } catch (...) {
    std::filesystem::remove_all(args.options.work_dir);
    throw;
  }
  std::filesystem::remove_all(args.options.work_dir);

  std::printf("%s\n", report.record_json(provenance_json(args, w)).c_str());
  std::printf("%s\n", report.result_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace

std::size_t TrainSpec::stream_threads() const {
  if (threads_per_rank != 0) return threads_per_rank;
  const std::size_t hw = cf::runtime::ThreadPool::default_num_threads();
  return std::max<std::size_t>(1, hw / static_cast<std::size_t>(ranks));
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace cfbench

int main(int argc, char** argv) {
  const auto start = cfbench::Clock::now();
  try {
    return cfbench::run(argc, argv, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: error: %s\n", e.what());
    return 1;
  }
}
