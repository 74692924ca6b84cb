// Workload definitions and the entry points of the cfbench binary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "data/dataset.hpp"
#include "report.hpp"
#include "runtime/thread_pool.hpp"

namespace cfbench {

/// A training configuration and the data set-up that feeds it.
struct TrainSpec {
  cf::core::TopologyConfig topology;
  int ranks = 1;
  /// Intra-op threads per rank; 0 = the trainer's cost-model auto mode.
  std::size_t threads_per_rank = 0;
  int epochs = 1;
  // Data: `sims` ZA boxes of voxels^3 (split into 8 sub-volumes each)
  // on a grid^3 particle lattice; `val_sims` whole boxes are held out.
  std::size_t sims = 2;
  std::size_t val_sims = 1;
  std::int64_t grid = 64;
  double box_size = 128.0;
  std::int64_t voxels = 64;
  std::size_t samples_per_shard = 8;

  /// Threads one rank's pool really runs with (auto resolved).
  std::size_t stream_threads() const;
};

struct Workload {
  std::string name;
  TrainSpec train;  // serve-32 uses it for its traced training probe
  bool serve = false;
};

/// Looks a workload up by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Per-run options shared by every mode.
struct Options {
  std::uint64_t seed = 1;
  int seconds = 10;
  std::string work_dir;  // scratch space for shards and traces
  Clock::time_point process_start;
};

/// Set-up repetitions whose median is `setup_s`.
inline constexpr int kSetupRepeats = 3;

// --- training (train.cpp) --------------------------------------------
/// Shards written by one training set-up.
struct TrainData {
  std::string dir;
  std::unique_ptr<cf::data::CfrecordSource> train;
  std::unique_ptr<cf::data::CfrecordSource> val;
};

/// Rejects a spec whose split would leave train or val empty; the
/// benchmark calls it before anything is generated.
void check_split(const TrainSpec& spec);

/// Generates the boxes, writes the shards, reopens them and checks the
/// read-back bytes against the generated samples (a correctness gate).
/// The spec must have passed check_split.
TrainData make_train_data(const TrainSpec& spec, std::uint64_t seed,
                          const std::string& dir,
                          cf::runtime::ThreadPool& pool, Report& report);

void run_train_end_to_end(const Workload& w, const Options& opt,
                          Report& report);
/// Untraced trainer runs (the reference step time), then the traced
/// replay of the same step from public pieces, reconciled against it.
void run_train_traced(const TrainSpec& spec, const Options& opt,
                      const TrainData& data, Report& report, SpanLog& spans);

// --- serving (serve.cpp) ---------------------------------------------
void run_serve_end_to_end(const Options& opt, Report& report);
/// The low and high rungs with per-request timings; every workload's
/// traced run reports them.
void run_serve_traced(const Options& opt, Report& report, SpanLog& spans);

// --- standalone layer probes (layers.cpp) -----------------------------
/// Per-layer table of the canonical 128^3 network at `threads`.
void run_conv_table(std::size_t threads, std::uint64_t seed, Report& report,
                    SpanLog& spans);
void run_cosmo_probe(const TrainSpec& spec, std::uint64_t seed,
                     Report& report, SpanLog& spans);
void run_data_probe(const TrainData& data, const std::string& dir,
                    Report& report, SpanLog& spans);
void run_comm_probe(const TrainSpec& spec, std::uint64_t seed,
                    Report& report, SpanLog& spans);
void run_dispatch_probe(std::size_t threads, Report& report, SpanLog& spans);
void run_bf16_probe(const TrainSpec& spec, const TrainData& data,
                    std::uint64_t seed, Report& report, SpanLog& spans);

double peak_rss_mb();

}  // namespace cfbench
