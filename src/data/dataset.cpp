#include "data/dataset.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>

#include "runtime/rng.hpp"

namespace cf::data {

namespace {

class InMemoryReader final : public SampleReader {
 public:
  explicit InMemoryReader(const std::vector<Sample>& samples)
      : samples_(samples) {}

  Sample get(std::size_t index) override {
    if (index >= samples_.size()) {
      throw std::out_of_range("InMemoryReader: index out of range");
    }
    return samples_[index].clone();
  }

  void get_into(std::size_t index, Sample& out) override {
    if (index >= samples_.size()) {
      throw std::out_of_range("InMemoryReader: index out of range");
    }
    out.copy_from(samples_[index]);
  }

 private:
  const std::vector<Sample>& samples_;
};

}  // namespace

InMemorySource::InMemorySource(std::vector<Sample> samples)
    : samples_(std::move(samples)) {}

std::unique_ptr<SampleReader> InMemorySource::make_reader() const {
  return std::make_unique<InMemoryReader>(samples_);
}

namespace {

class CfrecordReaderImpl final : public SampleReader {
 public:
  CfrecordReaderImpl(
      const std::vector<std::string>* paths,
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>* index,
      const std::vector<std::unique_ptr<RecordReader>>* shared)
      : paths_(paths), index_(index), shared_(shared) {}

  Sample get(std::size_t index) override {
    Sample sample;
    get_into(index, sample);
    return sample;
  }

  void get_into(std::size_t index, Sample& out) override {
    if (index >= index_->size()) {
      throw std::out_of_range("CfrecordReader: index out of range");
    }
    const auto [shard, offset] = (*index_)[index];
    if (!shared_->empty()) {
      // Mapped shard shared across all readers: deserialize straight
      // from the page-cache view, no intermediate payload copy.
      deserialize_sample_into((*shared_)[shard]->view_at(offset), out);
      return;
    }
    RecordReader& reader = open(shard);
    reader.read_at(offset, payload_);
    deserialize_sample_into(payload_, out);
  }

 private:
  RecordReader& open(std::uint32_t shard) {
    auto it = readers_.find(shard);
    if (it == readers_.end()) {
      it = readers_
               .emplace(shard, std::make_unique<RecordReader>(
                                   (*paths_)[shard], ReaderMode::kStream))
               .first;
    }
    return *it->second;
  }

  const std::vector<std::string>* paths_;
  const std::vector<std::pair<std::uint32_t, std::uint64_t>>* index_;
  const std::vector<std::unique_ptr<RecordReader>>* shared_;
  std::unordered_map<std::uint32_t, std::unique_ptr<RecordReader>> readers_;
  std::vector<std::uint8_t> payload_;
};

}  // namespace

CfrecordSource::CfrecordSource(std::vector<std::string> shard_paths,
                               ReaderMode mode)
    : paths_(std::move(shard_paths)) {
  if (paths_.empty()) {
    throw std::invalid_argument("CfrecordSource: no shard paths");
  }
  // One validating scan per shard builds the shared index; the readers
  // opened for the scan are kept (and shared by every SampleReader)
  // when all of them mapped, discarded otherwise so every shard goes
  // through the same code path.
  shared_readers_.reserve(paths_.size());
  bool all_mapped = true;
  for (std::size_t s = 0; s < paths_.size(); ++s) {
    auto reader = std::make_unique<RecordReader>(paths_[s], mode);
    for (const std::uint64_t offset : reader->build_index()) {
      index_.push_back({static_cast<std::uint32_t>(s), offset});
    }
    all_mapped = all_mapped && reader->mapped();
    shared_readers_.push_back(std::move(reader));
  }
  if (!all_mapped) shared_readers_.clear();
}

std::unique_ptr<SampleReader> CfrecordSource::make_reader() const {
  return std::make_unique<CfrecordReaderImpl>(&paths_, &index_,
                                              &shared_readers_);
}

std::vector<std::string> write_shards(const std::vector<Sample>& samples,
                                      const std::string& directory,
                                      const std::string& prefix,
                                      std::size_t samples_per_shard,
                                      std::uint64_t shuffle_seed) {
  if (samples.empty()) {
    throw std::invalid_argument("write_shards: no samples");
  }
  if (samples_per_shard == 0) {
    throw std::invalid_argument("write_shards: samples_per_shard == 0");
  }
  std::filesystem::create_directories(directory);

  // Fisher-Yates shuffle of the sample order.
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  runtime::Rng rng(shuffle_seed, /*stream=*/0x7368617264ULL);  // "shard"
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }

  const std::size_t shards =
      (samples.size() + samples_per_shard - 1) / samples_per_shard;
  std::vector<std::string> paths;
  paths.reserve(shards);
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_%04zu.cfrecord", prefix.c_str(),
                  s);
    const std::string path =
        (std::filesystem::path(directory) / name).string();
    RecordWriter writer(path);
    for (std::size_t i = 0;
         i < samples_per_shard && cursor < samples.size(); ++i, ++cursor) {
      const auto payload = serialize_sample(samples[order[cursor]]);
      writer.write(payload);
    }
    writer.close();
    paths.push_back(path);
  }
  return paths;
}

SplitCounts split_group_counts(std::size_t groups, double val_fraction,
                               double test_fraction) {
  if (val_fraction < 0.0 || test_fraction < 0.0 ||
      val_fraction + test_fraction >= 1.0) {
    throw std::invalid_argument("split_by_group: bad fractions");
  }
  SplitCounts counts;
  counts.val = static_cast<std::size_t>(val_fraction *
                                        static_cast<double>(groups));
  counts.test = static_cast<std::size_t>(test_fraction *
                                         static_cast<double>(groups));
  counts.train = groups - counts.val - counts.test;
  return counts;
}

SplitIndices split_by_group(const std::vector<std::size_t>& groups,
                            double val_fraction, double test_fraction,
                            std::uint64_t seed) {
  std::vector<std::size_t> unique = groups;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const SplitCounts counts =
      split_group_counts(unique.size(), val_fraction, test_fraction);

  runtime::Rng rng(seed, /*stream=*/0x73706C6974ULL);  // "split"
  for (std::size_t i = unique.size(); i > 1; --i) {
    std::swap(unique[i - 1], unique[rng.uniform_index(i)]);
  }

  enum class Bucket : std::uint8_t { kTrain, kVal, kTest };
  std::unordered_map<std::size_t, Bucket> assignment;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    Bucket bucket = Bucket::kTrain;
    if (i < counts.val) {
      bucket = Bucket::kVal;
    } else if (i < counts.val + counts.test) {
      bucket = Bucket::kTest;
    }
    assignment[unique[i]] = bucket;
  }

  SplitIndices split;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    switch (assignment[groups[i]]) {
      case Bucket::kTrain:
        split.train.push_back(i);
        break;
      case Bucket::kVal:
        split.val.push_back(i);
        break;
      case Bucket::kTest:
        split.test.push_back(i);
        break;
    }
  }
  return split;
}

}  // namespace cf::data
