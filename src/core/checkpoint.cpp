#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "data/crc32.hpp"

namespace cf::core {

namespace {

constexpr std::uint32_t kMagic = 0x43464B50u;  // "CFKP"
constexpr std::uint32_t kVersion = 1;

}  // namespace

void save_checkpoint(const std::string& path, const std::string& topology,
                     const dnn::Network& network) {
  const std::size_t count = static_cast<std::size_t>(network.param_count());
  std::vector<float> params(count);
  network.copy_params_to(params);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);

  const std::uint32_t name_len = static_cast<std::uint32_t>(topology.size());
  const std::uint64_t param_count = count;
  out.write(reinterpret_cast<const char*>(&kMagic), 4);
  out.write(reinterpret_cast<const char*>(&kVersion), 4);
  out.write(reinterpret_cast<const char*>(&name_len), 4);
  out.write(topology.data(), name_len);
  out.write(reinterpret_cast<const char*>(&param_count), 8);
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
  const std::uint32_t crc = data::crc32c(
      {reinterpret_cast<const std::uint8_t*>(params.data()),
       count * sizeof(float)});
  out.write(reinterpret_cast<const char*>(&crc), 4);
  if (!out) throw std::runtime_error("save_checkpoint: write failed");
}

void load_checkpoint(const std::string& path,
                     const std::string& expected_topology,
                     dnn::Network& network) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);

  std::uint32_t magic = 0, version = 0, name_len = 0;
  in.read(reinterpret_cast<char*>(&magic), 4);
  in.read(reinterpret_cast<char*>(&version), 4);
  in.read(reinterpret_cast<char*>(&name_len), 4);
  if (!in || magic != kMagic || version != kVersion || name_len > 4096) {
    throw std::runtime_error("load_checkpoint: bad header in " + path);
  }
  std::string topology(name_len, '\0');
  in.read(topology.data(), name_len);
  if (topology != expected_topology) {
    throw std::runtime_error("load_checkpoint: topology mismatch: file has '" +
                             topology + "', expected '" + expected_topology +
                             "'");
  }
  std::uint64_t param_count = 0;
  in.read(reinterpret_cast<char*>(&param_count), 8);
  if (param_count != static_cast<std::uint64_t>(network.param_count())) {
    throw std::runtime_error("load_checkpoint: parameter count mismatch");
  }
  std::vector<float> params(param_count);
  in.read(reinterpret_cast<char*>(params.data()),
          static_cast<std::streamsize>(param_count * sizeof(float)));
  std::uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), 4);
  if (!in) throw std::runtime_error("load_checkpoint: truncated " + path);
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw std::runtime_error("load_checkpoint: trailing bytes after the "
                             "checksum in " + path);
  }
  const std::uint32_t crc = data::crc32c(
      {reinterpret_cast<const std::uint8_t*>(params.data()),
       params.size() * sizeof(float)});
  if (crc != stored_crc) {
    throw std::runtime_error("load_checkpoint: checksum mismatch in " +
                             path);
  }
  network.set_params_from(params);
}

}  // namespace cf::core
