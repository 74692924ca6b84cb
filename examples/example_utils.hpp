// Shared helpers for the example executables: a tiny --flag=value
// parser and an ASCII volume renderer (the Fig 1 stand-in).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace cf::examples {

/// Parses --key=value arguments (a bare --key reads as "1"); anything
/// else aborts with usage help. Every get_* call marks its key as
/// known, and reject_unknown() — called once all flags are read —
/// throws for any flag no read asked for, so a typo such as --epoch
/// fails instead of being ignored.
class Flags {
 public:
  Flags(int argc, char** argv, const std::string& usage) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        std::fprintf(stderr, "unexpected argument '%s'\n%s\n", argv[i],
                     usage.c_str());
        std::exit(2);
      }
      const std::string_view body = arg.substr(2);
      const std::size_t eq = body.find('=');
      const std::string_view key = body.substr(0, eq);
      const std::string_view value =
          eq == std::string_view::npos ? "1" : body.substr(eq + 1);
      values_.insert_or_assign(std::string(key),
                               Entry{std::string(value), false});
    }
  }

  /// Numeric reads throw std::invalid_argument naming the flag and its
  /// value when the value is not a number or carries trailing
  /// characters (`--epochs=3x`).
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return parse(key, fallback, "an integer",
                 [](const std::string& v, std::size_t* end) {
                   return static_cast<std::int64_t>(std::stoll(v, end));
                 });
  }

  double get_double(const std::string& key, double fallback) const {
    return parse(key, fallback, "a number",
                 [](const std::string& v, std::size_t* end) {
                   return std::stod(v, end);
                 });
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const Entry* entry = find(key);
    return entry == nullptr ? fallback : entry->value;
  }

  /// Throws std::invalid_argument("unknown flag --KEY") for the first
  /// given flag (in key order) that no get_* call read.
  void reject_unknown() const {
    for (const auto& [key, entry] : values_) {
      if (!entry.read) throw std::invalid_argument("unknown flag --" + key);
    }
  }

 private:
  struct Entry {
    std::string value;
    mutable bool read = false;
  };

  const Entry* find(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    it->second.read = true;
    return &it->second;
  }

  template <class T, class Parse>
  T parse(const std::string& key, T fallback, const char* what,
          Parse parse_value) const {
    const Entry* entry = find(key);
    if (entry == nullptr) return fallback;
    std::size_t end = 0;
    try {
      const T value = parse_value(entry->value, &end);
      if (end == entry->value.size()) return value;
    } catch (const std::logic_error&) {
      // out of range or no digits: reported below
    }
    throw std::invalid_argument("--" + key + "=" + entry->value +
                                ": expected " + what);
  }

  std::map<std::string, Entry> values_;
};

/// Renders a depth-projected {1, D, H, W} volume as ASCII art — the
/// terminal's version of the paper's Fig 1 sub-volume rendering.
inline void render_volume_ascii(const tensor::Tensor& volume) {
  const std::int64_t d = volume.shape()[1];
  const std::int64_t h = volume.shape()[2];
  const std::int64_t w = volume.shape()[3];
  const char* shades = " .:-=+*#%@";
  float max_column = 1e-6f;
  std::vector<float> projected(static_cast<std::size_t>(h * w), 0.0f);
  for (std::int64_t z = 0; z < d; ++z) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        projected[static_cast<std::size_t>(y * w + x)] +=
            volume.at({0, z, y, x});
      }
    }
  }
  for (const float v : projected) max_column = std::max(max_column, v);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const float v = projected[static_cast<std::size_t>(y * w + x)];
      const int shade = std::min(
          9, static_cast<int>(v / max_column * 9.999f));
      std::putchar(shades[shade]);
      std::putchar(shades[shade]);  // square-ish aspect ratio
    }
    std::putchar('\n');
  }
}

}  // namespace cf::examples
