#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace cfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

Tail supported_tail(std::vector<double> values) {
  constexpr std::size_t kBeyond = 10;
  if (values.size() < 2 * kBeyond) return {};
  // Candidate percentiles in descending order; the first that leaves
  // at least kBeyond samples above its nearest rank wins.
  for (const double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.75}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (values.size() - rank >= kBeyond) {
      return {q, percentile(std::move(values), q)};
    }
  }
  return {};
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  // The result line carries numbers only; a non-finite measurement is
  // a defect of the run, not a value.
  gate("finite:" + name, std::isfinite(value),
       "metric " + name + " is not a finite number");
  metrics_.push_back({name, std::isfinite(value) ? value : -1.0, unit});
}

void Report::detail(const std::string& key, double value) {
  details_.emplace_back(key, json_number(value));
}

void Report::detail(const std::string& key, const std::string& value) {
  details_.emplace_back(key, json_string(value));
}

void Report::gate(const std::string& name, bool passed,
                  const std::string& what) {
  if (!passed) {
    ++gates_failed_;
    std::fprintf(stderr, "cfbench: GATE FAILED [%s]: %s\n", name.c_str(),
                 what.c_str());
  }
  // Finite-metric gates are only listed when they fail; a gate checked
  // several times is listed once and passes only if every check did.
  if (passed && name.rfind("finite:", 0) == 0) return;
  for (auto& [gate_name, ok] : gates_) {
    if (gate_name == name) {
      ok = ok && passed;
      return;
    }
  }
  gates_.emplace_back(name, passed);
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

std::string Report::record_json(const std::string& provenance_json) const {
  std::string out = "{\"provenance\": " + provenance_json;
  out += ", \"failed_frac\": " +
         json_number(attempted_ > 0 ? static_cast<double>(failed_) /
                                          static_cast<double>(attempted_)
                                    : 0.0);
  out += ", \"gates\": {";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(gates_[i].first) + ": " +
           (gates_[i].second ? "true" : "false");
  }
  out += "}, \"details\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(details_[i].first) + ": " + details_[i].second;
  }
  return out + "}}";
}

int SpanLog::begin(std::string name, std::uint64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = seconds_between(epoch_, Clock::now());
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), op, parent, now, now});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(epoch_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanLog::add(std::string name, std::uint64_t op, int parent,
                 Clock::time_point start, Clock::time_point end) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), op, parent,
                    seconds_between(epoch_, start),
                    seconds_between(epoch_, end)});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  return id;
}

double SpanLog::self_seconds(std::size_t i) const {
  const Span& span = spans_[i];
  std::vector<std::pair<double, double>> covered;
  for (const int c : children_[i]) {
    const Span& child = spans_[static_cast<std::size_t>(c)];
    const double lo = std::max(child.start, span.start);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = span.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end - span.start) - busy;
}

std::vector<double> SpanLog::seconds_of(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::size_t root = i;
    while (spans_[root].parent >= 0) {
      root = static_cast<std::size_t>(spans_[root].parent);
    }
    if (i > 0) out << ",";
    out << "\n{\"name\": " << json_string(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << json_string(spans_[root].name)
        << ", \"ts\": " << json_number(span.start * 1e6)
        << ", \"dur\": " << json_number((span.end - span.start) * 1e6)
        << ", \"args\": {\"op\": " << span.op
        << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace cfbench
