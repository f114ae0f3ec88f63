#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/session.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::size_t samples_above(const std::vector<double>& v, double q) {
  const double cut = percentile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Fingerprint::add(std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h_ ^= (v >> (8 * byte)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t result_fingerprint(const catbatch::SimResult& r) {
  Fingerprint fp;
  fp.add(r.makespan);
  fp.add(static_cast<std::uint64_t>(r.stats.task_count));
  fp.add(static_cast<std::uint64_t>(r.stats.events));
  fp.add(static_cast<std::uint64_t>(r.stats.decision_points));
  fp.add(r.stats.busy_area);
  fp.add(static_cast<std::uint64_t>(r.schedule.size()));
  for (const double t : r.ready_times) fp.add(t);
  return fp.value();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::metric(std::string_view name, double value,
                    std::string_view unit) {
  metrics_.push_back(json_string(name) + ":{\"value\":" + json_number(value) +
                     ",\"unit\":" + json_string(unit) + "}");
}

void Report::report_only(std::string_view name, double value,
                         std::string_view unit) {
  report_only_.push_back(json_string(name) + ":{\"value\":" +
                         json_number(value) + ",\"unit\":" +
                         json_string(unit) + "}");
}

void Report::deterministic(std::string_view name, double value) {
  deterministic_.push_back(json_string(name) + ":" + json_number(value));
}

void Report::deterministic(std::string_view name, std::string_view value) {
  deterministic_.push_back(json_string(name) + ":" + json_string(value));
}

void Report::info(std::string_view name, double value) {
  info_.push_back(json_string(name) + ":" + json_number(value));
}

void Checks::check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 20) messages.emplace_back(what);
}

void Report::add_checks(const Checks& checks) {
  checks_.attempted += checks.attempted;
  checks_.failed += checks.failed;
  for (const std::string& m : checks.messages) {
    if (checks_.messages.size() < 20) checks_.messages.push_back(m);
  }
}

namespace {

std::string join_object(const std::vector<std::string>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ',';
    out += members[i];
  }
  return out + "}";
}

}  // namespace

std::string Report::json(const Config& config) const {
  std::string failures = "[";
  for (std::size_t i = 0; i < checks_.messages.size(); ++i) {
    if (i > 0) failures += ',';
    failures += json_string(checks_.messages[i]);
  }
  failures += "]";
  return "{\"workload\":" + json_string(config.workload) +
         ",\"seed\":" + std::to_string(config.seed) +
         ",\"trace\":" + (config.trace ? "true" : "false") +
         ",\"smoke\":" + (config.smoke ? "true" : "false") +
         ",\"attempted\":" + std::to_string(checks_.attempted) +
         ",\"failed\":" + std::to_string(checks_.failed) +
         ",\"failures\":" + failures + ",\"metrics\":" + join_object(metrics_) +
         ",\"report_only\":" + join_object(report_only_) +
         ",\"deterministic\":" + join_object(deterministic_) +
         ",\"info\":" + join_object(info_) +
         ",\"build\":{\"compiler\":" + json_string(__VERSION__) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}}";
}

}  // namespace perfbench
