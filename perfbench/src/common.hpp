// Shared plumbing of the workload binary: command line, clocks, order
// statistics, the process high-water mark, exact fingerprints of
// deterministic outputs, and the one JSON document each run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace catbatch {
struct SimResult;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and a short window: shape and correctness checks only.
  bool smoke = false;
  /// Where the traced run writes its Chrome-trace JSON (empty: nowhere).
  std::string chrome_path;
  /// Directory for the svc-ext daemon socket (kept short: AF_UNIX paths
  /// are limited to ~107 bytes).
  std::string socket_dir = ".";
};

/// Median of `v` (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Samples strictly above the nearest-rank percentile `q`.
[[nodiscard]] std::size_t samples_above(const std::vector<double>& v,
                                        double q);

/// getrusage(RUSAGE_SELF) high-water mark of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// FNV-1a over exact bit patterns: equal fingerprints mean equal outputs.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Fingerprint of a simulation result without materializing its
/// schedule rows: makespan, event counts and every task's ready time.
[[nodiscard]] std::uint64_t result_fingerprint(const catbatch::SimResult& r);

/// A tally of checked operations: every failure counts, the first few
/// keep their message.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void check(bool ok, std::string_view what);
};

/// What one workload run reports. `metrics` are what the benchmark
/// publishes; `deterministic` are exact outputs the runner compares
/// across runs of the same seed; `info` is context (sizes, sample counts).
class Report {
 public:
  void metric(std::string_view name, double value, std::string_view unit);
  /// Printed with the metrics but not published (see README.md).
  void report_only(std::string_view name, double value, std::string_view unit);
  void deterministic(std::string_view name, double value);
  void deterministic(std::string_view name, std::string_view value);
  void info(std::string_view name, double value);

  /// One checked operation; `ok == false` records `what` as a failure.
  void check(bool ok, std::string_view what) { checks_.check(ok, what); }
  /// Checks counted elsewhere (another thread's tally), merged here.
  void add_checks(const Checks& checks);
  [[nodiscard]] std::size_t failed() const noexcept { return checks_.failed; }

  [[nodiscard]] std::string json(const Config& config) const;

 private:
  std::vector<std::string> metrics_;
  std::vector<std::string> report_only_;
  std::vector<std::string> deterministic_;
  std::vector<std::string> info_;
  Checks checks_;
};

/// JSON string literal (quotes and escapes included).
[[nodiscard]] std::string json_string(std::string_view s);
/// Shortest round-trip text of a double.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
