// Benchmark-side tracing for the per-layer split. Every span is recorded
// here, around calls into the library's public functions — the library's
// own observer hooks stay disabled, so no change to them can move these
// numbers.
//
//   Tracer         — spans (name, start, end, parent, workload) kept in
//                    memory and written at exit as Chrome-trace JSON by
//                    this file's own writer (open it in Perfetto).
//   TimedScheduler — OnlineScheduler wrapper timing select / task_ready /
//                    task_finished of the scheduler it forwards to, and
//                    counting the select calls that started a task.
//
// Sub-microsecond callbacks are far too many to keep as spans on a
// 1M-task run, so callback spans are stored only up to a cap; the
// TimedScheduler totals always cover every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per call.
  Tracer(bool enabled, std::string workload,
         std::size_t callback_span_cap = 100000);

  [[nodiscard]] std::int64_t now_ns() const;

  /// Opens a span as a child of the innermost open span.
  int begin(const char* name);
  /// Closes span `id` (which must be the innermost open span) and returns
  /// its duration in seconds.
  double end(int id);
  /// Records a finished callback span under the innermost open span
  /// (dropped, but counted, past the cap). `tid` separates client threads
  /// in the trace viewer.
  void callback(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int tid = 1);
  /// Converts a time point taken on any thread to this tracer's clock.
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const;

  /// Sum of the durations of spans without a parent.
  [[nodiscard]] double top_level_seconds() const;
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Writes every recorded span as Chrome-trace "X" events. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int tid;
  };

  bool enabled_;
  std::string workload_;
  std::size_t callback_cap_;
  std::size_t callbacks_ = 0;
  std::size_t dropped_ = 0;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span: closes on destruction unless close() was called.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)), t0_(Clock::now()) {}
  ~Scope() {
    if (!closed_) (void)close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span; returns its wall duration in seconds (measured even
  /// when the tracer is disabled).
  double close() {
    closed_ = true;
    tracer_.end(id_);
    return seconds_since(t0_);
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point t0_;
  bool closed_ = false;
};

struct SchedTotals {
  std::uint64_t select_calls = 0;
  std::uint64_t useful_selects = 0;  // calls that started >= 1 task
  std::uint64_t ready_calls = 0;
  std::uint64_t finished_calls = 0;
  std::int64_t select_ns = 0;
  std::int64_t ready_ns = 0;
  std::int64_t finished_ns = 0;

  [[nodiscard]] std::int64_t total_ns() const noexcept {
    return select_ns + ready_ns + finished_ns;
  }

  SchedTotals& operator+=(const SchedTotals& o) noexcept {
    select_calls += o.select_calls;
    useful_selects += o.useful_selects;
    ready_calls += o.ready_calls;
    finished_calls += o.finished_calls;
    select_ns += o.select_ns;
    ready_ns += o.ready_ns;
    finished_ns += o.finished_ns;
    return *this;
  }
};

class TimedScheduler final : public catbatch::OnlineScheduler {
 public:
  TimedScheduler(catbatch::OnlineScheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override;
  void instance_hint(std::size_t task_count) override;
  void task_ready(const catbatch::ReadyTask& task, catbatch::Time now) override;
  void task_finished(catbatch::TaskId id, catbatch::Time now) override;
  void task_killed(catbatch::TaskId id, catbatch::Time now) override;
  void select(catbatch::Time now, int available_procs,
              std::vector<catbatch::TaskId>& picks) override;

  [[nodiscard]] const SchedTotals& totals() const noexcept { return totals_; }

 private:
  catbatch::OnlineScheduler& inner_;
  Tracer& tracer_;
  SchedTotals totals_;
};

}  // namespace perfbench
