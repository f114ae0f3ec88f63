// The three workloads. Each fills `e2e` (untraced run) or `layers` (traced
// run) by metric name; main.cpp publishes them against the fixed metric
// lists in metrics.hpp.
#pragma once

#include <map>
#include <vector>
#include <string>

#include "common.hpp"
#include "sim/session.hpp"
#include "spans.hpp"

namespace perfbench {

using Values = std::map<std::string, double>;

struct WorkloadOutput {
  Values e2e;
  Values layers;
};

void run_dag_layered(const Config& config, Report& report, Tracer& tracer,
                     WorkloadOutput& out);
void run_trace_swf(const Config& config, Report& report, Tracer& tracer,
                   WorkloadOutput& out);
void run_svc_ext(const Config& config, Report& report, Tracer& tracer,
                 WorkloadOutput& out);

/// Fills sim.self_s, sim.events, sim.decision_points and
/// sim.self_ns_per_event.
void put_sim_layers(const catbatch::SimStats& stats, double self_s,
                    Values& layers);

/// Fills the sched.* layer values from one run's wrapper totals.
void put_sched_layers(const SchedTotals& totals, Values& layers);

/// End-to-end values of a batch workload from its timed repetitions:
/// setup_s is the median set-up, tasks_per_s the throughput of the
/// fastest call; the per-call latency percentiles are report-only.
void put_batch_e2e(std::size_t tasks, const std::vector<double>& call_s,
                   const std::vector<double>& setup_s, Report& report,
                   Values& e2e);

/// Per-key median over repetitions (keys of the first repetition).
[[nodiscard]] Values median_values(const std::vector<Values>& reps);

/// True when `deadline` has passed and at least `min_reps` ran.
[[nodiscard]] inline bool window_done(Clock::time_point deadline,
                                      std::size_t reps, std::size_t min_reps) {
  return reps >= min_reps && Clock::now() >= deadline;
}

[[nodiscard]] inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace perfbench
