// trace-swf: an archive-shaped workload replayed with EASY backfilling.
// generate_swf_workload synthesizes the jobs, write_swf turns them into SWF
// text in memory, and parse_swf of that text is the set-up. The replay
// (replay_trace) uses the engine differently from dag-layered: it is
// driven by release events, ingests through the generic batch path, has
// no precedence or criticality work, and spends much of its time in
// EASY's select(). A change that speeds the DAG loop but costs arrivals
// shows here.
#include <algorithm>
#include <span>
#include <sstream>

#include "analysis/flow_metrics.hpp"
#include "instances/trace.hpp"
#include "sched/backfill.hpp"
#include "sim/validate.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace catbatch;

constexpr int kProcs = 256;
constexpr double kLoad = 0.85;

TraceWorkload parse(const std::string& text) {
  std::istringstream in(text);
  return parse_swf(in);
}

/// Lb for jobs with release times: max(A/P, max_i(submit_i + run_i)).
double lower_bound(const TraceWorkload& trace) {
  double area = 0.0;
  double latest = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    area += trace.run[i] * std::min(trace.procs[i], kProcs);
    latest = std::max(latest, trace.submit[i] + trace.run[i]);
  }
  return std::max(area / kProcs, latest);
}

/// Called after peak RSS was read: builds the independent-task graph the
/// validator needs and materializes the schedule rows.
void check_result(const TraceWorkload& trace, const SimResult& result,
                  Report& report, Values& e2e) {
  report.check(result.schedule.size() == trace.size(),
               "trace-swf: schedule does not cover every job");
  TaskGraph graph;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (void)graph.add_task(trace.run[i], std::min(trace.procs[i], kProcs));
  }
  const std::optional<std::string> violation = validate_schedule(
      graph, result.schedule, kProcs,
      ValidationOptions{.check_processor_sets = false});
  report.check(!violation.has_value(),
               "trace-swf: invalid schedule: " + violation.value_or(""));
  std::size_t early = 0;
  for (const ScheduledTask& entry : result.schedule.entries()) {
    if (entry.start < trace.submit[entry.id]) ++early;
  }
  report.check(early == 0, "trace-swf: a job started before its release");
  const FlowMetrics flow = compute_flow_metrics(
      std::span<const Time>(trace.run.data(), trace.run.size()), result);
  e2e["makespan_over_lb"] = result.makespan / lower_bound(trace);
  e2e["mean_stretch"] = flow.mean_stretch;
  report.deterministic("makespan_over_lb", e2e["makespan_over_lb"]);
  report.deterministic("mean_stretch", flow.mean_stretch);
  report.deterministic("makespan", result.makespan);
}

/// SessionEngine::submit over the same chunked batches replay_trace builds
/// — the ingest share of a replay, which replay_trace does not expose.
double ingest_probe(const TraceWorkload& trace) {
  EasyBackfill scheduler;
  const TraceReplayOptions defaults;
  SessionEngine engine(scheduler, kProcs,
                       SessionOptions{}.with_mode(defaults.mode));
  double total = 0.0;
  for (std::size_t base = 0; base < trace.size(); base += defaults.chunk) {
    const std::size_t end = std::min(trace.size(), base + defaults.chunk);
    std::vector<SourceTask> batch(end - base);
    for (std::size_t i = base; i < end; ++i) {
      SourceTask& task = batch[i - base];
      task.work = trace.run[i];
      task.declared_work = trace.walltime[i];
      task.procs = std::min(trace.procs[i], kProcs);
      task.release = trace.submit[i];
    }
    const Clock::time_point t0 = Clock::now();
    (void)engine.submit(std::move(batch), 0.0);
    total += seconds_since(t0);
  }
  return total;
}

void run_untraced(const Config& config, const std::string& text,
                  std::size_t jobs, Report& report, WorkloadOutput& out) {
  TraceWorkload trace;
  std::vector<double> setup_s;
  std::vector<double> call_s;
  SimResult first;
  std::uint64_t first_fp = 0;
  const Clock::time_point deadline = deadline_after(config.seconds);
  // Every repetition parses and replays once, so both kinds of sample
  // spread over the whole window. Repetition 0 warms caches and the
  // allocator: checked, not timed.
  for (std::size_t rep = 0; !window_done(deadline, rep, 4); ++rep) {
    trace = TraceWorkload{};
    Clock::time_point t0 = Clock::now();
    trace = parse(text);
    const double setup = seconds_since(t0);
    EasyBackfill scheduler;
    t0 = Clock::now();
    SimResult result = replay_trace(trace, scheduler, kProcs);
    const double call = seconds_since(t0);
    if (rep > 0) {
      setup_s.push_back(setup);
      call_s.push_back(call);
    }
    const std::uint64_t fp = result_fingerprint(result);
    if (rep == 0) {
      first_fp = fp;
      first = std::move(result);
    } else {
      report.check(fp == first_fp,
                   "trace-swf: repeated replay_trace() differs from the first");
    }
  }
  out.e2e["peak_rss_mib"] = peak_rss_mib();  // before validation
  report.check(trace.size() == jobs && trace.dropped == 0,
               "trace-swf: parse_swf lost jobs of the generated trace");
  check_result(trace, first, report, out.e2e);
  report.deterministic("result_fingerprint", std::to_string(first_fp));
  put_batch_e2e(trace.size(), call_s, setup_s, report, out.e2e);
}

void run_traced(const Config& config, const std::string& text,
                std::size_t jobs, Report& report, Tracer& tracer,
                WorkloadOutput& out) {
  const TraceWorkload trace = parse(text);
  report.check(trace.size() == jobs && trace.dropped == 0,
               "trace-swf: parse_swf lost jobs of the generated trace");
  std::vector<Values> reps;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_wall = 0.0;
  SimResult first;
  std::uint64_t first_fp = 0;
  const Clock::time_point deadline = deadline_after(config.seconds);
  for (std::size_t rep = 0; !window_done(deadline, rep, 2); ++rep) {
    {  // untraced twin of the traced replay, for trace.overhead_ratio
      EasyBackfill scheduler;
      const Clock::time_point t0 = Clock::now();
      const SimResult twin = replay_trace(trace, scheduler, kProcs);
      untraced_s.push_back(seconds_since(t0));
    }
    Values v;
    const Clock::time_point rep_t0 = Clock::now();
    {
      Scope s(tracer, "instances.swf_parse");
      const TraceWorkload reparsed = parse(text);
      v["instances.swf_parse_s"] = s.close();
    }
    v["instances.swf_parse_mb_per_s"] =
        static_cast<double>(text.size()) / 1e6 / v["instances.swf_parse_s"];
    {
      Scope s(tracer, "sim.ingest_probe");
      v["sim.ingest_s"] = ingest_probe(trace);
    }
    EasyBackfill inner;
    TimedScheduler scheduler(inner, tracer);
    SimResult result;
    {
      Scope s(tracer, "sim.replay");
      result = replay_trace(trace, scheduler, kProcs);
      v["sim.loop_s"] = s.close();
    }
    traced_wall += seconds_since(rep_t0);
    traced_s.push_back(v["sim.loop_s"]);
    put_sim_layers(result.stats,
                   v["sim.loop_s"] -
                       static_cast<double>(scheduler.totals().total_ns()) *
                           1e-9,
                   v);
    put_sched_layers(scheduler.totals(), v);
    reps.push_back(v);

    const std::uint64_t fp = result_fingerprint(result);
    if (rep == 0) {
      first_fp = fp;
      first = std::move(result);
      report.deterministic("sim.events", v["sim.events"]);
      report.deterministic("sched.select_calls", v["sched.select_calls"]);
    } else {
      report.check(fp == first_fp &&
                       v["sched.select_calls"] ==
                           reps.front().at("sched.select_calls"),
                   "trace-swf: traced repetition differs from the first");
    }
  }
  check_result(trace, first, report, out.e2e);
  report.deterministic("result_fingerprint", std::to_string(first_fp));
  out.layers = median_values(reps);
  out.layers["trace.coverage_ratio"] = tracer.top_level_seconds() / traced_wall;
  out.layers["trace.overhead_ratio"] = median(traced_s) / median(untraced_s);
  report.info("traced_reps", static_cast<double>(reps.size()));
}

}  // namespace

void run_trace_swf(const Config& config, Report& report, Tracer& tracer,
                   WorkloadOutput& out) {
  const std::size_t jobs = config.smoke ? 2000 : 200000;
  std::string text;
  {
    Rng rng(config.seed);
    const TraceWorkload generated =
        generate_swf_workload(rng, jobs, kProcs, kLoad);
    std::ostringstream swf;
    write_swf(generated, swf);
    text = std::move(swf).str();
  }
  report.info("jobs", static_cast<double>(jobs));
  report.info("procs", kProcs);
  report.info("swf_bytes", static_cast<double>(text.size()));
  if (config.trace) {
    run_traced(config, text, jobs, report, tracer, out);
  } else {
    run_untraced(config, text, jobs, report, out);
  }
}

}  // namespace perfbench
