// dag-layered: the paper's algorithm on the engine's headline path.
// CatBatch in Counting mode on a ~1M-task layered DAG (the
// huge_layered_soa recipe, 32 processors) through simulate(SoaSource) —
// the ingest_soa path. The working set (32-byte task records, CSR
// adjacency, schedule columns) is tens of MiB, far above L2, and the
// event loop plus the scheduler callbacks do nearly all the work; the
// service layer and the trace parsers do none.
#include <algorithm>
#include <span>

#include "analysis/flow_metrics.hpp"
#include "core/soa_graph.hpp"
#include "instances/streaming.hpp"
#include "sched/catbatch_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace catbatch;

constexpr int kProcs = 32;

/// The program-side preparation before the first decision: every task
/// through StreamingGraphBuilder::add_task, then finish() (validation,
/// successor CSR, levels). `freeze_s` receives the finish() share.
SoaGraph build_graph(const SoaGraph& input, Tracer& tracer,
                     double* freeze_s) {
  StreamingGraphBuilder builder(input.size());
  {
    Scope add(tracer, "instances.add_tasks");
    for (TaskId id = 0; id < input.size(); ++id) {
      (void)builder.add_task(input.work[id], input.procs[id],
                             input.predecessors(id));
    }
  }
  Scope freeze(tracer, "core.freeze");
  SoaGraph graph = builder.finish();
  const double dt = freeze.close();
  if (freeze_s != nullptr) *freeze_s = dt;
  return graph;
}

const SessionOptions kCounting =
    SessionOptions{}.with_mode(ScheduleMode::Counting);

/// Correctness and quality of one result; called after peak RSS was read,
/// because validation materializes a TaskGraph and the schedule rows.
void check_result(const SoaGraph& graph, const SoaSource& source,
                  const SimResult& result, Report& report, Values& e2e) {
  report.check(result.schedule.size() == graph.size(),
               "dag-layered: schedule does not cover every task");
  const std::optional<std::string> violation = validate_schedule(
      source.realized_graph(), result.schedule, kProcs,
      ValidationOptions{.check_processor_sets = false});
  report.check(!violation.has_value(),
               "dag-layered: invalid schedule: " + violation.value_or(""));
  const double lb = compute_bounds(graph, kProcs).lower_bound();
  const FlowMetrics flow = compute_flow_metrics(
      std::span<const Time>(graph.work.data(), graph.work.size()), result);
  e2e["makespan_over_lb"] = result.makespan / lb;
  e2e["mean_stretch"] = flow.mean_stretch;
  report.deterministic("makespan_over_lb", e2e["makespan_over_lb"]);
  report.deterministic("mean_stretch", flow.mean_stretch);
  report.deterministic("makespan", result.makespan);
}

void run_untraced(const Config& config, const SoaGraph& input,
                  Report& report, WorkloadOutput& out) {
  Tracer off(false, config.workload);
  SoaGraph graph;
  std::vector<double> setup_s;
  std::vector<double> call_s;
  SimResult first;
  std::uint64_t first_fp = 0;
  const Clock::time_point deadline = deadline_after(config.seconds);
  // Every repetition sets up and simulates once, so both kinds of sample
  // spread over the whole window. Repetition 0 warms caches and the
  // allocator: checked, not timed.
  for (std::size_t rep = 0; !window_done(deadline, rep, 4); ++rep) {
    graph = SoaGraph{};
    Clock::time_point t0 = Clock::now();
    graph = build_graph(input, off, nullptr);
    const double setup = seconds_since(t0);
    SoaSource run_source(graph);
    CatBatchScheduler scheduler;
    t0 = Clock::now();
    SimResult result = simulate(run_source, scheduler, kProcs, kCounting);
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
                   "dag-layered: repeated simulate() differs from the first");
    }
  }
  out.e2e["peak_rss_mib"] = peak_rss_mib();  // before validation
  const SoaSource source(graph);
  check_result(graph, source, first, report, out.e2e);
  report.deterministic("result_fingerprint", std::to_string(first_fp));
  put_batch_e2e(graph.size(), call_s, setup_s, report, out.e2e);
}

void run_traced(const Config& config, const SoaGraph& input, Report& report,
                Tracer& tracer, WorkloadOutput& out) {
  Tracer off(false, config.workload);
  const SoaGraph graph = build_graph(input, off, nullptr);
  const SoaSource source(graph);

  std::vector<Values> reps;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_wall = 0.0;
  SimResult first;
  std::uint64_t first_fp = 0;
  const Clock::time_point deadline = deadline_after(config.seconds);
  for (std::size_t rep = 0; !window_done(deadline, rep, 2); ++rep) {
    {  // untraced twin of the traced simulation, for trace.overhead_ratio
      SoaSource run_source(graph);
      CatBatchScheduler scheduler;
      const Clock::time_point t0 = Clock::now();
      const SimResult result =
          simulate(run_source, scheduler, kProcs, kCounting);
      untraced_s.push_back(seconds_since(t0));
    }
    Values v;
    const Clock::time_point rep_t0 = Clock::now();
    const SoaGraph g = build_graph(input, tracer, &v["core.freeze_s"]);
    CriticalityArrays crit;
    {
      Scope s(tracer, "core.criticality");
      crit = compute_criticalities(g, ParallelOptions{});
      v["core.criticality_s"] = s.close();
    }
    {
      Scope s(tracer, "core.category");
      const std::vector<Category> categories = compute_categories(g, crit);
      v["core.category_s"] = s.close();
    }
    SoaSource run_source(g);
    CatBatchScheduler inner;
    TimedScheduler scheduler(inner, tracer);
    SessionEngine engine(scheduler, kProcs, kCounting);
    {
      Scope s(tracer, "sim.ingest");
      (void)engine.submit(run_source);
      v["sim.ingest_s"] = s.close();
    }
    const std::int64_t sched_before = scheduler.totals().total_ns();
    {
      Scope s(tracer, "sim.loop");
      engine.drain();
      v["sim.loop_s"] = s.close();
    }
    const double sched_in_loop =
        static_cast<double>(scheduler.totals().total_ns() - sched_before) *
        1e-9;
    SimResult result;
    double finish_s = 0.0;
    {
      Scope s(tracer, "sim.finish");
      result = engine.finish();
      finish_s = s.close();
    }
    traced_wall += seconds_since(rep_t0);
    traced_s.push_back(v["sim.ingest_s"] + v["sim.loop_s"] + finish_s);
    put_sim_layers(result.stats, v["sim.loop_s"] - sched_in_loop, v);
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
                   "dag-layered: traced repetition differs from the first");
    }
  }
  check_result(graph, source, first, report, out.e2e);
  report.deterministic("result_fingerprint", std::to_string(first_fp));
  out.layers = median_values(reps);
  out.layers["trace.coverage_ratio"] = tracer.top_level_seconds() / traced_wall;
  out.layers["trace.overhead_ratio"] = median(traced_s) / median(untraced_s);
  report.info("traced_reps", static_cast<double>(reps.size()));
}

}  // namespace

void run_dag_layered(const Config& config, Report& report, Tracer& tracer,
                     WorkloadOutput& out) {
  const std::size_t tasks = config.smoke ? 3000 : 1000000;
  Rng rng(config.seed);
  RandomTaskParams params;
  params.procs.max_procs = kProcs;
  const SoaGraph input = huge_layered_soa(
      rng, tasks, std::max<std::size_t>(2, tasks / 16), params);
  report.info("tasks", static_cast<double>(tasks));
  report.info("procs", kProcs);
  if (config.trace) {
    run_traced(config, input, report, tracer, out);
  } else {
    run_untraced(config, input, report, out);
  }
}

}  // namespace perfbench
