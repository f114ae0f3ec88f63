// perfbench_workloads: runs one benchmark workload in this process and
// prints one JSON document (metrics, deterministic outputs, checks) as its
// last stdout line. perfbench/run.py builds and drives it; see
// perfbench/README.md for the metrics and the workloads.
//
//   perfbench_workloads --workload dag-layered|trace-swf|svc-ext
//                       --seed N --seconds S --trace 0|1
//                       [--smoke] [--chrome FILE] [--socket-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing at all;
// --trace 1 is the separate traced run that produces the per-layer split
// (and never an end-to-end number). --smoke runs tiny sizes for a fraction
// of a second with every correctness check — fast enough for sanitizers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tasks_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"makespan_over_lb", "ratio"},
    {"mean_stretch", "ratio"},
    {"ok_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"instances.swf_parse_s", "s"},
    {"instances.swf_parse_mb_per_s", "MB/s"},
    {"core.freeze_s", "s"},
    {"core.criticality_s", "s"},
    {"core.category_s", "s"},
    {"sim.ingest_s", "s"},
    {"sim.loop_s", "s"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.decision_points", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sched.select_calls", "count"},
    {"sched.select_s", "s"},
    {"sched.useful_select_ratio", "ratio"},
    {"sched.ready_s", "s"},
    {"sched.finished_s", "s"},
    {"service.requests", "count"},
    {"service.bytes_in", "bytes"},
    {"service.bytes_out", "bytes"},
    {"service.error_replies", "count"},
    {"service.hub_s", "s"},
    {"service.transport_s", "s"},
    {"service.parse_s", "s"},
    {"service.engine_s", "s"},
    {"trace.coverage_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dag-layered|trace-swf|svc-ext --seed N "
               "--seconds S --trace 0|1 [--smoke] [--chrome FILE] "
               "[--socket-dir DIR]\n",
               argv0);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = next();
    } else if (arg == "--seed") {
      const char* text = next();
      config.seed = std::strtoull(text, &end, 10);
      if (*text == '\0' || *end != '\0') usage(argv[0]);
    } else if (arg == "--seconds") {
      const char* text = next();
      config.seconds = std::strtod(text, &end);
      if (*end != '\0' || !(config.seconds > 0.0)) usage(argv[0]);
    } else if (arg == "--trace") {
      const std::string_view v = next();
      if (v != "0" && v != "1") usage(argv[0]);
      config.trace = v == "1";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--chrome") {
      config.chrome_path = next();
    } else if (arg == "--socket-dir") {
      config.socket_dir = next();
    } else {
      usage(argv[0]);
    }
  }
  if (config.workload != "dag-layered" && config.workload != "trace-swf" &&
      config.workload != "svc-ext") {
    usage(argv[0]);
  }
  if (config.smoke) config.seconds = std::min(config.seconds, 0.2);
  return config;
}

}  // namespace

void put_sim_layers(const catbatch::SimStats& stats, double self_s,
                    Values& layers) {
  const auto events = static_cast<double>(stats.events);
  layers["sim.self_s"] = self_s;
  layers["sim.events"] = events;
  layers["sim.decision_points"] = static_cast<double>(stats.decision_points);
  layers["sim.self_ns_per_event"] = self_s * 1e9 / std::max(1.0, events);
}

void put_sched_layers(const SchedTotals& totals, Values& layers) {
  layers["sched.select_calls"] = static_cast<double>(totals.select_calls);
  layers["sched.select_s"] = static_cast<double>(totals.select_ns) * 1e-9;
  layers["sched.useful_select_ratio"] =
      totals.select_calls == 0
          ? 0.0
          : static_cast<double>(totals.useful_selects) /
                static_cast<double>(totals.select_calls);
  layers["sched.ready_s"] = static_cast<double>(totals.ready_ns) * 1e-9;
  layers["sched.finished_s"] = static_cast<double>(totals.finished_ns) * 1e-9;
}

void put_batch_e2e(std::size_t tasks, const std::vector<double>& call_s,
                   const std::vector<double>& setup_s, Report& report,
                   Values& e2e) {
  e2e["setup_s"] = median(setup_s);
  e2e["tasks_per_s"] = static_cast<double>(tasks) /
                       *std::min_element(call_s.begin(), call_s.end());
  report.report_only("request_p50_us", median(call_s) * 1e6, "us");
  report.report_only("request_p99_us", percentile(call_s, 99) * 1e6, "us");
  report.info("requests", static_cast<double>(call_s.size()));
  report.info("setup_samples", static_cast<double>(setup_s.size()));
}

Values median_values(const std::vector<Values>& reps) {
  Values out;
  if (reps.empty()) return out;
  for (const auto& [key, unused] : reps.front()) {
    std::vector<double> samples;
    for (const Values& rep : reps) {
      const auto it = rep.find(key);
      if (it != rep.end()) samples.push_back(it->second);
    }
    out[key] = median(std::move(samples));
  }
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Config config = parse_args(argc, argv);
  Report report;
  Tracer tracer(config.trace, config.workload);
  WorkloadOutput out;
  try {
    if (config.workload == "dag-layered") {
      run_dag_layered(config, report, tracer, out);
    } else if (config.workload == "trace-swf") {
      run_trace_swf(config, report, tracer, out);
    } else {
      run_svc_ext(config, report, tracer, out);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string(config.workload) + ": " + e.what());
  }

  if (!config.trace) {
    for (const MetricDef& m : kEndToEnd) {
      if (std::string_view(m.name) == "ok_ratio") continue;
      const auto it = out.e2e.find(m.name);
      report.check(it != out.e2e.end(),
                   std::string("missing end-to-end metric ") + m.name);
      report.metric(m.name, it == out.e2e.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    // Layers a workload does not exercise report 0 (see README.md).
    for (const MetricDef& m : kPerLayer) {
      const auto it = out.layers.find(m.name);
      report.metric(m.name, it == out.layers.end() ? 0.0 : it->second,
                    m.unit);
    }
    report.info("dropped_callback_spans",
                static_cast<double>(tracer.dropped()));
    report.check(tracer.write_chrome(config.chrome_path),
                 "cannot write the Chrome trace to " + config.chrome_path);
  }
  std::printf("%s\n", report.json(config).c_str());
  return report.failed() == 0 ? 0 : 1;
}
