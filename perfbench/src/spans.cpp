#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

Tracer::Tracer(bool enabled, std::string workload,
               std::size_t callback_span_cap)
    : enabled_(enabled),
      workload_(std::move(workload)),
      callback_cap_(callback_span_cap),
      epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(callback_cap_ + 1024);
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), -1, parent, 1});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  if (!enabled_ || id < 0) return 0.0;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void Tracer::callback(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, int tid) {
  if (!enabled_) return;
  if (callbacks_ >= callback_cap_) {
    ++dropped_;
    return;
  }
  ++callbacks_;
  spans_.push_back(
      Span{name, start_ns, end_ns, open_.empty() ? -1 : open_.back(), tid});
}

double Tracer::top_level_seconds() const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.end_ns >= 0) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::write_chrome(const std::string& path) const {
  if (path.empty()) return true;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::FILE* f = out.get();
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%s,"
               "\"dropped_callback_spans\":%zu},\"traceEvents\":[\n",
               json_string(workload_).c_str(), dropped_);
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":1,\"args\":{\"name\":%s}}",
               json_string("perfbench " + workload_).c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    // Chrome-trace timestamps are microseconds; keep ns precision.
    const std::string_view name = span.name;
    const std::string_view layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"workload\":%s}}",
                 json_string(name).c_str(), json_string(layer).c_str(),
                 span.tid, static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent, json_string(workload_).c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::ferror(f) == 0;
}

void TimedScheduler::reset() { inner_.reset(); }

void TimedScheduler::instance_hint(std::size_t task_count) {
  inner_.instance_hint(task_count);
}

void TimedScheduler::task_ready(const catbatch::ReadyTask& task,
                                catbatch::Time now) {
  const std::int64_t t0 = tracer_.now_ns();
  inner_.task_ready(task, now);
  const std::int64_t t1 = tracer_.now_ns();
  totals_.ready_ns += t1 - t0;
  ++totals_.ready_calls;
  tracer_.callback("sched.task_ready", t0, t1);
}

void TimedScheduler::task_finished(catbatch::TaskId id, catbatch::Time now) {
  const std::int64_t t0 = tracer_.now_ns();
  inner_.task_finished(id, now);
  const std::int64_t t1 = tracer_.now_ns();
  totals_.finished_ns += t1 - t0;
  ++totals_.finished_calls;
  tracer_.callback("sched.task_finished", t0, t1);
}

void TimedScheduler::task_killed(catbatch::TaskId id, catbatch::Time now) {
  inner_.task_killed(id, now);
}

void TimedScheduler::select(catbatch::Time now, int available_procs,
                            std::vector<catbatch::TaskId>& picks) {
  const std::size_t before = picks.size();
  const std::int64_t t0 = tracer_.now_ns();
  inner_.select(now, available_procs, picks);
  const std::int64_t t1 = tracer_.now_ns();
  totals_.select_ns += t1 - t0;
  ++totals_.select_calls;
  if (picks.size() > before) ++totals_.useful_selects;
  tracer_.callback("sched.select", t0, t1);
}

}  // namespace perfbench
