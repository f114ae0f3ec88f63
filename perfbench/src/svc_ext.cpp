// svc-ext: catbatchd serving external-clock sessions over AF_UNIX.
// serve_unix runs in this process (jobs=1 plus its reactor thread); two
// client connections, each on its own thread with one request
// outstanding, drive a closed loop of 64-task CatBatch sessions on P=64.
// The client owns the clock: when several tasks run, it completes the one
// with the earliest finish time (ties: earliest dispatch). With the two
// client threads the process uses 4 threads in total. Transport and the
// reactor dominate the round trip, so engine-only changes should not move
// this workload; the service changes on the roadmap should.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/flow_metrics.hpp"
#include "core/bounds.hpp"
#include "sched/registry.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "sim/validate.hpp"
#include "support/json_parse.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace catbatch;

constexpr int kProcs = 64;
constexpr int kTasks = 64;
constexpr int kConnections = 2;
constexpr std::string_view kAlgo = "catbatch";

struct SessionCase {
  std::string name;
  TaskGraph graph;
  std::string open_line;
  std::string submit_line;
  std::string close_line;
  std::vector<Decision> expected;  // the direct SessionEngine drive
  Time makespan = 0.0;
};

TaskGraph make_session_graph(Rng& rng) {
  TaskGraph graph;
  for (int i = 0; i < kTasks; ++i) {
    const Time work = rng.uniform_real(0.5, 8.0);
    const int procs = static_cast<int>(rng.uniform_int(1, 16));
    const TaskId id = graph.add_task(work, procs);
    if (i > 0 && rng.bernoulli(0.6)) {
      const std::int64_t fanin = rng.uniform_int(1, std::min(3, i));
      for (std::int64_t k = 0; k < fanin; ++k) {
        graph.add_edge(static_cast<TaskId>(rng.index(id)), id);
      }
    }
  }
  return graph;
}

std::string submit_line(const std::string& session, const TaskGraph& graph) {
  std::string line = "{\"type\":\"submit\",\"session\":" +
                     json_string(session) + ",\"tasks\":[";
  for (TaskId id = 0; id < graph.size(); ++id) {
    if (id > 0) line += ',';
    line += "{\"work\":" + json_number(graph.task(id).work) +
            ",\"procs\":" + std::to_string(graph.task(id).procs);
    const auto preds = graph.predecessors(id);
    if (!preds.empty()) {
      line += ",\"preds\":[";
      for (std::size_t k = 0; k < preds.size(); ++k) {
        if (k > 0) line += ',';
        line += std::to_string(preds[k]);
      }
      line += ']';
    }
    line += '}';
  }
  return line + "]}";
}

std::string complete_line(const std::string& session, TaskId id, Time at) {
  return "{\"type\":\"complete\",\"session\":" + json_string(session) +
         ",\"task\":" + std::to_string(id) + ",\"at\":" + json_number(at) + "}";
}

/// The client's clock: tracks dispatched-but-unfinished decisions and
/// names the next completion (earliest finish, ties by dispatch order).
class ClientClock {
 public:
  explicit ClientClock(const TaskGraph& graph) : graph_(graph) {}

  void absorb(std::span<const Decision> decisions) {
    got_.insert(got_.end(), decisions.begin(), decisions.end());
    for (; next_ < got_.size(); ++next_) running_.push_back(next_);
  }
  [[nodiscard]] bool done() const { return completed_ == graph_.size(); }
  [[nodiscard]] bool stalled() const { return running_.empty(); }

  /// Removes and returns the next completion (task, finish time).
  std::pair<TaskId, Time> pop() {
    std::size_t best = 0;
    Time best_finish = 0.0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Decision& d = got_[running_[i]];
      const Time finish = d.at + graph_.task(d.id).work;
      if (i == 0 || finish < best_finish) {
        best = i;
        best_finish = finish;
      }
    }
    const TaskId id = got_[running_[best]].id;
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(best));
    ++completed_;
    return {id, best_finish};
  }
  [[nodiscard]] const std::vector<Decision>& decisions() const { return got_; }

 private:
  const TaskGraph& graph_;
  std::vector<Decision> got_;
  std::vector<std::size_t> running_;  // indices into got_, dispatch order
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
};

struct DriveTimes {
  double submit_s = 0.0;
  double advance_s = 0.0;
};

/// The session driven directly on SessionEngine (External clock) with the
/// same client clock — the reference every wire session must equal.
SimResult drive_direct(const TaskGraph& graph, OnlineScheduler& scheduler,
                       std::vector<Decision>& decisions, DriveTimes& times) {
  SessionEngine engine(scheduler, kProcs,
                       SessionOptions{}
                           .with_mode(ScheduleMode::Counting)
                           .with_clock(SessionClock::External));
  std::vector<SourceTask> tasks(graph.size());
  for (TaskId id = 0; id < graph.size(); ++id) {
    tasks[id].work = graph.task(id).work;
    tasks[id].procs = graph.task(id).procs;
    const auto preds = graph.predecessors(id);
    tasks[id].predecessors.assign(preds.begin(), preds.end());
  }
  ClientClock clock(graph);
  Clock::time_point t0 = Clock::now();
  clock.absorb(engine.submit(std::move(tasks), 0.0));
  times.submit_s += seconds_since(t0);
  while (!clock.done() && !clock.stalled()) {
    const auto [id, at] = clock.pop();
    t0 = Clock::now();
    clock.absorb(engine.advance(SessionEvent::completion(id, at)));
    times.advance_s += seconds_since(t0);
  }
  decisions = clock.decisions();
  return engine.finish();
}

bool same_decisions(const std::vector<Decision>& a,
                    const std::vector<Decision>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Decision& x, const Decision& y) {
                      return x.id == y.id && x.procs == y.procs &&
                             std::bit_cast<std::uint64_t>(x.at) ==
                                 std::bit_cast<std::uint64_t>(y.at);
                    });
}

template <class T>
bool field(std::string_view object, std::string_view key, T& value) {
  const std::size_t at = object.find(key);
  if (at == std::string_view::npos) return false;
  const char* first = object.data() + at + key.size();
  return std::from_chars(first, object.data() + object.size(), value).ec ==
         std::errc{};
}

/// Decodes a "decisions" reply. The client's own decoder keeps the
/// library's JSON parser out of the client side of the loop.
bool decode_decisions(std::string_view reply, std::vector<Decision>& out) {
  out.clear();
  if (!reply.starts_with("{\"type\":\"decisions\"")) return false;
  std::size_t pos = reply.find("\"decisions\":[");
  if (pos == std::string_view::npos) return false;
  pos += 13;
  while (pos < reply.size() && reply[pos] != ']') {
    const std::size_t open = reply.find('{', pos);
    const std::size_t close = reply.find('}', pos);
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return false;
    }
    const std::string_view object = reply.substr(open, close - open + 1);
    std::uint64_t id = 0;
    Decision d;
    if (!field(object, "\"task\":", id) || !field(object, "\"at\":", d.at) ||
        !field(object, "\"procs\":", d.procs)) {
      return false;
    }
    d.id = static_cast<TaskId>(id);
    out.push_back(d);
    pos = close + 1;
    if (pos < reply.size() && reply[pos] == ',') ++pos;
  }
  return pos < reply.size();
}

/// Blocking AF_UNIX line client: one request line out, one reply line in.
class UnixClient {
 public:
  UnixClient() = default;
  ~UnixClient() { disconnect(); }
  UnixClient(const UnixClient&) = delete;
  UnixClient& operator=(const UnixClient&) = delete;

  /// One connection attempt.
  bool connect(const std::string& path) {
    disconnect();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      disconnect();
      return false;
    }
    return true;
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    in_.clear();
  }

  bool request(std::string_view line, std::string& reply) {
    out_.assign(line);
    out_ += '\n';
    for (std::size_t sent = 0; sent < out_.size();) {
      const ssize_t n =
          ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        reply.assign(in_, 0, nl);
        in_.erase(0, nl + 1);
        return true;
      }
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      in_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::string in_;
};

/// Per-connection tally, merged into the report after the threads join.
struct Tally {
  std::vector<double> latency_us;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  bool keep_spans = false;
  std::vector<std::string> lines;  // requests sent, when recorded
  bool keep_lines = false;
  std::uint64_t requests = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t tasks = 0;
  std::uint64_t sessions = 0;
  Checks checks;

  void check(bool ok, std::string_view what) { checks.check(ok, what); }
};

/// One timed request over any transport `send(line, reply) -> bool`.
template <class Send>
bool timed_request(Send& send, std::string_view line, std::string& reply,
                   Tally& tally) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = send(line, reply);
  const Clock::time_point t1 = Clock::now();
  tally.latency_us.push_back(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  if (tally.keep_spans) tally.spans.emplace_back(t0, t1);
  if (tally.keep_lines) tally.lines.emplace_back(line);
  ++tally.requests;
  tally.bytes_in += line.size() + 1;
  if (!ok) {
    tally.check(false, "svc-ext: transport failure");
    return false;
  }
  tally.bytes_out += reply.size() + 1;
  if (reply.starts_with("{\"type\":\"error\"")) {
    ++tally.error_replies;
    tally.check(false, "svc-ext: error reply: " + reply.substr(0, 200));
    return false;
  }
  tally.check(true, {});
  return true;
}

/// One session through the wire protocol, checked against its reference.
template <class Send>
bool run_session(const SessionCase& c, Send& send, Tally& tally) {
  std::string reply;
  std::vector<Decision> batch;
  if (!timed_request(send, c.open_line, reply, tally)) return false;
  if (!timed_request(send, c.submit_line, reply, tally) ||
      !decode_decisions(reply, batch)) {
    tally.check(false, "svc-ext: bad submit reply");
    return false;
  }
  ClientClock clock(c.graph);
  clock.absorb(batch);
  while (!clock.done()) {
    if (clock.stalled()) {
      tally.check(false, "svc-ext: session stalled with tasks outstanding");
      return false;
    }
    const auto [id, at] = clock.pop();
    if (!timed_request(send, complete_line(c.name, id, at), reply, tally) ||
        !decode_decisions(reply, batch)) {
      tally.check(false, "svc-ext: bad complete reply");
      return false;
    }
    ++tally.tasks;
    clock.absorb(batch);
  }
  if (!timed_request(send, c.close_line, reply, tally)) return false;
  double makespan = -1.0;
  const bool closed = reply.starts_with("{\"type\":\"closed\"") &&
                      field(std::string_view(reply), "\"makespan\":", makespan);
  tally.check(closed && same_decisions(clock.decisions(), c.expected) &&
                  std::bit_cast<std::uint64_t>(makespan) ==
                      std::bit_cast<std::uint64_t>(c.makespan),
              "svc-ext: wire session differs from the direct SessionEngine "
              "drive of " + c.name);
  ++tally.sessions;
  return true;
}

const std::string kHello = "{\"type\":\"hello\",\"version\":1}";
const std::string kShutdown = "{\"type\":\"shutdown\"}";

/// serve_unix on its own thread, with `kConnections` handshaken clients.
class Daemon {
 public:
  explicit Daemon(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] {
      try {
        serve_unix(hub_, DaemonOptions{path_, 1});
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects every client (retrying until the daemon listens) and sends
  /// hello on each. False on failure.
  bool connect_all() {
    const Clock::time_point deadline = deadline_after(10.0);
    for (UnixClient& client : clients_) {
      while (!client.connect(path_)) {
        if (Clock::now() > deadline) return false;
        std::this_thread::yield();
      }
    }
    std::string reply;
    for (UnixClient& client : clients_) {
      if (!client.request(kHello, reply) ||
          !reply.starts_with("{\"type\":\"welcome\"")) {
        return false;
      }
    }
    return true;
  }

  UnixClient& client(int k) { return clients_[static_cast<std::size_t>(k)]; }

  /// Sends shutdown (over a fresh connection if needed) and joins. Returns
  /// false when the daemon failed or did not say goodbye.
  bool stop() {
    if (!thread_.joinable()) return error_.empty();
    std::string reply;
    bool ok = clients_[0].request(kShutdown, reply);
    if (!ok) {
      UnixClient fresh;
      ok = fresh.connect(path_) && fresh.request(kShutdown, reply);
    }
    ok = ok && reply.starts_with("{\"type\":\"goodbye\"");
    for (UnixClient& client : clients_) client.disconnect();
    thread_.join();
    return ok && error_.empty();
  }

 private:
  std::string path_;
  ServiceHub hub_;
  std::string error_;
  std::array<UnixClient, kConnections> clients_;
  std::thread thread_;  // last: joins before the members it uses go away
};

std::vector<SessionCase> make_cases(std::uint64_t seed, std::size_t count,
                                    Report& report, double* ratio_mean,
                                    double* stretch_mean) {
  std::vector<SessionCase> cases(count);
  double ratio = 0.0;
  double stretch = 0.0;
  for (std::size_t s = 0; s < count; ++s) {
    SessionCase& c = cases[s];
    Rng rng(seed * 0x9e3779b97f4a7c15ull + s);
    c.name = "s" + std::to_string(s);
    c.graph = make_session_graph(rng);
    c.open_line = "{\"type\":\"open\",\"session\":" + json_string(c.name) +
                  ",\"algo\":" + json_string(kAlgo) +
                  ",\"procs\":" + std::to_string(kProcs) +
                  ",\"mode\":\"counting\",\"clock\":\"external\"}";
    c.submit_line = submit_line(c.name, c.graph);
    c.close_line =
        "{\"type\":\"close\",\"session\":" + json_string(c.name) + "}";
    auto scheduler = make_scheduler(std::string(kAlgo));
    DriveTimes times;
    const SimResult result =
        drive_direct(c.graph, *scheduler, c.expected, times);
    c.makespan = result.makespan;
    const std::optional<std::string> violation = validate_schedule(
        c.graph, result.schedule, kProcs,
        ValidationOptions{.check_processor_sets = false});
    report.check(!violation.has_value() && c.expected.size() == c.graph.size(),
                 "svc-ext: invalid reference schedule for " + c.name + ": " +
                     violation.value_or("incomplete"));
    ratio += result.makespan / compute_bounds(c.graph, kProcs).lower_bound();
    stretch += compute_flow_metrics(c.graph, result).mean_stretch;
  }
  *ratio_mean = ratio / static_cast<double>(count);
  *stretch_mean = stretch / static_cast<double>(count);
  return cases;
}

/// Runs both connections concurrently and returns the wall time. With
/// `deadline` null it makes a single pass over their sessions (connection
/// k takes sessions k, k + 2, ...); otherwise each connection cycles from
/// its `cursor` until the deadline and leaves the cursor where it stopped.
double serve_clients(Daemon& daemon, const std::vector<SessionCase>& cases,
                     const Clock::time_point* deadline,
                     std::array<Tally, kConnections>& tallies,
                     std::array<std::size_t, kConnections>* cursor = nullptr) {
  auto drive = [&](int conn) {
    UnixClient& client = daemon.client(conn);
    auto send = [&client](std::string_view line, std::string& reply) {
      return client.request(line, reply);
    };
    Tally& tally = tallies[static_cast<std::size_t>(conn)];
    const auto first = static_cast<std::size_t>(conn);
    if (deadline == nullptr) {
      for (std::size_t s = first; s < cases.size(); s += kConnections) {
        if (!run_session(cases[s], send, tally)) return;
      }
      return;
    }
    std::size_t& s = (*cursor)[first];
    while (Clock::now() < *deadline) {
      if (!run_session(cases[s], send, tally)) return;
      s += kConnections;
      if (s >= cases.size()) s = first;
    }
  };
  const Clock::time_point t0 = Clock::now();
  std::thread other([&] { drive(1); });
  drive(0);
  other.join();
  return seconds_since(t0);
}

void merge_checks(std::array<Tally, kConnections>& tallies, Report& report) {
  for (Tally& tally : tallies) {
    report.add_checks(tally.checks);
    tally.checks = Checks{};
  }
}

double sum_seconds(const std::vector<double>& latency_us) {
  double total = 0.0;
  for (const double us : latency_us) total += us;
  return total * 1e-6;
}

}  // namespace

void run_svc_ext(const Config& config, Report& report, Tracer& tracer,
                 WorkloadOutput& out) {
  const std::size_t sessions = config.smoke ? 8 : 256;
  double ratio_mean = 0.0;
  double stretch_mean = 0.0;
  const std::vector<SessionCase> cases =
      make_cases(config.seed, sessions, report, &ratio_mean, &stretch_mean);
  report.deterministic("makespan_over_lb", ratio_mean);
  report.deterministic("mean_stretch", stretch_mean);
  out.e2e["makespan_over_lb"] = ratio_mean;
  out.e2e["mean_stretch"] = stretch_mean;
  report.info("sessions", static_cast<double>(sessions));
  report.info("tasks_per_session", kTasks);
  report.info("procs", kProcs);
  report.info("connections", kConnections);

  const std::string path =
      config.socket_dir + "/svc-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Daemon> daemon;
  // One set-up sample: daemon start plus hello on every connection. A
  // start-up takes well under a millisecond, so a sample is the mean over
  // kStartsPerSample start-ups (teardown untimed). The last daemon stays
  // up to serve.
  constexpr std::size_t kStartsPerSample = 16;
  auto setup_sample = [&]() -> std::optional<double> {
    double total = 0.0;
    for (std::size_t k = 0; k < kStartsPerSample; ++k) {
      if (daemon) report.check(daemon->stop(), "svc-ext: daemon did not stop");
      daemon.reset();
      const Clock::time_point t0 = Clock::now();
      daemon = std::make_unique<Daemon>(path);
      const bool up = daemon->connect_all();
      total += seconds_since(t0);
      report.check(up, "svc-ext: daemon did not accept connections");
      if (!up) return std::nullopt;
    }
    return total / kStartsPerSample;
  };

  if (!config.trace) {
    // The serving window is cut into slices with a set-up sample before
    // each, so both kinds of sample spread over the whole window.
    // tasks_per_s is the throughput of the fastest slice, the counterpart
    // of the batch workloads' fastest call.
    const std::size_t slices = config.smoke ? 2 : 15;
    std::array<Tally, kConnections> tallies;
    for (Tally& tally : tallies) tally.latency_us.reserve(std::size_t{1} << 21);
    std::array<std::size_t, kConnections> cursor{0, 1};
    std::vector<double> setup_s;
    double best_rate = 0.0;
    for (std::size_t k = 0; k < slices; ++k) {
      const std::optional<double> setup = setup_sample();
      if (!setup) return;
      setup_s.push_back(*setup);
      const Clock::time_point deadline =
          deadline_after(config.seconds / static_cast<double>(slices));
      const std::uint64_t before = tallies[0].tasks + tallies[1].tasks;
      const double wall =
          serve_clients(*daemon, cases, &deadline, tallies, &cursor);
      const std::uint64_t done = tallies[0].tasks + tallies[1].tasks - before;
      best_rate = std::max(best_rate, static_cast<double>(done) / wall);
    }
    out.e2e["peak_rss_mib"] = peak_rss_mib();
    report.check(daemon->stop(), "svc-ext: daemon did not stop");
    merge_checks(tallies, report);
    std::vector<double> latency = std::move(tallies[0].latency_us);
    latency.insert(latency.end(), tallies[1].latency_us.begin(),
                   tallies[1].latency_us.end());
    out.e2e["setup_s"] = median(setup_s);
    out.e2e["tasks_per_s"] = best_rate;
    report.report_only("request_p50_us", median(latency), "us");
    report.report_only("request_p99_us", percentile(latency, 99), "us");
    report.info("requests", static_cast<double>(latency.size()));
    report.info("samples_above_p99",
                static_cast<double>(samples_above(latency, 99)));
    report.info("sessions_served",
                static_cast<double>(tallies[0].sessions + tallies[1].sessions));
    report.info("setup_samples", static_cast<double>(setup_s.size()));
    return;
  }

  if (!setup_sample()) return;
  std::vector<Values> reps;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_wall = 0.0;
  const Clock::time_point deadline = deadline_after(config.seconds);
  for (std::size_t rep = 0; !window_done(deadline, rep, 2); ++rep) {
    {
      std::array<Tally, kConnections> tallies;
      untraced_s.push_back(serve_clients(*daemon, cases, nullptr, tallies));
      merge_checks(tallies, report);
    }
    Values v;
    const Clock::time_point rep_t0 = Clock::now();
    std::array<Tally, kConnections> wire;
    {
      Scope s(tracer, "service.socket_pass");
      for (Tally& tally : wire) tally.keep_spans = true;
      traced_s.push_back(serve_clients(*daemon, cases, nullptr, wire));
      for (int k = 0; k < kConnections; ++k) {
        for (const auto& [t0, t1] : wire[static_cast<std::size_t>(k)].spans) {
          tracer.callback("service.request", tracer.to_ns(t0),
                          tracer.to_ns(t1), k + 1);
        }
      }
    }
    merge_checks(wire, report);
    Tally hub_tally;
    {
      Scope s(tracer, "service.hub_pass");
      ServiceHub hub;
      hub_tally.keep_lines = true;
      for (int k = 0; k < kConnections; ++k) {
        HubClient client(hub);
        auto send = [&client](std::string_view line, std::string& reply) {
          reply = client.request(line);
          return true;
        };
        std::string reply;
        report.check(send(kHello, reply) &&
                         reply.starts_with("{\"type\":\"welcome\""),
                     "svc-ext: in-process hello failed");
        for (std::size_t c = static_cast<std::size_t>(k); c < cases.size();
             c += kConnections) {
          if (!run_session(cases[c], send, hub_tally)) break;
        }
      }
    }
    report.add_checks(hub_tally.checks);
    {
      Scope s(tracer, "service.parse_pass");
      std::size_t parsed = 0;
      const Clock::time_point t0 = Clock::now();
      for (const std::string& line : hub_tally.lines) {
        if (parse_json(line).has_value()) ++parsed;
      }
      v["service.parse_s"] = seconds_since(t0);
      report.check(parsed == hub_tally.lines.size(),
                   "svc-ext: parse_json rejected a request line");
    }
    {
      Scope s(tracer, "service.engine_pass");
      double engine_s = 0.0;
      std::vector<Decision> decisions;
      for (const SessionCase& c : cases) {
        auto scheduler = make_scheduler(std::string(kAlgo));
        DriveTimes times;
        (void)drive_direct(c.graph, *scheduler, decisions, times);
        engine_s += times.submit_s + times.advance_s;
        report.check(same_decisions(decisions, c.expected),
                     "svc-ext: direct drive differs from the reference");
      }
      v["service.engine_s"] = engine_s;
    }
    SchedTotals sched;
    {
      Scope s(tracer, "sim.timed_engine_pass");
      DriveTimes times;
      SimStats stats;
      std::vector<Decision> decisions;
      for (const SessionCase& c : cases) {
        auto inner = make_scheduler(std::string(kAlgo));
        TimedScheduler scheduler(*inner, tracer);
        const SimResult result =
            drive_direct(c.graph, scheduler, decisions, times);
        stats.events += result.stats.events;
        stats.decision_points += result.stats.decision_points;
        sched += scheduler.totals();
      }
      // Every scheduler callback runs inside submit() or advance().
      v["sim.ingest_s"] = times.submit_s;
      v["sim.loop_s"] = times.advance_s;
      put_sim_layers(stats,
                     times.submit_s + times.advance_s -
                         static_cast<double>(sched.total_ns()) * 1e-9,
                     v);
    }
    traced_wall += seconds_since(rep_t0);
    put_sched_layers(sched, v);

    const double socket_s = sum_seconds(wire[0].latency_us) +
                            sum_seconds(wire[1].latency_us);
    const double hub_s = sum_seconds(hub_tally.latency_us);
    v["service.hub_s"] = hub_s;
    v["service.transport_s"] = socket_s - hub_s;
    v["service.requests"] =
        static_cast<double>(wire[0].requests + wire[1].requests);
    v["service.bytes_in"] =
        static_cast<double>(wire[0].bytes_in + wire[1].bytes_in);
    v["service.bytes_out"] =
        static_cast<double>(wire[0].bytes_out + wire[1].bytes_out);
    v["service.error_replies"] =
        static_cast<double>(wire[0].error_replies + wire[1].error_replies);
    report.check(v["service.requests"] ==
                         static_cast<double>(hub_tally.requests) &&
                     v["service.bytes_out"] ==
                         static_cast<double>(hub_tally.bytes_out),
                 "svc-ext: socket and in-process traffic differ");
    if (rep == 0) {
      for (const char* key : {"service.requests", "service.bytes_in",
                              "service.bytes_out", "sim.events",
                              "sched.select_calls"}) {
        report.deterministic(key, v[key]);
      }
    } else {
      report.check(v["service.bytes_out"] ==
                       reps.front().at("service.bytes_out"),
                   "svc-ext: traced pass traffic differs from the first");
    }
    reps.push_back(v);
  }
  report.check(daemon->stop(), "svc-ext: daemon did not stop");
  out.layers = median_values(reps);
  out.layers["trace.coverage_ratio"] = tracer.top_level_seconds() / traced_wall;
  out.layers["trace.overhead_ratio"] = median(traced_s) / median(untraced_s);
  report.info("traced_reps", static_cast<double>(reps.size()));
}

}  // namespace perfbench
