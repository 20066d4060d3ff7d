#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>

#include "gtpar/engine/granularity.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace gtbench {

void Outcome::wrong_answer(std::string why) {
  ++wrong;
  if (errors.size() < 5) errors.push_back(std::move(why));
}

void reserve_per_op(std::vector<double>& v, const RunOptions& opt) {
  v.reserve(static_cast<std::size_t>((opt.seconds + 1.0) * 250'000.0));
}

namespace setup_clock {

namespace {
// Taken during static initialisation, before main: the process start as
// near as the program itself can see it.
const std::uint64_t g_process_start = now_ns();
std::atomic<std::uint64_t> g_excluded{0};
std::atomic<std::int64_t> g_setup_ns{-1};
}  // namespace

std::uint64_t program_ns() {
  return now_ns() - g_process_start - g_excluded.load();
}

Exclude::Exclude() : start_(now_ns()) {}
Exclude::~Exclude() { g_excluded.fetch_add(now_ns() - start_); }

void first_timed_op() {
  std::int64_t unset = -1;
  g_setup_ns.compare_exchange_strong(
      unset, static_cast<std::int64_t>(program_ns()));
}

double setup_s() { return static_cast<double>(g_setup_ns.load()) * 1e-9; }

}  // namespace setup_clock

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so the latter would report the parent's size whenever it is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // both in KiB
}

void TimedPhase::start() {
  setup_clock::first_timed_op();
  round_cpu0_ = cpu_seconds();
  t0_ = round_t0_ = now_ns();
}

bool TimedPhase::next_round(std::uint64_t ops) {
  const std::uint64_t t = now_ns();
  const double cpu = cpu_seconds();
  if (ops > 0) {
    const double n = static_cast<double>(ops);
    rate_.push_back(n / (static_cast<double>(t - round_t0_) * 1e-9));
    cpu_.push_back((cpu - round_cpu0_) * 1e6 / n);
  }
  round_t0_ = t;
  round_cpu0_ = cpu;
  return static_cast<double>(t - t0_) * 1e-9 < seconds_;
}

void TimedPhase::stop(Outcome& out) {
  out.round_ops_per_s = std::move(rate_);
  out.round_cpu_us_per_op = std::move(cpu_);
}

void add_engine_layers(const gtpar::EngineStats& before,
                       const gtpar::EngineStats& after, std::uint64_t ops,
                       std::uint64_t leaf_cost_ns, LayerMetrics& out) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    out[name] = {static_cast<double>(b - a) / n, "1/op"};
  };
  const auto& s0 = before.scheduler;
  const auto& s1 = after.scheduler;
  per_op("sched.tasks_per_op", s0.executed, s1.executed);
  per_op("sched.steals_per_op", s0.steals, s1.steals);
  per_op("sched.parks_per_op", s0.parks, s1.parks);
  per_op("sched.injected_per_op", s0.injected, s1.injected);
  per_op("sched.inline_runs_per_op", s0.inline_runs, s1.inline_runs);
  const auto& t0 = before.tt;
  const auto& t1 = after.tt;
  per_op("tt.probes_per_op", t0.probes, t1.probes);
  per_op("tt.stores_per_op", t0.stores, t1.stores);
  per_op("tt.collisions_per_op", t0.collisions, t1.collisions);
  per_op("tt.kept_per_op", t0.kept, t1.kept);
  const std::uint64_t probes = t1.probes - t0.probes;
  out["tt.hit_rate"] = {
      probes == 0 ? 0.0
                  : static_cast<double>(t1.hits - t0.hits) /
                        static_cast<double>(probes),
      "ratio"};
  const gtpar::GrainPolicy& g = gtpar::default_grain_policy();
  out["grain.base_leaf_ns"] = {g.base_leaf_ns, "ns"};
  out["grain.cutoff_leaves"] = {
      static_cast<double>(gtpar::min_spawn_leaves(g, 0, leaf_cost_ns)), "count"};
}

void record_job_spans(const char* op_name, std::uint64_t span,
                      std::uint64_t submit_ns, std::uint64_t done_ns,
                      const gtpar::SearchJob& job, std::uint64_t wall_ns,
                      std::uint64_t op) {
  trace::record(Span{op_name, submit_ns, done_ns, span, 0, op});
  // The job's stamps start at the engine's own submit time, a few ns after
  // submit_ns; clamp so clock skew can never give a negative stage.
  const std::uint64_t started = submit_ns + job.dispatch_ns();
  const std::uint64_t searched = started + wall_ns;
  const std::uint64_t published =
      std::max(searched, submit_ns + job.completion_ns());
  trace::record("engine.dispatch", submit_ns, started, span, op);
  trace::record("engine.search", started, searched, span, op);
  trace::record("engine.publish", searched, published, span, op);
}

void add_job_layers(const std::vector<Span>& spans, LayerMetrics& out) {
  out["engine.dispatch_us_p50"] = span_percentile_us(spans, "engine.dispatch", 50);
  out["engine.dispatch_us_p99"] = span_percentile_us(spans, "engine.dispatch", 99);
  out["engine.search_us_p50"] = span_percentile_us(spans, "engine.search", 50);
  out["engine.publish_us_p50"] = span_percentile_us(spans, "engine.publish", 50);
}

LayerMetric span_percentile_us(const std::vector<Span>& spans, const char* name,
                               double p) {
  std::vector<double> d = trace::durations_us(spans, name);
  return {d.empty() ? 0.0 : percentile(d, p), "us"};
}

}  // namespace gtbench
