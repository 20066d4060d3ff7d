// gtbench: the gtpar benchmark program (README.md).
//
//   gtbench --workload <batch|cascade|service|selfplay> --seed <n>
//           --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//
// Runs one workload, checks every answer, writes a stamped result file
// (and, traced, the span file) under --out-dir, and prints as its last
// line one JSON object: correct, attempted, failed and the metrics —
// the end-to-end metrics untraced, the per-layer metrics traced.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtpar/engine/granularity.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace gtbench {

namespace {

#ifndef GTBENCH_COMPILER
#define GTBENCH_COMPILER "unknown"
#endif

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"batch", run_batch},
    {"cascade", run_cascade},
    {"service", run_service},
    {"selfplay", run_selfplay},
};

// Every per-layer metric a traced run prints (BENCHMARK.json "per_layer").
constexpr const char* kLayerMetrics[] = {
    "engine.dispatch_us_p50", "engine.dispatch_us_p99", "engine.search_us_p50",
    "engine.publish_us_p50", "engine.search_over_kernel", "grain.base_leaf_ns",
    "grain.cutoff_leaves", "sched.tasks_per_op", "sched.steals_per_op",
    "sched.parks_per_op", "sched.injected_per_op", "sched.inline_runs_per_op",
    "tt.probes_per_op", "tt.stores_per_op", "tt.hit_rate", "tt.collisions_per_op",
    "tt.kept_per_op", "cascade.work_per_op", "cascade.work_over_seq",
    "cascade.efficiency", "kernel.solve_ns_per_leaf", "kernel.ab_ns_per_leaf",
    "tree.parse_us_per_op", "tree.text_bytes_per_op", "wire.encode_us_per_op",
    "wire.decode_us_per_op", "wire.bytes_per_op", "net.server_search_us_p50",
    "net.overhead_us_p50", "net.overhead_us_p99", "session.nodes_per_move",
    "session.tt_hit_rate", "session.researches_per_move", "session.depth_per_move",
    "session.search_us_p50", "session.submit_us_p50", "games.expand_ns",
    "games.labels_ns",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_results";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gtbench: %s\nusage: gtbench --workload <batch|cascade|service|"
               "selfplay> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>] [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
        if (!(a.seconds >= 0.0 && a.seconds <= 120.0)) usage("--seconds outside [0, 120]");
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) usage("bad number for " + flag);
    } catch (const std::logic_error&) {
      usage("bad number for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const LayerMetrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": {\"value\": " + json_num(metric.value) +
           ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

// Latency percentiles are taken per window of this many consecutive ops
// (ten beyond the p99 rank in each).
constexpr std::size_t kLatencyWindow = 1000;

// Rates and latencies are the quartile on the fast side of their
// distribution over the run's rounds (rates) or windows (latency
// percentiles): the program's figure in the least disturbed quarter of the
// run. On a shared machine, another tenant's load stalls some stretches of
// a run and not others; this quartile moved least from run to run. CPU per
// op is the upper quartile over rounds: a stall can move it either way (a
// descheduled worker leaves fewer workers contending, which lowers batch's
// CPU per op), and the rounds that ran with every worker busy moved least.
constexpr double kFastQuartile = 25.0;

// The end-to-end metrics of one workload's timed phase.
LayerMetrics end_to_end(Outcome& o) {
  if (o.latency_ns.empty() || o.round_ops_per_s.empty())
    throw std::runtime_error("no op completed in the timed phase");
  LayerMetrics m;
  m["ops_per_s"] = {percentile(o.round_ops_per_s, 100.0 - kFastQuartile), "op/s"};
  m["latency_p50_ms"] = {
      windowed_percentile(o.latency_ns, 50, kLatencyWindow, kFastQuartile) * 1e-6, "ms"};
  m["latency_p99_ms"] = {
      windowed_percentile(o.latency_ns, 99, kLatencyWindow, kFastQuartile) * 1e-6, "ms"};
  m["cpu_us_per_op"] = {percentile(o.round_cpu_us_per_op, 100.0 - kFastQuartile), "us"};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  m["setup_s"] = {setup_clock::setup_s(), "s"};
  return m;
}

// Quartiles over rounds (rates) and windows (latency percentiles) of the
// timed phase: how much the figures moved within the run.
std::string spread_json(Outcome& o) {
  std::string out = "{";
  auto add = [&](const char* name, double q1, double q2, double q3) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": [" + json_num(q1) + ", " + json_num(q2) + ", " +
           json_num(q3) + "]";
  };
  add("round_ops_per_s", percentile(o.round_ops_per_s, 25),
      percentile(o.round_ops_per_s, 50), percentile(o.round_ops_per_s, 75));
  add("round_cpu_us_per_op", percentile(o.round_cpu_us_per_op, 25),
      percentile(o.round_cpu_us_per_op, 50), percentile(o.round_cpu_us_per_op, 75));
  for (double p : {50.0, 99.0}) {
    const std::string name = "window_p" + std::to_string(static_cast<int>(p)) + "_ms";
    add(name.c_str(), windowed_percentile(o.latency_ns, p, kLatencyWindow, 25) * 1e-6,
        windowed_percentile(o.latency_ns, p, kLatencyWindow, 50) * 1e-6,
        windowed_percentile(o.latency_ns, p, kLatencyWindow, 75) * 1e-6);
  }
  return out + "}";
}

int run(const Args& a) {
  const Workload* main_w = nullptr;
  for (const Workload& w : kWorkloads)
    if (a.workload == w.name) main_w = &w;
  if (main_w == nullptr) usage("unknown workload '" + a.workload + "'");

  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  RunOptions opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.workers = online > 1 ? static_cast<unsigned>(online - 1) : 1;
  if (a.trace) trace::enable();

  Outcome o = main_w->run(opt);
  std::uint64_t attempted = o.attempted, failed = o.failed, wrong = o.wrong;
  std::vector<std::string> errors = o.errors;
  std::string per_workload = json_str(main_w->name) + ": {\"attempted\": " +
                             std::to_string(o.attempted) +
                             ", \"failed\": " + std::to_string(o.failed) + "}";
  const std::size_t latency_samples = o.latency_ns.size();
  LayerMetrics e2e = end_to_end(o);
  const std::string spread = spread_json(o);
  LayerMetrics layers = o.layers;
  std::vector<Span> spans = std::move(o.spans);

  if (a.trace) {
    // Layers the traced workload does not run are measured by one round of
    // their home workload, so every traced run reports every layer; the
    // traced workload's own readings always win.
    for (const Workload& w : kWorkloads) {
      if (&w == main_w) continue;
      RunOptions probe = opt;
      probe.seconds = 0.0;
      Outcome p = w.run(probe);
      attempted += p.attempted;
      failed += p.failed;
      wrong += p.wrong;
      errors.insert(errors.end(), p.errors.begin(), p.errors.end());
      per_workload += ", " + json_str(w.name) + ": {\"attempted\": " +
                      std::to_string(p.attempted) +
                      ", \"failed\": " + std::to_string(p.failed) + "}";
      for (const auto& [name, metric] : p.layers) layers.emplace(name, metric);
      spans.insert(spans.end(), p.spans.begin(), p.spans.end());
    }
    for (const char* name : kLayerMetrics)
      if (layers.count(name) == 0)
        throw std::runtime_error(std::string("traced run lacks ") + name);
  }
  const bool correct = wrong == 0;
  const LayerMetrics& printed = a.trace ? layers : e2e;

  std::ostringstream human;
  human << "gtbench " << main_w->name << " seed " << a.seed << (a.trace ? " traced" : "")
        << ": " << attempted << " ops attempted, " << failed << " failed, "
        << wrong << " wrong\n";
  for (const auto& [name, m] : e2e) human << "  " << name << " = " << m.value << " " << m.unit << "\n";
  human << "  latency samples = " << latency_samples << " in "
        << std::max<std::size_t>(1, latency_samples / kLatencyWindow)
        << " windows (at least "
        << samples_beyond(std::min(latency_samples, kLatencyWindow), 99)
        << " beyond p99 in each)\n";
  for (const std::string& e : errors) human << "  WRONG: " << e << "\n";
  std::fputs(human.str().c_str(), stderr);

  const gtpar::GrainPolicy& grain = gtpar::default_grain_policy();
  std::string stamp = std::string("{\"commit\": ") + json_str(a.commit) +
                      ", \"compiler\": " + json_str(GTBENCH_COMPILER) +
                      ", \"cpu_model\": " + json_str(cpu_model()) +
                      ", \"online_cpus\": " + std::to_string(online) +
                      ", \"seed\": " + std::to_string(a.seed) +
                      ", \"grain_base_leaf_ns\": " + json_num(grain.base_leaf_ns) +
                      ", \"ops\": {" + per_workload + "}}";
  std::string errs = "[";
  for (const std::string& e : errors) errs += (errs.size() > 1 ? ", " : "") + json_str(e);
  errs += "]";
  const std::string tag = std::string(main_w->name) + "-seed" + std::to_string(a.seed) +
                          (a.trace ? "-trace" : "");
  std::filesystem::create_directories(a.out_dir);
  {
    std::ofstream f(a.out_dir + "/" + tag + ".json");
    f << "{\"workload\": " << json_str(main_w->name) << ", \"traced\": "
      << (a.trace ? "true" : "false") << ", \"seconds\": " << json_num(a.seconds)
      << ", \"stamp\": " << stamp << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": " << errs << ", \"latency_samples\": " << latency_samples
      << ", \"latency_windows\": " << std::max<std::size_t>(1, latency_samples / kLatencyWindow)
      << ", \"latency_min_samples_beyond_p99_per_window\": "
      << samples_beyond(std::min(latency_samples, kLatencyWindow), 99)
      << ", \"quartiles\": " << spread << ", \"end_to_end\": " << json_metrics(e2e)
      << ", \"per_layer\": " << json_metrics(layers) << "}\n";
    if (!f) throw std::runtime_error("cannot write the result file in " + a.out_dir);
  }
  // One span file per workload, overwritten by its next traced run: a
  // traced batch run leaves about 2 million spans.
  if (a.trace && !trace::write_csv(spans, a.out_dir + "/" + main_w->name + "-spans.csv"))
    throw std::runtime_error("cannot write the span file in " + a.out_dir);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace

}  // namespace gtbench

int main(int argc, char** argv) {
  const gtbench::Args args = gtbench::parse_args(argc, argv);
  try {
    return gtbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtbench: %s\n", e.what());
    return 1;
  }
}
