// gtbench/src/common.hpp
//
// What every workload shares: the run options, the outcome a workload
// hands back, the set-up clock and the per-process resource readings.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gtpar/engine/engine.hpp"
#include "trace.hpp"

namespace gtbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the timed phase. The phase always runs whole rounds of its
  /// workload and stops after the first round that ends past this mark;
  /// 0 runs exactly one round (the short probes of the traced mode).
  double seconds = 10.0;
  /// Worker threads for the workloads' engines: online CPUs minus one,
  /// the CPU left to the submitting or client threads.
  unsigned workers = 1;
};

struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// What a workload's timed phase produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures: the first few diagnoses and their count.
  std::vector<std::string> errors;
  std::uint64_t wrong = 0;
  /// One latency per op that did not fail, in nanoseconds.
  std::vector<double> latency_ns;
  /// Each round's op rate and CPU time per op: a round is a fixed set of
  /// ops, so rounds compare like with like.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_us_per_op;
  /// Per-layer metrics and the spans they came from (traced mode only).
  LayerMetrics layers;
  std::vector<Span> spans;

  void wrong_answer(std::string why);
};

/// Reserve room for one value per op of a run of `opt.seconds` at up to
/// 250k ops/s. Untouched pages are not resident, so the peak resident set
/// grows with the ops a run completes, never in reallocation steps.
void reserve_per_op(std::vector<double>& v, const RunOptions& opt);

/// Process-start clock for setup_s: the time the program spends before the
/// first timed op, less the time spent in the benchmark's own reference
/// computations (which set-up runs but the program does not).
namespace setup_clock {
/// Nanoseconds since process start, minus the excluded time so far.
std::uint64_t program_ns();
/// Exclude the lifetime of this object from program_ns().
class Exclude {
 public:
  Exclude();
  ~Exclude();
  Exclude(const Exclude&) = delete;
  Exclude& operator=(const Exclude&) = delete;

 private:
  std::uint64_t start_;
};
/// Called by each workload just before its first timed op; the first call
/// in the process fixes setup_s.
void first_timed_op();
/// setup_s in seconds (negative until first_timed_op() ran).
double setup_s();
}  // namespace setup_clock

/// User+sys CPU seconds of this process (every thread).
double cpu_seconds();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Timed phase over whole rounds: start() marks the first timed op and
/// opens the first round; next_round() closes a round and says whether to
/// open another. Calls must not overlap.
class TimedPhase {
 public:
  explicit TimedPhase(const RunOptions& opt) : seconds_(opt.seconds) {}
  void start();
  /// Close the current round, in which `ops` ops completed, and open the
  /// next; false once the phase has run its length.
  bool next_round(std::uint64_t ops);
  /// Hand the rounds' rates and CPU times to `out`.
  void stop(Outcome& out);

 private:
  double seconds_;
  std::uint64_t t0_ = 0;
  std::uint64_t round_t0_ = 0;
  double round_cpu0_ = 0.0;
  std::vector<double> rate_, cpu_;
};

/// Engine counters turned into per-op layer metrics: the scheduler
/// (sched.*) and shared transposition table (tt.*) deltas between two
/// snapshots, over `ops` ops; plus the process-wide granularity policy and
/// the spawn cutoff it gives at the workload's leaf cost (grain.*).
void add_engine_layers(const gtpar::EngineStats& before,
                       const gtpar::EngineStats& after, std::uint64_t ops,
                       std::uint64_t leaf_cost_ns, LayerMetrics& out);

/// Spans of one engine job: the op itself (`op_name`, under the id `span`
/// taken when it was submitted) and, as its children, the stage times the
/// job reports — queue wait (SearchJob::dispatch_ns), search
/// (SearchResult::wall_ns) and publication (the rest of completion_ns).
void record_job_spans(const char* op_name, std::uint64_t span,
                      std::uint64_t submit_ns, std::uint64_t done_ns,
                      const gtpar::SearchJob& job, std::uint64_t wall_ns,
                      std::uint64_t op);

/// engine.dispatch_us_p50/p99, engine.search_us_p50 and
/// engine.publish_us_p50 from the spans record_job_spans() left.
void add_job_layers(const std::vector<Span>& spans, LayerMetrics& out);

/// Nearest-rank percentile `p` of the durations (us) of the spans named
/// `name`, as a layer metric in microseconds (0 when there are none).
LayerMetric span_percentile_us(const std::vector<Span>& spans,
                               const char* name, double p);

}  // namespace gtbench
