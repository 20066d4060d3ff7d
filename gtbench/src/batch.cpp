// batch: bulk position scoring. Many small, distinct explicit trees are
// kept in flight on one Engine from one submitting thread; NOR trees go
// through kMtParallelSolve, MIN/MAX trees through kMtParallelAb, widths 1-3,
// zero leaf cost. Every tree is far below the spawn cutoff, so admission,
// dispatch, the inline kernels and the shared table do the work, and work
// stealing does none.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "checks.hpp"
#include "gtpar/engine/granularity.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/tree/generators.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace gtbench {

namespace {

using gtpar::Algorithm;

// B(2,10) NOR and M(4,5) MIN/MAX: 1024 leaves each, a tenth or less of
// the spawn cutoff the calibrated granularity policy gives at zero leaf
// cost on any machine where a flat-kernel leaf costs under 10 ns.
constexpr unsigned kNorD = 2, kNorN = 10;
constexpr unsigned kAbD = 4, kAbN = 5;
// One round: this many distinct trees, half of each family.
constexpr std::size_t kRoundTrees = 512;
// Requests kept in flight by the submitting thread.
constexpr unsigned kInFlightPerWorker = 4;

struct Item {
  gtpar::Tree tree;
  Algorithm algorithm;
  unsigned width;
  gtpar::Value expected;
};

struct Slot {
  gtpar::SearchJob job;
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  gtpar::Value value = 0;
  bool complete = false;
  bool error = false;
  std::uint64_t wall_ns = 0;
  std::uint64_t span = 0;  ///< id of the op's root span (traced mode)
};

std::vector<Item> make_items(std::uint64_t seed) {
  std::vector<Item> items;
  items.reserve(kRoundTrees);
  for (std::size_t i = 0; i < kRoundTrees; ++i) {
    const std::uint64_t s = gtpar::hash_combine(seed, i);
    const unsigned width = 1 + static_cast<unsigned>(i / 2 % 3);
    if (i % 2 == 0) {
      items.push_back({gtpar::make_uniform_iid_nor(kNorD, kNorN,
                                                   gtpar::golden_bias(), s),
                       Algorithm::kMtParallelSolve, width, 0});
    } else {
      items.push_back({gtpar::make_uniform_iid_minimax(kAbD, kAbN, -1000, 1000, s),
                       Algorithm::kMtParallelAb, width, 0});
    }
  }
  return items;
}

// Single-threaded flat batch kernel time per tree: the direct cost of the
// same search with no engine around it.
struct KernelTimes {
  std::vector<double> ns;  // per item
  double solve_ns = 0, solve_leaves = 0, ab_ns = 0, ab_leaves = 0;
};

KernelTimes time_kernels(const std::vector<Item>& items) {
  KernelTimes k;
  k.ns.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::vector<double> reps;
    std::uint64_t leaves = 0;
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t t0 = now_ns();
      if (items[i].algorithm == Algorithm::kMtParallelSolve)
        leaves = gtpar::flat_solve_batch(items[i].tree).leaves_evaluated;
      else
        leaves = gtpar::flat_alphabeta_batch(items[i].tree).leaves_evaluated;
      const std::uint64_t t1 = now_ns();
      trace::record("kernel.flat_batch", t0, t1, 0, i);
      reps.push_back(static_cast<double>(t1 - t0));
    }
    k.ns[i] = median(reps);
    if (items[i].algorithm == Algorithm::kMtParallelSolve) {
      k.solve_ns += k.ns[i];
      k.solve_leaves += static_cast<double>(leaves);
    } else {
      k.ab_ns += k.ns[i];
      k.ab_leaves += static_cast<double>(leaves);
    }
  }
  return k;
}

}  // namespace

Outcome run_batch(const RunOptions& opt) {
  Outcome out;
  std::vector<Item> items = make_items(opt.seed);
  {
    setup_clock::Exclude reference;
    for (Item& it : items)
      it.expected = it.algorithm == Algorithm::kMtParallelSolve
                        ? ref_solve(it.tree).value
                        : ref_alphabeta(it.tree).value;
  }
  // The completion callbacks use these, so they outlive the engine.
  const unsigned window = kInFlightPerWorker * opt.workers;
  std::mutex mu;
  std::condition_variable cv;
  unsigned in_flight = 0;
  std::vector<Slot> slots(items.size());

  gtpar::Engine::Options eo;
  eo.workers = opt.workers;
  gtpar::Engine eng(eo);
  const std::uint32_t cutoff =
      gtpar::min_spawn_leaves(gtpar::default_grain_policy(), 0, 0);
  if (items.front().tree.num_leaves() >= cutoff)
    std::fprintf(stderr,
                 "warning: batch trees reach the spawn cutoff (%u leaves); "
                 "this run measures spawning, not the inline path\n",
                 cutoff);

  std::uint64_t op = 0;
  double search_ns = 0;
  std::vector<std::uint64_t> searches(items.size());  // per tree, traced mode

  reserve_per_op(out.latency_ns, opt);
  const gtpar::EngineStats before = eng.stats();
  TimedPhase phase(opt);
  std::uint64_t done = 0;  // ops completed in the current round
  phase.start();
  do {
    for (std::size_t i = 0; i < items.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < window; });
        ++in_flight;
      }
      Slot& slot = slots[i];
      gtpar::SearchRequest req;
      req.tree = &items[i].tree;
      req.algorithm = items[i].algorithm;
      req.width = items[i].width;
      req.threads = opt.workers;
      slot.submit_ns = now_ns();
      slot.span = trace::new_id();
      Scope submit("engine.submit", op + i, slot.span);
      slot.job = eng.submit(req, [&slot, &mu, &cv, &in_flight](
                                     const gtpar::SearchResult* r,
                                     std::exception_ptr err) {
        slot.done_ns = now_ns();
        slot.error = err != nullptr;
        if (r != nullptr) {
          slot.value = r->value;
          slot.complete = r->complete;
          slot.wall_ns = r->wall_ns;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          --in_flight;
        }
        cv.notify_one();
      });
    }
    eng.drain();
    // Distinct trees within a round; the table is emptied between rounds
    // so no op finds entries an earlier op stored for the same tree.
    if (gtpar::TranspositionTable* tt = eng.shared_tt()) tt->clear();
    done = 0;
    for (std::size_t i = 0; i < items.size(); ++i, ++op) {
      const Slot& s = slots[i];
      ++out.attempted;
      if (s.error) {
        ++out.failed;
        continue;
      }
      ++done;
      out.latency_ns.push_back(static_cast<double>(s.done_ns - s.submit_ns));
      if (std::string why = check_root(s.complete, s.value, items[i].expected);
          !why.empty())
        out.wrong_answer("batch tree " + std::to_string(i) + ": " + why);
      if (trace::enabled()) {
        record_job_spans("batch.op", s.span, s.submit_ns, s.done_ns, s.job,
                         s.wall_ns, op);
        ++searches[i];
        search_ns += static_cast<double>(s.wall_ns);
      }
    }
  } while (phase.next_round(done));
  phase.stop(out);

  if (trace::enabled()) {
    add_engine_layers(before, eng.stats(), out.attempted, 0, out.layers);
    const KernelTimes k = time_kernels(items);
    double kernel_ns = 0;
    for (std::size_t i = 0; i < items.size(); ++i)
      kernel_ns += static_cast<double>(searches[i]) * k.ns[i];
    out.spans = trace::take();
    add_job_layers(out.spans, out.layers);
    out.layers["engine.search_over_kernel"] = {search_ns / kernel_ns,
                                               "ratio"};
    out.layers["kernel.solve_ns_per_leaf"] = {k.solve_ns / k.solve_leaves, "ns"};
    out.layers["kernel.ab_ns_per_leaf"] = {k.ab_ns / k.ab_leaves, "ns"};
  }
  return out;
}

}  // namespace gtbench
