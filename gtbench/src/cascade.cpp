// cascade: the paper's setting. One large tree is searched at a time at
// width 1 on the engine's workers, with a CPU-bound spin leaf cost, so
// scouts, work stealing, task granularity and speculative work set the
// time. The trees are worst-case B(2,n) NOR trees (both root values) and
// distinct i.i.d. M(2,n) MIN/MAX trees; the shared table is emptied
// between rounds, so no table state carries from one op to the next.
#include <string>
#include <vector>

#include "checks.hpp"
#include "gtpar/solve/flat_kernels.hpp"
#include "gtpar/tree/generators.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace gtbench {

namespace {

using gtpar::Algorithm;

constexpr unsigned kD = 2, kN = 14;
constexpr std::uint64_t kLeafCostNs = 500;
// One round: a worst-case NOR tree of each root value, each followed by
// this many distinct MIN/MAX trees. The NOR trees are the slowest ops and
// 2% of them, so the p99 falls at about their median cost, not in the
// sparse tail of a few stalled ones.
constexpr std::size_t kAbPerNor = 48;

struct Item {
  gtpar::Tree tree;
  bool nor;
  gtpar::Value expected;
  std::uint64_t seq_leaves;  ///< S(T): leaves the sequential flat kernel evaluates
};

}  // namespace

Outcome run_cascade(const RunOptions& opt) {
  Outcome out;
  std::vector<Item> items;
  for (bool root_value : {true, false}) {
    items.push_back({gtpar::make_worst_case_nor(kD, kN, root_value), true, 0, 0});
    for (std::size_t j = 0; j < kAbPerNor; ++j)
      items.push_back({gtpar::make_uniform_iid_minimax(
                           kD, kN, -1000, 1000,
                           gtpar::hash_combine(opt.seed, items.size())),
                       false, 0, 0});
  }
  {
    setup_clock::Exclude reference;
    for (Item& it : items) {
      it.expected = it.nor ? ref_solve(it.tree).value : ref_alphabeta(it.tree).value;
      it.seq_leaves = it.nor ? gtpar::flat_solve(it.tree).leaves_evaluated
                             : gtpar::flat_alphabeta(it.tree).leaves_evaluated;
    }
  }
  gtpar::Engine::Options eo;
  eo.workers = opt.workers;
  gtpar::Engine eng(eo);

  reserve_per_op(out.latency_ns, opt);
  double work = 0, seq = 0, wall = 0;
  std::uint64_t op = 0;
  const gtpar::EngineStats before = eng.stats();
  TimedPhase phase(opt);
  std::uint64_t done = 0;  // ops completed in the current round
  phase.start();
  do {
    done = 0;
    for (std::size_t i = 0; i < items.size(); ++i, ++op) {
      const Item& it = items[i];
      gtpar::SearchRequest req;
      req.tree = &it.tree;
      req.algorithm = it.nor ? Algorithm::kMtParallelSolve : Algorithm::kMtParallelAb;
      req.width = 1;
      req.threads = opt.workers;
      req.leaf_cost_ns = kLeafCostNs;
      req.cost_model = gtpar::LeafCostModel::kSpin;
      ++out.attempted;
      const std::uint64_t span = trace::new_id();
      const std::uint64_t t0 = now_ns();
      gtpar::SearchJob job;
      gtpar::SearchResult r;
      try {
        {
          Scope submit("engine.submit", op, span);
          job = eng.submit(req);
        }
        r = job.wait();
      } catch (const std::exception&) {
        ++out.failed;
        continue;
      }
      const std::uint64_t t1 = now_ns();
      ++done;
      out.latency_ns.push_back(static_cast<double>(t1 - t0));
      std::string why = check_root(r.complete, r.value, it.expected);
      if (why.empty())
        why = it.nor ? check_nor_work(r.work, kD, kN, it.tree.num_leaves())
                     : check_ab_work(r.work, kD, kN);
      if (!why.empty())
        out.wrong_answer("cascade tree " + std::to_string(i) + ": " + why);
      if (trace::enabled()) {
        record_job_spans("cascade.op", span, t0, t1, job, r.wall_ns, op);
        work += static_cast<double>(r.work);
        seq += static_cast<double>(it.seq_leaves);
        wall += static_cast<double>(r.wall_ns);
      }
    }
    if (gtpar::TranspositionTable* tt = eng.shared_tt()) tt->clear();
  } while (phase.next_round(done));
  phase.stop(out);

  if (trace::enabled()) {
    add_engine_layers(before, eng.stats(), out.attempted, kLeafCostNs, out.layers);
    out.spans = trace::take();
    add_job_layers(out.spans, out.layers);
    const double ops = static_cast<double>(out.attempted);
    out.layers["cascade.work_per_op"] = {work / ops, "leaves"};
    out.layers["cascade.work_over_seq"] = {work / seq, "ratio"};
    out.layers["cascade.efficiency"] = {
        seq * static_cast<double>(kLeafCostNs) /
            (static_cast<double>(opt.workers) * wall),
        "ratio"};
  }
  return out;
}

}  // namespace gtbench
