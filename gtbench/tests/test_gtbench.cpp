// Tests of the benchmark's own machinery: its reference evaluators agree
// with values known by construction, its percentile matches hand-computed
// samples, and each correctness check rejects one wrong expected value.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checks.hpp"
#include "gtpar/games/chomp.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"
#include "gtpar/tree/generators.hpp"
#include "reference.hpp"
#include "stats.hpp"

namespace gtbench {
namespace {

using Node = gtpar::TreeSource::Node;

TEST(Reference, WorstCaseNorHasItsRootValueAndScansEveryLeaf) {
  for (unsigned d : {2u, 3u})
    for (unsigned n : {1u, 4u, 7u})
      for (bool root : {false, true}) {
        const gtpar::Tree t = gtpar::make_worst_case_nor(d, n, root);
        const RefRun r = ref_solve(t);
        EXPECT_EQ(r.value, root ? 1 : 0) << d << "," << n;
        EXPECT_EQ(r.leaves, t.num_leaves()) << d << "," << n;
      }
}

TEST(Reference, BestCaseNorMeetsFact1) {
  // A root of value 0 is proved by d^floor(n/2) leaves, a root of value 1
  // by d^ceil(n/2); the first is the Fact 1 minimum.
  for (unsigned d : {2u, 3u})
    for (unsigned n : {2u, 5u, 8u}) {
      const gtpar::Tree t0 = gtpar::make_best_case_nor(d, n, false, 0.5, 7);
      EXPECT_EQ(ref_solve(t0).value, 0);
      EXPECT_EQ(ref_solve(t0).leaves, fact1_min_leaves(d, n)) << d << "," << n;
      const gtpar::Tree t1 = gtpar::make_best_case_nor(d, n, true, 0.5, 7);
      EXPECT_EQ(ref_solve(t1).value, 1);
      EXPECT_EQ(ref_solve(t1).leaves, fact1_min_leaves(d, n + 1)) << d << "," << n;
    }
  EXPECT_EQ(fact1_min_leaves(2, 16), 256u);
  EXPECT_EQ(fact1_min_leaves(3, 5), 9u);
}

TEST(Reference, AlphaBetaMeetsFact2AndPrunesNothingOnTheWorstCase) {
  for (unsigned d : {2u, 3u, 4u})
    for (unsigned n : {1u, 4u, 5u}) {
      const RefRun best = ref_alphabeta(gtpar::make_best_case_minimax(d, n));
      EXPECT_EQ(best.leaves, fact2_min_leaves(d, n)) << d << "," << n;
      const gtpar::Tree worst = gtpar::make_worst_case_minimax(d, n);
      EXPECT_EQ(ref_alphabeta(worst).leaves, worst.num_leaves()) << d << "," << n;
    }
  EXPECT_EQ(fact2_min_leaves(2, 16), 511u);
  EXPECT_EQ(fact2_min_leaves(4, 5), 16u + 64u - 1u);
}

gtpar::Value full_minimax(const gtpar::Tree& t, gtpar::NodeId v) {
  if (t.is_leaf(v)) return t.leaf_value(v);
  const bool maxing = t.depth(v) % 2 == 0;
  gtpar::Value best = full_minimax(t, t.child(v, 0));
  for (std::size_t i = 1; i < t.num_children(v); ++i) {
    const gtpar::Value c = full_minimax(t, t.child(v, i));
    best = maxing ? std::max(best, c) : std::min(best, c);
  }
  return best;
}

TEST(Reference, AlphaBetaAgreesWithFullMinimaxOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const gtpar::Tree t = gtpar::make_uniform_iid_minimax(3, 5, -50, 50, seed);
    const RefRun r = ref_alphabeta(t);
    EXPECT_EQ(r.value, full_minimax(t, t.root())) << seed;
    EXPECT_LE(r.leaves, t.num_leaves());
    EXPECT_GE(r.leaves, fact2_min_leaves(3, 5));
  }
}

TEST(Reference, GameOracleGivesTheBundledGamesTheirValues) {
  const gtpar::TicTacToeSource ttt;
  GameOracle o_ttt(ttt, [](const Node& v) {
    return board_key(gtpar::TicTacToeSource::board_string(v), v.depth);
  });
  EXPECT_EQ(o_ttt.value(ttt.root()), 0);

  for (unsigned start : {4u, 5u, 21u}) {
    const gtpar::NimSource nim(start, 3);
    GameOracle o(nim, [](const Node& v) { return v.path * 2 + v.depth % 2; });
    EXPECT_EQ(o.value(nim.root()), gtpar::NimSource::theoretical_value(start, 3));
  }

  for (unsigned cols : {2u, 3u}) {
    const gtpar::ChompSource chomp(cols, 3);
    GameOracle o(chomp, [&](const Node& v) {
      return board_key(chomp.board_string(v), v.depth);
    });
    EXPECT_EQ(o.value(chomp.root()), gtpar::ChompSource::theoretical_value(cols, 3));
  }

  // Known results for the two small boards the selfplay workload plays.
  const gtpar::DropSource drop(4, 3, 3);
  GameOracle o_drop(drop, [&](const Node& v) {
    return board_key(drop.board_string(v), v.depth);
  });
  EXPECT_EQ(o_drop.value(drop.root()), 1);
  const gtpar::MnkSource mnk33(3, 3, 3);
  GameOracle o_33(mnk33, [&](const Node& v) {
    return board_key(mnk33.board_string(v), v.depth);
  });
  EXPECT_EQ(o_33.value(mnk33.root()), 0);
  const gtpar::MnkSource mnk43(4, 3, 3);
  GameOracle o_43(mnk43, [&](const Node& v) {
    return board_key(mnk43.board_string(v), v.depth);
  });
  EXPECT_EQ(o_43.value(mnk43.root()), 1);
}

TEST(Stats, NearestRankPercentileMatchesHandComputedSamples) {
  std::vector<double> v = {35, 20, 15, 50, 40};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  std::vector<double> w = {3, 6, 7, 8, 8, 10, 13, 15, 16, 20};
  EXPECT_EQ(percentile(w, 25), 7);
  EXPECT_EQ(percentile(w, 50), 8);
  EXPECT_EQ(percentile(w, 75), 15);
  EXPECT_EQ(percentile(w, 99), 20);
  std::vector<double> h(1000);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = static_cast<double>(1000 - i);
  EXPECT_EQ(percentile(h, 99), 990);
  EXPECT_EQ(median(h), 500);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(100, 99), 1u);
  EXPECT_EQ(samples_beyond(10, 50), 5u);
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 50), std::invalid_argument);
  EXPECT_THROW(windowed_percentile(empty, 50, 10), std::invalid_argument);
  EXPECT_THROW(percentile(v, 0), std::invalid_argument);
}

TEST(Stats, WindowedPercentileIsTheMedianOfPerWindowPercentiles) {
  // Three windows of four: maxima 4, 40, 8 -> median 8; the remainder
  // {100, 100} joins the last window, so its maximum is 100 -> median 40.
  std::vector<double> v = {1, 2, 3, 4, 10, 20, 30, 40, 5, 6, 7, 8};
  EXPECT_EQ(windowed_percentile(v, 100, 4), 8);
  EXPECT_EQ(windowed_percentile(v, 100, 4, 25), 4);   // lower quartile of 4, 8, 40
  EXPECT_EQ(windowed_percentile(v, 100, 4, 75), 40);  // upper quartile
  EXPECT_EQ(windowed_percentile(v, 50, 4), 6);  // medians 2, 20, 6
  EXPECT_EQ(v.front(), 1);                       // input order kept
  v.push_back(100);
  v.push_back(100);
  EXPECT_EQ(windowed_percentile(v, 100, 4), 40);
  // Fewer samples than one window: the plain percentile.
  std::vector<double> few = {35, 20, 15, 50, 40};
  EXPECT_EQ(windowed_percentile(few, 50, 1000), 35);
}

TEST(Checks, EachCheckRejectsOneWrongExpectedValue) {
  EXPECT_TRUE(check_root(true, 7, 7).empty());
  EXPECT_FALSE(check_root(true, 7, 8).empty());
  EXPECT_FALSE(check_root(false, 7, 7).empty());

  // B(2,16): Fact 1 gives 256, the leaf count 65536.
  EXPECT_TRUE(check_nor_work(256, 2, 16, 65536).empty());
  EXPECT_TRUE(check_nor_work(65536, 2, 16, 65536).empty());
  EXPECT_FALSE(check_nor_work(255, 2, 16, 65536).empty());
  EXPECT_FALSE(check_nor_work(65537, 2, 16, 65536).empty());

  EXPECT_TRUE(check_ab_work(511, 2, 16).empty());
  EXPECT_FALSE(check_ab_work(510, 2, 16).empty());

  EXPECT_TRUE(check_service_counts(10, 10, 10, 10).empty());
  EXPECT_FALSE(check_service_counts(10, 10, 11, 10).empty());
  EXPECT_FALSE(check_service_counts(10, 10, 10, 9).empty());

  EXPECT_TRUE(check_game_result(1, 1).empty());
  EXPECT_FALSE(check_game_result(0, 1).empty());

  EXPECT_TRUE(check_move_value(true, -1, -1).empty());
  EXPECT_FALSE(check_move_value(true, -1, 0).empty());
  EXPECT_TRUE(check_move_value(false, -1, 0).empty());  // estimates are not checked
}

}  // namespace
}  // namespace gtbench
