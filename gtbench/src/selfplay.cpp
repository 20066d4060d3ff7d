// selfplay: complete games at fixed, perfect strength (no wall-clock
// budget) through GameSession, one game at a time. The only workload that
// runs session/ and the games' TreeSources, and the one where the shared
// table is used for reuse across moves (in batch it is pure cost). A game
// starts on a fresh session and an empty table, so no state carries from
// one game to the next.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "gtpar/games/chomp.hpp"
#include "gtpar/games/games.hpp"
#include "gtpar/games/mnk.hpp"
#include "gtpar/session/session.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace gtbench {

namespace {

using Node = gtpar::TreeSource::Node;

// Keeps the timed expansion loops from being optimised away.
volatile std::uint64_t g_sink = 0;

struct Game {
  const char* name;
  std::unique_ptr<gtpar::TreeSource> src;
  gtpar::Value theory;  ///< game-theoretic value (MAX's point of view)
  GameOracle::KeyFn key;
};

std::vector<Game> make_games() {
  std::vector<Game> games;
  auto ttt = std::make_unique<gtpar::TicTacToeSource>();
  games.push_back({"tictactoe", std::move(ttt), 0, [](const Node& v) {
                     return board_key(gtpar::TicTacToeSource::board_string(v), v.depth);
                   }});
  auto drop = std::make_unique<gtpar::DropSource>(4, 3, 3);
  const gtpar::DropSource* d = drop.get();
  games.push_back({"drop-4x3-k3", std::move(drop), 1, [d](const Node& v) {
                     return board_key(d->board_string(v), v.depth);
                   }});
  // A Nim node's path is the number of objects left (games.hpp).
  games.push_back({"nim-21-take3", std::make_unique<gtpar::NimSource>(21, 3),
                   gtpar::NimSource::theoretical_value(21, 3),
                   [](const Node& v) { return v.path * 2 + v.depth % 2; }});
  auto chomp = std::make_unique<gtpar::ChompSource>(3, 3);
  const gtpar::ChompSource* c = chomp.get();
  games.push_back({"chomp-3x3", std::move(chomp),
                   gtpar::ChompSource::theoretical_value(3, 3),
                   [c](const Node& v) { return board_key(c->board_string(v), v.depth); }});
  auto mnk = std::make_unique<gtpar::MnkSource>(4, 3, 3);
  const gtpar::MnkSource* m = mnk.get();
  games.push_back({"mnk-4x3-k3", std::move(mnk), 1, [m](const Node& v) {
                     return board_key(m->board_string(v), v.depth);
                   }});
  return games;
}

// A position the first round's games passed through.
struct Position {
  std::size_t game;
  Node node;
};

// Time the games' node expansion (num_children + child) and move labelling
// over the positions the games passed through.
void add_games_layers(const std::vector<Game>& games,
                      const std::vector<Position>& positions, LayerMetrics& out) {
  constexpr int kReps = 50;
  std::uint64_t sink = 0, calls = 0;
  std::uint64_t t0 = now_ns();
  for (int r = 0; r < kReps; ++r)
    for (const Position& p : positions) {
      const gtpar::TreeSource& src = *games[p.game].src;
      const unsigned n = src.num_children(p.node);
      for (unsigned k = 0; k < n; ++k) sink += src.child(p.node, k).path;
      ++calls;
    }
  std::uint64_t t1 = now_ns();
  trace::record("games.expand", t0, t1, 0, 0);
  out["games.expand_ns"] = {static_cast<double>(t1 - t0) / static_cast<double>(calls),
                            "ns"};
  std::uint64_t labels[64];
  t0 = now_ns();
  for (int r = 0; r < kReps; ++r)
    for (const Position& p : positions) {
      const gtpar::TreeSource& src = *games[p.game].src;
      const unsigned n = std::min(src.num_children(p.node), 64u);
      src.move_labels(p.node, n, labels);
      sink += labels[0];
    }
  t1 = now_ns();
  trace::record("games.labels", t0, t1, 0, 0);
  g_sink = sink;
  out["games.labels_ns"] = {static_cast<double>(t1 - t0) / static_cast<double>(calls),
                            "ns"};
}

}  // namespace

Outcome run_selfplay(const RunOptions& opt) {
  Outcome out;
  std::vector<Game> games = make_games();
  std::vector<GameOracle> oracles;
  oracles.reserve(games.size());
  {
    setup_clock::Exclude reference;
    for (Game& g : games) {
      oracles.emplace_back(*g.src, g.key);
      if (const gtpar::Value v = oracles.back().value(g.src->root()); v != g.theory)
        throw std::runtime_error(std::string("selfplay: reference value of ") +
                                 g.name + " disagrees with its theory");
    }
  }
  gtpar::Engine::Options eo;
  eo.workers = opt.workers;
  gtpar::Engine eng(eo);

  reserve_per_op(out.latency_ns, opt);
  std::vector<Position> positions;
  std::size_t first_round_positions = SIZE_MAX;  // until the first round ends
  std::vector<double> search_us, submit_us;
  double nodes = 0, probes = 0, hits = 0, researches = 0, depth = 0;
  std::uint64_t op = 0;
  const gtpar::EngineStats before = eng.stats();
  TimedPhase phase(opt);
  std::uint64_t done = 0;  // moves completed in the current round
  phase.start();
  do {
    done = 0;
    for (std::size_t g = 0; g < games.size(); ++g) {
      gtpar::GameSession session(eng, *games[g].src);
      bool ok = true;
      while (ok && !session.game_over()) {
        ++out.attempted;
        const Node pos = session.position();
        const std::uint64_t span = trace::new_id();
        const std::uint64_t t0 = now_ns();
        try {
          gtpar::MoveSuggestion m;
          {
            Scope suggest("session.suggest", op, span);
            m = session.SuggestMove(session.to_move(), 0);
          }
          const std::uint64_t t1 = now_ns();
          {
            Scope play("session.play", op, span);
            session.Play(m.move);
          }
          const std::uint64_t t2 = now_ns();
          out.latency_ns.push_back(static_cast<double>(t2 - t0));
          ++done;
          if (std::string why =
                  check_move_value(m.exact, m.value, oracles[g].value(pos));
              !why.empty())
            out.wrong_answer(std::string(games[g].name) + ": " + why);
          if (positions.size() < first_round_positions) positions.push_back({g, pos});
          if (trace::enabled()) {
            trace::record(Span{"selfplay.op", t0, t2, span, 0, op});
            search_us.push_back(static_cast<double>(m.wall_ns) * 1e-3);
            submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3 -
                                search_us.back());
            nodes += static_cast<double>(m.stats.nodes);
            probes += static_cast<double>(m.stats.tt_probes);
            hits += static_cast<double>(m.stats.tt_hits);
            researches += static_cast<double>(m.stats.aspiration_researches);
            depth += m.depth;
          }
        } catch (const std::exception&) {
          ++out.failed;
          ok = false;
        }
        ++op;
      }
      if (ok) {
        if (std::string why = check_game_result(session.game_result(), games[g].theory);
            !why.empty())
          out.wrong_answer(std::string(games[g].name) + ": " + why);
      }
      eng.drain();
      if (gtpar::TranspositionTable* tt = eng.shared_tt()) tt->clear();
    }
    first_round_positions = positions.size();
  } while (phase.next_round(done));
  phase.stop(out);

  if (trace::enabled()) {
    add_engine_layers(before, eng.stats(), out.attempted, 0, out.layers);
    add_games_layers(games, positions, out.layers);
    out.spans = trace::take();
    const double n = static_cast<double>(search_us.size());
    out.layers["session.nodes_per_move"] = {nodes / n, "nodes"};
    out.layers["session.tt_hit_rate"] = {probes == 0 ? 0.0 : hits / probes, "ratio"};
    out.layers["session.researches_per_move"] = {researches / n, "1/op"};
    out.layers["session.depth_per_move"] = {depth / n, "plies"};
    out.layers["session.search_us_p50"] = {percentile(search_us, 50), "us"};
    out.layers["session.submit_us_p50"] = {percentile(submit_us, 50), "us"};
  }
  return out;
}

}  // namespace gtbench
