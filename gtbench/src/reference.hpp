// gtbench/src/reference.hpp
//
// The benchmark's own evaluators: plain recursive NOR / minimax written
// against nothing but Tree's and TreeSource's public accessors, so every
// answer the program gives is checked against a computation that shares
// none of its search code (no flat kernels, no cascades, no table).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "gtpar/expand/tree_source.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtbench {

/// Value plus the leaves a left-to-right sequential scan evaluated.
struct RefRun {
  gtpar::Value value = 0;
  std::uint64_t leaves = 0;
};

/// Sequential SOLVE on a NOR tree: a leaf is true iff its value is
/// non-zero, an internal node is the NOR of its children, and the scan of
/// a node's children stops at the first true child. Value is 0 or 1.
RefRun ref_solve(const gtpar::Tree& t);

/// Plain recursive alpha-beta (MAX at even depth) over the full window.
RefRun ref_alphabeta(const gtpar::Tree& t);

/// d^floor(n/2): the fewest leaves that prove the root of a B(d,n) NOR
/// tree (Fact 1: a proof tree branches fully on every other level).
std::uint64_t fact1_min_leaves(unsigned d, unsigned n);

/// d^floor(n/2) + d^ceil(n/2) - 1: the fewest leaves any algorithm
/// evaluates to determine the root of an M(d,n) MIN/MAX tree (Fact 2).
std::uint64_t fact2_min_leaves(unsigned d, unsigned n);

/// Memo key of a board drawn as a string over ".XO#P" (the bundled games'
/// board_string alphabets; line breaks are skipped), with the side to move
/// folded in.
std::uint64_t board_key(const std::string& board, unsigned depth);

/// Exact game values of a TreeSource's positions (MAX moves at even
/// depth, values from MAX's point of view), memoised on a caller-supplied
/// key of the *visible* position — the board, not the program's
/// state_key — so the table the engine searches with is not trusted here.
class GameOracle {
 public:
  using KeyFn = std::function<std::uint64_t(const gtpar::TreeSource::Node&)>;
  GameOracle(const gtpar::TreeSource& src, KeyFn key)
      : src_(&src), key_(std::move(key)) {}
  gtpar::Value value(const gtpar::TreeSource::Node& v);
  std::size_t positions() const noexcept { return memo_.size(); }

 private:
  const gtpar::TreeSource* src_;
  KeyFn key_;
  std::unordered_map<std::uint64_t, gtpar::Value> memo_;
};

}  // namespace gtbench
