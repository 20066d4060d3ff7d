#include "reference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gtbench {

using gtpar::NodeId;
using gtpar::Tree;
using gtpar::Value;

namespace {

bool solve_node(const Tree& t, NodeId v, std::uint64_t& leaves) {
  if (t.is_leaf(v)) {
    ++leaves;
    return t.leaf_value(v) != 0;
  }
  for (std::size_t i = 0; i < t.num_children(v); ++i)
    if (solve_node(t, t.child(v, i), leaves)) return false;
  return true;
}

Value ab_node(const Tree& t, NodeId v, Value alpha, Value beta,
              std::uint64_t& leaves) {
  if (t.is_leaf(v)) {
    ++leaves;
    return t.leaf_value(v);
  }
  const bool maxing = t.depth(v) % 2 == 0;
  Value best = maxing ? std::numeric_limits<Value>::min()
                      : std::numeric_limits<Value>::max();
  for (std::size_t i = 0; i < t.num_children(v); ++i) {
    const Value c = ab_node(t, t.child(v, i), alpha, beta, leaves);
    if (maxing) {
      best = std::max(best, c);
      alpha = std::max(alpha, c);
    } else {
      best = std::min(best, c);
      beta = std::min(beta, c);
    }
    if (alpha >= beta) break;
  }
  return best;
}

std::uint64_t ipow(std::uint64_t d, unsigned e) {
  std::uint64_t r = 1;
  while (e-- > 0) r *= d;
  return r;
}

}  // namespace

RefRun ref_solve(const Tree& t) {
  RefRun r;
  r.value = solve_node(t, t.root(), r.leaves) ? 1 : 0;
  return r;
}

RefRun ref_alphabeta(const Tree& t) {
  RefRun r;
  r.value = ab_node(t, t.root(), std::numeric_limits<Value>::min(),
                    std::numeric_limits<Value>::max(), r.leaves);
  return r;
}

std::uint64_t fact1_min_leaves(unsigned d, unsigned n) { return ipow(d, n / 2); }

std::uint64_t fact2_min_leaves(unsigned d, unsigned n) {
  return ipow(d, n / 2) + ipow(d, (n + 1) / 2) - 1;
}

std::uint64_t board_key(const std::string& board, unsigned depth) {
  static const std::string kAlphabet = ".XO#P";
  std::uint64_t key = 0;
  for (char c : board) {
    if (c == '\n') continue;
    const std::size_t digit = kAlphabet.find(c);
    if (digit == std::string::npos)
      throw std::invalid_argument("board_key: unexpected square '" +
                                  std::string(1, c) + "'");
    key = key * kAlphabet.size() + digit;
  }
  return key * 2 + depth % 2;
}

Value GameOracle::value(const gtpar::TreeSource::Node& v) {
  const std::uint64_t key = key_(v);
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  const unsigned d = src_->num_children(v);
  Value out;
  if (d == 0) {
    out = src_->leaf_value(v);
  } else {
    const bool maxing = v.depth % 2 == 0;
    out = value(src_->child(v, 0));
    for (unsigned i = 1; i < d; ++i) {
      const Value c = value(src_->child(v, i));
      out = maxing ? std::max(out, c) : std::min(out, c);
    }
  }
  memo_.emplace(key, out);
  return out;
}

}  // namespace gtbench
