#include "gtpar/tree/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

/// A builder with room for a uniform d-ary tree of height n: the sum of d^i
/// for i = 0..n nodes. A count past what a NodeId numbers reserves nothing.
TreeBuilder uniform_builder(unsigned d, unsigned n) {
  TreeBuilder b;
  std::uint64_t nodes = 0;
  for (unsigned i = 0; i <= n && nodes <= kNoNode; ++i) nodes = nodes * d + 1;
  if (nodes <= kNoNode) b.reserve(nodes);
  return b;
}

/// Recursive uniform construction. Leaves are numbered left-to-right.
void build_uniform(TreeBuilder& b, NodeId v, unsigned d, unsigned depth, unsigned n,
                   std::uint64_t& next_leaf, const LeafFn& leaf_fn) {
  if (depth == n) {
    b.set_leaf_value(v, leaf_fn(next_leaf++));
    return;
  }
  for (unsigned i = 0; i < d; ++i) {
    const NodeId c = b.add_child(v);
    build_uniform(b, c, d, depth + 1, n, next_leaf, leaf_fn);
  }
}

/// Assigns values for the all-leaves-evaluated worst case: a node with
/// target value 1 gives all children target 0; a node with target 0 gives
/// its first d-1 children target 0 and its last child target 1. Under
/// left-to-right NOR evaluation no prefix of children ever contains a 1, so
/// nothing is skipped.
void build_worst_nor(TreeBuilder& b, NodeId v, unsigned d, unsigned depth, unsigned n,
                     bool target) {
  if (depth == n) {
    b.set_leaf_value(v, target ? 1 : 0);
    return;
  }
  for (unsigned i = 0; i < d; ++i) {
    const NodeId c = b.add_child(v);
    const bool child_target = target ? false : (i == d - 1);
    build_worst_nor(b, c, d, depth + 1, n, child_target);
  }
}

/// Best case: a value-0 node places its single 1-child first (Sequential
/// SOLVE stops immediately after it); a value-1 node has all-0 children.
/// Children after the first 1-child of a 0-node are never visited by
/// Sequential SOLVE and are filled i.i.d.
void build_best_nor(TreeBuilder& b, NodeId v, unsigned d, unsigned depth, unsigned n,
                    bool target, double filler_p, std::uint64_t seed,
                    std::uint64_t& filler_leaf, bool on_proof_path) {
  if (depth == n) {
    if (on_proof_path) {
      b.set_leaf_value(v, target ? 1 : 0);
    } else {
      const double u = to_unit_double(mix64(hash_combine(seed, ++filler_leaf)));
      b.set_leaf_value(v, u < filler_p ? 1 : 0);
    }
    return;
  }
  for (unsigned i = 0; i < d; ++i) {
    const NodeId c = b.add_child(v);
    if (!on_proof_path) {
      build_best_nor(b, c, d, depth + 1, n, false, filler_p, seed, filler_leaf, false);
      continue;
    }
    if (target) {
      // All children are on the proof path with value 0.
      build_best_nor(b, c, d, depth + 1, n, false, filler_p, seed, filler_leaf, true);
    } else {
      // Only the first child (value 1) is on the proof path.
      if (i == 0) {
        build_best_nor(b, c, d, depth + 1, n, true, filler_p, seed, filler_leaf, true);
      } else {
        build_best_nor(b, c, d, depth + 1, n, false, filler_p, seed, filler_leaf, false);
      }
    }
  }
}

/// Nested-range construction for adversarial MIN/MAX orderings.
/// At a MAX node, child values must appear in increasing order for
/// alpha-beta to prune nothing (worst case) and in decreasing order for the
/// perfect-ordering best case; at MIN nodes the orders flip. `ascending`
/// selects worst (true) vs best (false) at MAX nodes.
Value build_ordered_minimax(TreeBuilder& b, NodeId v, unsigned d, unsigned depth,
                            unsigned n, std::int64_t lo, std::int64_t hi,
                            bool ascending) {
  if (depth == n) {
    const auto mid = static_cast<Value>((lo + hi) / 2);
    b.set_leaf_value(v, mid);
    return mid;
  }
  const bool maxing = (depth % 2 == 0);
  const std::int64_t width = (hi - lo) / d;
  if (width < 1)
    throw std::invalid_argument(
        "ordered minimax: value range too small for d^n distinct slices");
  Value result = 0;
  for (unsigned i = 0; i < d; ++i) {
    const NodeId c = b.add_child(v);
    // Slice index in value space: increasing child values at MAX nodes
    // means child i takes slice i; decreasing means slice d-1-i. MIN nodes
    // flip the requirement.
    const bool child_values_increase = maxing ? ascending : !ascending;
    const unsigned slice = child_values_increase ? i : d - 1 - i;
    const std::int64_t clo = lo + static_cast<std::int64_t>(slice) * width;
    const std::int64_t chi = clo + width;
    const Value val = build_ordered_minimax(b, c, d, depth + 1, n, clo, chi, ascending);
    if (i == 0) {
      result = val;
    } else {
      result = maxing ? std::max(result, val) : std::min(result, val);
    }
  }
  return result;
}

void build_random_shape(TreeBuilder& b, NodeId v, const RandomShapeParams& p,
                        unsigned depth, std::uint64_t seed, std::uint64_t path,
                        const std::function<Value(std::uint64_t)>& leaf_fn) {
  const std::uint64_t h = mix64(hash_combine(seed, path));
  const bool make_leaf =
      depth >= p.n_max ||
      (depth >= p.n_min && to_unit_double(h) < p.early_leaf_prob);
  if (make_leaf) {
    b.set_leaf_value(v, leaf_fn(path));
    return;
  }
  const unsigned span = p.d_max - p.d_min + 1;
  const unsigned degree = p.d_min + static_cast<unsigned>(mix64(h ^ 0x5bf0u) % span);
  for (unsigned i = 0; i < degree; ++i) {
    const NodeId c = b.add_child(v);
    build_random_shape(b, c, p, depth + 1, seed,
                       hash_combine(path, 0x100 + i), leaf_fn);
  }
}

/// Deep-copies the subtree of `src` rooted at `sv` into builder `b` under
/// the freshly created node `dv`, applying `reorder` to every child list.
void copy_reordered(const Tree& src, NodeId sv, TreeBuilder& b, NodeId dv,
                    const std::function<void(NodeId, std::span<NodeId>)>& reorder) {
  if (src.is_leaf(sv)) {
    b.set_leaf_value(dv, src.leaf_value(sv));
    return;
  }
  auto cs = src.children(sv);
  std::vector<NodeId> order(cs.begin(), cs.end());
  reorder(sv, order);
  for (NodeId sc : order) {
    const NodeId dc = b.add_child(dv);
    copy_reordered(src, sc, b, dc, reorder);
  }
}

}  // namespace

std::uint64_t uniform_leaf_count(unsigned d, unsigned n) {
  std::uint64_t r = 1;
  for (unsigned i = 0; i < n; ++i) {
    if (r > std::numeric_limits<std::uint64_t>::max() / d)
      throw std::overflow_error("uniform_leaf_count overflow");
    r *= d;
  }
  return r;
}

Tree make_uniform(unsigned d, unsigned n, const LeafFn& leaf_fn) {
  if (d == 0) throw std::invalid_argument("make_uniform: d must be >= 1");
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  std::uint64_t next_leaf = 0;
  build_uniform(b, r, d, 0, n, next_leaf, leaf_fn);
  return b.build();
}

Tree make_uniform_iid_nor(unsigned d, unsigned n, double p_one, std::uint64_t seed) {
  return make_uniform(d, n, [=](std::uint64_t i) -> Value {
    return to_unit_double(mix64(hash_combine(seed, i))) < p_one ? 1 : 0;
  });
}

Tree make_uniform_iid_minimax(unsigned d, unsigned n, Value lo, Value hi,
                              std::uint64_t seed) {
  if (lo > hi) throw std::invalid_argument("make_uniform_iid_minimax: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return make_uniform(d, n, [=](std::uint64_t i) -> Value {
    return static_cast<Value>(static_cast<std::int64_t>(lo) +
                              static_cast<std::int64_t>(mix64(hash_combine(seed, i)) % span));
  });
}

Tree make_uniform_constant(unsigned d, unsigned n, Value value) {
  return make_uniform(d, n, [=](std::uint64_t) { return value; });
}

Tree make_uniform_from_values(unsigned d, unsigned n, std::span<const Value> values) {
  if (values.size() != uniform_leaf_count(d, n))
    throw std::invalid_argument("make_uniform_from_values: wrong number of leaf values");
  return make_uniform(d, n, [values](std::uint64_t i) { return values[i]; });
}

double golden_bias() { return (std::sqrt(5.0) - 1.0) / 2.0; }

Tree make_worst_case_nor(unsigned d, unsigned n, bool root_value) {
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  build_worst_nor(b, r, d, 0, n, root_value);
  return b.build();
}

Tree make_best_case_nor(unsigned d, unsigned n, bool root_value, double filler_p_one,
                        std::uint64_t seed) {
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  std::uint64_t filler_leaf = 0;
  build_best_nor(b, r, d, 0, n, root_value, filler_p_one, seed, filler_leaf, true);
  return b.build();
}

Tree make_worst_case_minimax(unsigned d, unsigned n) {
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  // Leave ample room: d^n distinct slices inside a 2^40 range.
  build_ordered_minimax(b, r, d, 0, n, 0, std::int64_t{1} << 30, /*ascending=*/true);
  return b.build();
}

Tree make_best_case_minimax(unsigned d, unsigned n) {
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  build_ordered_minimax(b, r, d, 0, n, 0, std::int64_t{1} << 30, /*ascending=*/false);
  return b.build();
}

Tree make_random_shape_nor(const RandomShapeParams& params, double p_one,
                           std::uint64_t seed) {
  TreeBuilder b;
  const NodeId r = b.add_root();
  build_random_shape(b, r, params, 0, seed, /*path=*/1,
                     [=](std::uint64_t path) -> Value {
                       return to_unit_double(mix64(hash_combine(seed ^ 0xabcdu, path))) < p_one
                                  ? 1
                                  : 0;
                     });
  return b.build();
}

Tree make_random_shape_minimax(const RandomShapeParams& params, Value lo, Value hi,
                               std::uint64_t seed) {
  if (lo > hi) throw std::invalid_argument("make_random_shape_minimax: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  TreeBuilder b;
  const NodeId r = b.add_root();
  build_random_shape(b, r, params, 0, seed, /*path=*/1,
                     [=](std::uint64_t path) -> Value {
                       return static_cast<Value>(
                           static_cast<std::int64_t>(lo) +
                           static_cast<std::int64_t>(
                               mix64(hash_combine(seed ^ 0x1234u, path)) % span));
                     });
  return b.build();
}

namespace {

void build_correlated(TreeBuilder& b, NodeId v, unsigned d, unsigned depth, unsigned n,
                      Value accumulated, Value step, std::uint64_t seed,
                      std::uint64_t path) {
  if (depth == n) {
    b.set_leaf_value(v, accumulated);
    return;
  }
  const std::uint64_t span = 2 * static_cast<std::uint64_t>(step) + 1;
  for (unsigned i = 0; i < d; ++i) {
    const NodeId c = b.add_child(v);
    const std::uint64_t child_path = hash_combine(path, 0x2000 + i);
    const Value delta = static_cast<Value>(
        static_cast<std::int64_t>(mix64(hash_combine(seed, child_path)) % span) - step);
    build_correlated(b, c, d, depth + 1, n, accumulated + delta, step, seed,
                     child_path);
  }
}

}  // namespace

Tree make_correlated_minimax(unsigned d, unsigned n, Value step, std::uint64_t seed) {
  if (step < 0) throw std::invalid_argument("make_correlated_minimax: step < 0");
  TreeBuilder b = uniform_builder(d, n);
  const NodeId r = b.add_root();
  build_correlated(b, r, d, 0, n, 0, step, seed, /*path=*/1);
  return b.build();
}

Tree reorder_children(const Tree& t,
                      const std::function<void(NodeId, std::span<NodeId>)>& reorder) {
  TreeBuilder b;
  b.reserve(t.size());
  const NodeId r = b.add_root();
  copy_reordered(t, t.root(), b, r, reorder);
  return b.build();
}

Tree shuffle_children(const Tree& t, std::uint64_t seed) {
  return reorder_children(t, [&](NodeId v, std::span<NodeId> order) {
    // Fisher-Yates with per-node deterministic randomness.
    std::uint64_t h = mix64(hash_combine(seed, v));
    for (std::size_t i = order.size(); i > 1; --i) {
      h = mix64(h);
      std::swap(order[i - 1], order[h % i]);
    }
  });
}

Tree make_ordered_iid_minimax(unsigned d, unsigned n, Value lo, Value hi,
                              std::uint64_t seed, double ordering_quality) {
  const Tree base = make_uniform_iid_minimax(d, n, lo, hi, seed);
  const std::vector<Value> vals = minimax_values(base);
  return reorder_children(base, [&](NodeId v, std::span<NodeId> order) {
    const std::uint64_t h = mix64(hash_combine(seed ^ 0x9999u, v));
    if (to_unit_double(h) < ordering_quality) {
      // Best-first: at MAX nodes, highest child value first; at MIN nodes,
      // lowest first. Stable sort keeps the generator deterministic.
      const bool maxing = node_kind(base, v) == NodeKind::Max;
      std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId c) {
        return maxing ? vals[a] > vals[c] : vals[a] < vals[c];
      });
    } else {
      std::uint64_t g = mix64(h ^ 0x7777u);
      for (std::size_t i = order.size(); i > 1; --i) {
        g = mix64(g);
        std::swap(order[i - 1], order[g % i]);
      }
    }
  });
}

}  // namespace gtpar
