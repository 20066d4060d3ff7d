// gtpar/tree/tree.hpp
//
// Arena-based rooted ordered trees — the substrate every algorithm in this
// library operates on. A Tree is immutable once built; construction goes
// through TreeBuilder. Children of every node are stored contiguously, so
// iteration over children is a span lookup, and all per-node attributes
// (parent, depth, child index, subtree-leaf counts) are O(1).
//
// A Tree carries leaf values of type Value (int32). Boolean NOR/AND-OR
// trees simply restrict leaf values to {0, 1}; MIN/MAX trees use the full
// range. Node "kinds" (MAX at even depth, MIN at odd depth — the paper's
// convention) are derived from depth, not stored.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "gtpar/common.hpp"

namespace gtpar {

class TreeBuilder;

/// Immutable rooted ordered tree with values on leaves.
///
/// Invariants (checked by TreeBuilder::build):
///  - node 0 is the root;
///  - every non-root node has a valid parent with a smaller id (not always preorder);
///  - children of a node are stored contiguously and in order;
///  - leaves (and only leaves) have zero children.
class Tree {
 public:
  Tree() = default;

  /// Number of nodes (0 for a default-constructed empty tree).
  std::size_t size() const noexcept { return parent_.size(); }
  bool empty() const noexcept { return parent_.empty(); }

  NodeId root() const noexcept {
    assert(!empty());
    return 0;
  }

  /// Parent of v, or kNoNode for the root.
  NodeId parent(NodeId v) const noexcept { return parent_[v]; }

  /// Children of v in left-to-right order (empty span for a leaf).
  std::span<const NodeId> children(NodeId v) const noexcept {
    return {children_.data() + child_begin_[v], child_count_[v]};
  }

  std::size_t num_children(NodeId v) const noexcept { return child_count_[v]; }

  NodeId child(NodeId v, std::size_t i) const noexcept {
    assert(i < child_count_[v]);
    return children_[child_begin_[v] + i];
  }

  bool is_leaf(NodeId v) const noexcept { return child_count_[v] == 0; }

  /// Value stored on leaf v. Asserts that v is a leaf.
  Value leaf_value(NodeId v) const noexcept {
    assert(is_leaf(v));
    return value_[v];
  }

  /// Distance of v from the root (root has depth 0).
  unsigned depth(NodeId v) const noexcept { return depth_[v]; }

  /// Position of v among its siblings (root has index 0).
  std::size_t child_index(NodeId v) const noexcept { return child_index_[v]; }

  /// Height of the tree: max depth over all nodes. 0 for a single node.
  unsigned height() const noexcept { return height_; }

  /// Total number of leaves.
  std::size_t num_leaves() const noexcept { return num_leaves_; }

  /// Number of leaves in the subtree rooted at v (1 if v is a leaf).
  std::size_t subtree_leaves(NodeId v) const noexcept { return subtree_leaves_[v]; }

  /// True iff `a` is an ancestor of `v` (a node is an ancestor of itself,
  /// matching the paper's convention). Walks v's parent chain, O(depth(v)):
  /// ids fall along the chain down to the root's 0, so the walk stops at
  /// the first id not above `a`.
  bool is_ancestor(NodeId a, NodeId v) const noexcept {
    while (v > a) v = parent_[v];
    return v == a;
  }

  /// True iff v is internal and every child of v is a leaf — v sits on the
  /// "leaf frontier". Precomputed at build into a packed bitset; the flat
  /// kernels (solve/flat_kernels.hpp) use it to route such nodes to the
  /// vectorized batch reductions (solve/batch_kernels.hpp) instead of
  /// pushing one stack frame per child.
  bool is_leaf_frontier(NodeId v) const noexcept {
    return (leaf_frontier_[v >> 6] >> (v & 63)) & 1u;
  }

  /// Content fingerprint: a 64-bit hash of the arena, computed once at
  /// build time as the sum over all nodes of one independent mix each of
  /// (id, parent, child count, leaf value). Equal arenas share a
  /// fingerprint, which is what lets a shared transposition table
  /// (engine/tt.hpp) reuse exact subtree values across concurrent searches
  /// of the same position. Because ids are hashed, it identifies the
  /// arena's numbering too: the same tree numbered in another order hashes
  /// differently. Changing one leaf's value always changes it: only that
  /// node's mix moves, and the mix is a bijection of the value.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Raw arena arrays for allocation-free hot loops (solve/flat_kernels.hpp):
  /// plain index arithmetic, no span construction, no virtual calls. The
  /// pointers alias the Tree's internal storage and share its lifetime.
  struct HotView {
    const NodeId* parent;
    const std::uint32_t* child_begin;
    const std::uint32_t* child_count;
    const NodeId* children;
    const Value* value;
    const std::uint32_t* subtree_leaves;
    const unsigned* depth;
    /// SoA gather of each child's leaf value, parallel to `children`:
    /// child_values[i] == value[children[i]] when that child is a leaf
    /// (0 otherwise — internal children have no meaningful value). Sibling
    /// NodeIds are not consecutive in `value`, so this build-time gather is
    /// what makes a node's children a contiguous span the batch reductions
    /// can stream through.
    const Value* child_values;
    /// Packed "all children are leaves" bitset, one bit per node
    /// (see Tree::is_leaf_frontier).
    const std::uint64_t* leaf_frontier;
  };
  HotView hot_view() const noexcept {
    return {parent_.data(),   child_begin_.data(),    child_count_.data(),
            children_.data(), value_.data(),          subtree_leaves_.data(),
            depth_.data(),    child_values_.data(),   leaf_frontier_.data()};
  }

  /// True iff every internal node has exactly d children and every leaf has
  /// depth exactly n — membership in the paper's B(d,n) / M(d,n) families
  /// (up to leaf values).
  bool is_uniform(unsigned d, unsigned n) const noexcept;

  /// All leaves of the tree in left-to-right order.
  std::vector<NodeId> leaves() const;

 private:
  friend class TreeBuilder;

  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> child_begin_;
  std::vector<std::uint32_t> child_count_;
  std::vector<NodeId> children_;  // flat, grouped by parent
  std::vector<Value> value_;      // meaningful for leaves only
  std::vector<unsigned> depth_;
  std::vector<std::uint32_t> child_index_;
  std::vector<std::uint32_t> subtree_leaves_;
  std::vector<Value> child_values_;     // SoA leaf-value gather, parallel to children_
  std::vector<std::uint64_t> leaf_frontier_;  // packed all-children-are-leaves bits
  unsigned height_ = 0;
  std::size_t num_leaves_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Incremental construction of a Tree.
///
/// Usage:
///   TreeBuilder b;
///   NodeId r = b.add_root();
///   NodeId c0 = b.add_child(r);         // internal until given a value
///   b.set_leaf_value(c0, 1);            // marks c0 as a leaf
///   Tree t = b.build();                 // validates and freezes
///
/// Children must be added parent-first (the parent id must already exist);
/// sibling order is the order of add_child calls. build() verifies that
/// every node is either a leaf with a value or an internal node with >= 1
/// child.
///
/// The builder keeps only flat per-node arrays (parent, value, child count,
/// leaf flag); build() lays out the children in one counting pass, so
/// construction makes no per-node heap allocation.
class TreeBuilder {
 public:
  /// Create the root. Must be called exactly once, first.
  NodeId add_root();

  /// Append a new rightmost child under `parent`.
  NodeId add_child(NodeId parent);

  /// Mark v as a leaf carrying `value`. A node with children cannot be
  /// given a value.
  void set_leaf_value(NodeId v, Value value);

  std::size_t size() const noexcept { return parent_.size(); }

  /// Make room for n nodes, so that adding up to n makes no reallocation.
  void reserve(std::size_t n);

  /// Validate and produce the immutable Tree. The builder is left empty.
  Tree build();

 private:
  NodeId add_node(NodeId parent);

  std::vector<NodeId> parent_;
  std::vector<Value> value_;
  std::vector<std::uint32_t> child_count_;
  std::vector<std::uint8_t> is_leaf_;  // set by set_leaf_value
};

/// Node kind under the paper's game-tree convention: the root is a MAX
/// node, internal nodes alternate by depth. Leaves have no kind; callers
/// that need one use the depth parity of the leaf's parent.
enum class NodeKind : std::uint8_t { Max, Min };

/// Kind of the internal node v (derived from depth parity).
inline NodeKind node_kind(const Tree& t, NodeId v) noexcept {
  return (t.depth(v) % 2 == 0) ? NodeKind::Max : NodeKind::Min;
}

}  // namespace gtpar
