#include "gtpar/tree/tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gtpar {
namespace {

/// One node's fingerprint term. The inner mix is a bijection of (id, leaf
/// value) and the outer one of (parent, child count) for a given inner
/// word, so a change to any one of these fields changes the term.
std::uint64_t node_mix(NodeId v, NodeId parent, std::uint32_t child_count,
                       Value value) noexcept {
  const std::uint64_t id_value =
      (std::uint64_t{v} << 32) | static_cast<std::uint32_t>(value);
  const std::uint64_t parent_count = (std::uint64_t{parent} << 32) | child_count;
  return mix64(parent_count ^ mix64(id_value));
}

}  // namespace

bool Tree::is_uniform(unsigned d, unsigned n) const noexcept {
  if (empty()) return false;
  for (NodeId v = 0; v < size(); ++v) {
    if (is_leaf(v)) {
      if (depth_[v] != n) return false;
    } else {
      if (child_count_[v] != d) return false;
    }
  }
  return true;
}

std::vector<NodeId> Tree::leaves() const {
  std::vector<NodeId> out;
  out.reserve(num_leaves_);
  // An iterative DFS over the children keeps left-to-right leaf order, whatever the ids.
  std::vector<NodeId> stack{root()};
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (is_leaf(v)) {
      out.push_back(v);
      continue;
    }
    auto cs = children(v);
    for (std::size_t i = cs.size(); i-- > 0;) stack.push_back(cs[i]);
  }
  return out;
}

NodeId TreeBuilder::add_node(NodeId parent) {
  const NodeId id = static_cast<NodeId>(parent_.size());
  parent_.push_back(parent);
  value_.push_back(0);
  child_count_.push_back(0);
  is_leaf_.push_back(0);
  return id;
}

void TreeBuilder::reserve(std::size_t n) {
  parent_.reserve(n);
  value_.reserve(n);
  child_count_.reserve(n);
  is_leaf_.reserve(n);
}

NodeId TreeBuilder::add_root() {
  if (!parent_.empty()) throw std::logic_error("TreeBuilder: root already exists");
  return add_node(kNoNode);
}

NodeId TreeBuilder::add_child(NodeId parent) {
  if (parent >= parent_.size()) throw std::logic_error("TreeBuilder: unknown parent");
  if (is_leaf_[parent])
    throw std::logic_error("TreeBuilder: cannot add a child to a leaf");
  ++child_count_[parent];
  return add_node(parent);
}

void TreeBuilder::set_leaf_value(NodeId v, Value value) {
  if (v >= parent_.size()) throw std::logic_error("TreeBuilder: unknown node");
  if (child_count_[v] != 0)
    throw std::logic_error("TreeBuilder: node with children cannot be a leaf");
  value_[v] = value;
  is_leaf_[v] = 1;
}

Tree TreeBuilder::build() {
  const std::size_t m = parent_.size();
  if (m == 0) throw std::logic_error("TreeBuilder: empty tree");
  // Every internal node starts on the leaf frontier; the sweep below
  // clears it when an internal child shows.
  std::vector<std::uint64_t> leaf_frontier((m + 63) / 64, 0);
  for (std::size_t v = 0; v < m; ++v) {
    if (child_count_[v] != 0) {
      leaf_frontier[v >> 6] |= std::uint64_t{1} << (v & 63);
    } else if (!is_leaf_[v]) {
      throw std::logic_error("TreeBuilder: childless node without a leaf value");
    }
  }

  Tree t;
  t.parent_ = std::move(parent_);
  t.value_ = std::move(value_);
  t.child_count_ = std::move(child_count_);
  t.leaf_frontier_ = std::move(leaf_frontier);
  t.child_begin_.resize(m);
  t.depth_.resize(m);
  t.child_index_.resize(m);
  t.subtree_leaves_.assign(m, 0);

  // Counting layout: a prefix sum of the child counts gives each node's
  // slice of children_.
  std::uint32_t total_children = 0;
  for (std::size_t v = 0; v < m; ++v) {
    t.child_begin_[v] = total_children;
    total_children += t.child_count_[v];
  }
  t.children_.resize(total_children);

  // One forward sweep over the ids fills the slices. Siblings get
  // increasing ids in add_child order, so each lands in its sibling slot,
  // and a parent's id is smaller than its children's, so its depth is
  // known. The same sweep gathers the leaf frontier and the SoA child
  // values: child_values_ mirrors children_ (slot i holds the leaf value
  // of children_[i], 0 for an internal child), giving the batch reductions
  // a contiguous span per parent although sibling ids are not adjacent in
  // value_. It also sums the fingerprint's per-node terms, none of which
  // waits on another's.
  t.child_values_.assign(total_children, 0);
  std::vector<std::uint32_t> placed(m, 0);  // children of each node placed so far
  t.depth_[0] = 0;
  t.child_index_[0] = 0;
  t.height_ = 0;
  std::uint64_t fingerprint = node_mix(0, kNoNode, t.child_count_[0], t.value_[0]);
  for (NodeId v = 1; v < m; ++v) {
    const NodeId p = t.parent_[v];
    const std::uint32_t i = placed[p]++;
    const std::uint32_t slot = t.child_begin_[p] + i;
    t.children_[slot] = v;
    t.child_index_[v] = i;
    t.depth_[v] = t.depth_[p] + 1;
    t.height_ = std::max(t.height_, t.depth_[v]);
    if (t.child_count_[v] == 0) {
      t.child_values_[slot] = t.value_[v];
    } else {
      t.leaf_frontier_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    }
    fingerprint += node_mix(v, p, t.child_count_[v], t.value_[v]);
  }
  t.fingerprint_ = fingerprint;

  // Subtree leaf counts: backward pass (children have larger ids).
  t.num_leaves_ = 0;
  for (NodeId v = static_cast<NodeId>(m); v-- > 0;) {
    if (t.child_count_[v] == 0) {
      t.subtree_leaves_[v] = 1;
      ++t.num_leaves_;
    }
    if (v != 0) t.subtree_leaves_[t.parent_[v]] += t.subtree_leaves_[v];
  }

  is_leaf_.clear();
  return t;
}

}  // namespace gtpar
