#include "gtpar/tree/tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gtpar {

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
  // Preorder arena: an iterative DFS preserves left-to-right leaf order.
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
  // value_.
  t.child_values_.assign(total_children, 0);
  std::vector<std::uint32_t> placed(m, 0);  // children of each node placed so far
  t.depth_[0] = 0;
  t.child_index_[0] = 0;
  t.height_ = 0;
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
  }

  // Subtree leaf counts: backward pass (children have larger ids).
  t.num_leaves_ = 0;
  for (NodeId v = static_cast<NodeId>(m); v-- > 0;) {
    if (t.child_count_[v] == 0) {
      t.subtree_leaves_[v] = 1;
      ++t.num_leaves_;
    }
    if (v != 0) t.subtree_leaves_[t.parent_[v]] += t.subtree_leaves_[v];
  }

  // Preorder in/out intervals for the O(1) is_ancestor test. Arena ids are
  // only guaranteed parent-before-child (siblings may interleave with other
  // subtrees when a builder adds children breadth-first), so an explicit
  // DFS assigns the ranks. pre_out_[v] is the largest rank in v's subtree:
  // every node of the subtree lands in [pre_in_[v], pre_out_[v]].
  t.pre_in_.resize(m);
  t.pre_out_.resize(m);
  {
    std::uint32_t counter = 0;
    // (node, next child index) frames; depth-bounded.
    std::vector<std::pair<NodeId, std::uint32_t>> stack;
    stack.reserve(t.height_ + 1);
    stack.emplace_back(0, 0);
    t.pre_in_[0] = counter++;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < t.child_count_[v]) {
        const NodeId c = t.children_[t.child_begin_[v] + next++];
        t.pre_in_[c] = counter++;
        stack.emplace_back(c, 0);
      } else {
        t.pre_out_[v] = counter - 1;
        stack.pop_back();
      }
    }
  }

  // Content fingerprint: shape (child counts in preorder interleaved with
  // arena parents) and leaf values, folded through the splittable hash.
  {
    std::uint64_t h = mix64(0x67747061725f7470ull ^ m);
    for (NodeId v = 0; v < m; ++v) {
      h = hash_combine(h, (static_cast<std::uint64_t>(t.child_count_[v]) << 32) |
                              t.pre_in_[v]);
      if (t.child_count_[v] == 0)
        h = hash_combine(h, static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(t.value_[v])));
    }
    t.fingerprint_ = h;
  }

  is_leaf_.clear();
  return t;
}

}  // namespace gtpar
