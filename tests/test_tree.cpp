// Unit tests for the Tree arena and TreeBuilder invariants.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/tree.hpp"

namespace gtpar {
namespace {

TEST(TreeBuilder, SingleLeafTree) {
  TreeBuilder b;
  const NodeId r = b.add_root();
  b.set_leaf_value(r, 7);
  const Tree t = b.build();
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.is_leaf(t.root()));
  EXPECT_EQ(t.leaf_value(t.root()), 7);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.num_leaves(), 1u);
  EXPECT_EQ(t.parent(t.root()), kNoNode);
}

TEST(TreeBuilder, HandBuiltShape) {
  // root -> (a -> (x, y), b)
  TreeBuilder b;
  const NodeId r = b.add_root();
  const NodeId a = b.add_child(r);
  const NodeId bb = b.add_child(r);
  const NodeId x = b.add_child(a);
  const NodeId y = b.add_child(a);
  b.set_leaf_value(x, 1);
  b.set_leaf_value(y, 0);
  b.set_leaf_value(bb, 1);
  const Tree t = b.build();

  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.num_children(r), 2u);
  EXPECT_EQ(t.child(r, 0), a);
  EXPECT_EQ(t.child(r, 1), bb);
  EXPECT_EQ(t.parent(x), a);
  EXPECT_EQ(t.depth(x), 2u);
  EXPECT_EQ(t.depth(bb), 1u);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.child_index(y), 1u);
  EXPECT_EQ(t.child_index(bb), 1u);
  EXPECT_EQ(t.num_leaves(), 3u);
  EXPECT_EQ(t.subtree_leaves(a), 2u);
  EXPECT_EQ(t.subtree_leaves(r), 3u);
  EXPECT_TRUE(t.is_ancestor(r, x));
  EXPECT_TRUE(t.is_ancestor(x, x));
  EXPECT_FALSE(t.is_ancestor(a, bb));
}

TEST(TreeBuilder, RejectsInvalidConstruction) {
  TreeBuilder b;
  EXPECT_THROW(b.build(), std::logic_error);  // empty
  const NodeId r = b.add_root();
  EXPECT_THROW(b.add_root(), std::logic_error);  // duplicate root
  EXPECT_THROW(b.build(), std::logic_error);     // childless without value
  const NodeId c = b.add_child(r);
  EXPECT_THROW(b.set_leaf_value(r, 1), std::logic_error);  // internal as leaf
  b.set_leaf_value(c, 1);
  EXPECT_THROW(b.add_child(c), std::logic_error);  // child under a leaf
  EXPECT_NO_THROW(b.build());
}

TEST(Tree, LeavesInLeftToRightOrder) {
  const Tree t = make_uniform(3, 2, [](std::uint64_t i) { return Value(i); });
  const auto ls = t.leaves();
  ASSERT_EQ(ls.size(), 9u);
  for (std::size_t i = 0; i < ls.size(); ++i) {
    EXPECT_EQ(t.leaf_value(ls[i]), Value(i)) << "leaf " << i;
  }
}

TEST(Tree, IsUniformDetectsShape) {
  EXPECT_TRUE(make_uniform_constant(2, 5, 0).is_uniform(2, 5));
  EXPECT_FALSE(make_uniform_constant(2, 5, 0).is_uniform(2, 4));
  EXPECT_FALSE(make_uniform_constant(2, 5, 0).is_uniform(3, 5));
  const Tree ragged = parse_tree("((1 0) 1)");
  EXPECT_FALSE(ragged.is_uniform(2, 2));
}

TEST(Tree, UniformSizesMatchClosedForm) {
  for (unsigned d = 2; d <= 4; ++d) {
    for (unsigned n = 0; n <= 6; ++n) {
      const Tree t = make_uniform_constant(d, n, 0);
      std::uint64_t nodes = 0, power = 1;
      for (unsigned i = 0; i <= n; ++i) {
        nodes += power;
        power *= d;
      }
      EXPECT_EQ(t.size(), nodes) << "d=" << d << " n=" << n;
      EXPECT_EQ(t.num_leaves(), uniform_leaf_count(d, n));
      EXPECT_EQ(t.height(), n);
    }
  }
}

TEST(Tree, DepthsAndKindsAlternate) {
  const Tree t = make_uniform_constant(2, 3, 0);
  EXPECT_EQ(node_kind(t, t.root()), NodeKind::Max);
  for (NodeId c : t.children(t.root())) {
    EXPECT_EQ(node_kind(t, c), NodeKind::Min);
    for (NodeId g : t.children(c)) EXPECT_EQ(node_kind(t, g), NodeKind::Max);
  }
}

TEST(Tree, IsAncestorBasics) {
  const Tree t = make_uniform_constant(2, 3, 0);
  const NodeId root = t.root();
  EXPECT_TRUE(t.is_ancestor(root, root)) << "every node is its own ancestor";
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_TRUE(t.is_ancestor(root, v));
    if (v != root) {
      EXPECT_FALSE(t.is_ancestor(v, root));
    }
  }
  // Siblings are never ancestors of each other.
  const auto kids = t.children(root);
  EXPECT_FALSE(t.is_ancestor(kids[0], kids[1]));
  EXPECT_FALSE(t.is_ancestor(kids[1], kids[0]));
}

TEST(Tree, IsAncestorOnBreadthFirstAndRaggedArenas) {
  // Ids need only put each parent before its children. Number B(2,4)
  // breadth-first, so that subtrees interleave, and add ragged preorder
  // shapes; check every pair against a walk to the root.
  std::vector<Tree> trees;
  {
    TreeBuilder b;
    std::vector<NodeId> level{b.add_root()};
    for (int depth = 0; depth < 4; ++depth) {
      std::vector<NodeId> next;
      for (NodeId v : level) {
        next.push_back(b.add_child(v));
        next.push_back(b.add_child(v));
      }
      level = next;
    }
    for (NodeId v : level) b.set_leaf_value(v, 0);
    trees.push_back(b.build());
  }
  RandomShapeParams p;
  p.d_min = 1;
  p.d_max = 4;
  p.n_min = 2;
  p.n_max = 6;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    trees.push_back(make_random_shape_nor(p, 0.5, seed));
  for (std::size_t k = 0; k < trees.size(); ++k) {
    const Tree& t = trees[k];
    for (NodeId a = 0; a < t.size(); ++a) {
      for (NodeId v = 0; v < t.size(); ++v) {
        bool expected = false;
        for (NodeId u = v; u != kNoNode; u = t.parent(u)) expected |= u == a;
        ASSERT_EQ(t.is_ancestor(a, v), expected)
            << "tree " << k << " a=" << a << " v=" << v;
      }
    }
  }
}

TEST(Tree, FingerprintTracksContent) {
  // Same shape + leaf values -> same fingerprint; flipping one leaf or
  // changing the shape changes it.
  const Tree a = make_uniform_iid_nor(2, 6, 0.5, 11);
  const Tree b = make_uniform_iid_nor(2, 6, 0.5, 11);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  const Tree c = make_uniform_iid_nor(2, 6, 0.5, 12);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  const Tree d = make_uniform_iid_nor(2, 7, 0.5, 11);
  EXPECT_NE(a.fingerprint(), d.fingerprint());
  // A one-node tree is only its root, so the root's value counts too.
  EXPECT_NE(parse_tree("5").fingerprint(), parse_tree("7").fingerprint());
}

// A tree's arena: each node's parent, leafness and leaf value, by id.
struct Arena {
  std::vector<NodeId> parent;
  std::vector<bool> leaf;
  std::vector<Value> value;
};

Arena arena_of(const Tree& t) {
  Arena a;
  for (NodeId v = 0; v < t.size(); ++v) {
    a.parent.push_back(t.parent(v));
    a.leaf.push_back(t.is_leaf(v));
    a.value.push_back(t.is_leaf(v) ? t.leaf_value(v) : 0);
  }
  return a;
}

// Builds the arena with the same ids: node v is the v-th node added, so
// siblings keep their id order.
Tree build_arena(const Arena& a) {
  TreeBuilder b;
  b.add_root();
  for (NodeId v = 1; v < a.parent.size(); ++v) b.add_child(a.parent[v]);
  for (NodeId v = 0; v < a.parent.size(); ++v)
    if (a.leaf[v]) b.set_leaf_value(v, a.value[v]);
  return b.build();
}

TEST(Tree, FingerprintIsAContentHashOfTheArena) {
  RandomShapeParams p;
  p.d_min = 1;
  p.d_max = 4;
  p.n_min = 2;
  p.n_max = 5;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (const bool minimax : {false, true}) {
      const Tree t = minimax ? make_random_shape_minimax(p, -50, 50, seed)
                             : make_random_shape_nor(p, 0.5, seed);
      const std::uint64_t fp = t.fingerprint();
      const Arena arena = arena_of(t);
      ASSERT_EQ(build_arena(arena).fingerprint(), fp) << "seed " << seed;
      ASSERT_EQ(parse_tree(to_string(t)).fingerprint(), fp) << "seed " << seed;
      for (NodeId v = 0; v < t.size(); ++v) {
        if (!arena.leaf[v]) continue;
        const NodeId pv = arena.parent[v];
        std::vector<std::pair<const char*, Arena>> edits;
        edits.emplace_back("new value", arena);
        edits.back().second.value[v] = minimax ? arena.value[v] + 1 : 1 - arena.value[v];
        // Moved under the nearest other internal node with a smaller id,
        // when its parent keeps a child.
        for (NodeId u = v; t.num_children(pv) > 1 && u-- > 0;) {
          if (!arena.leaf[u] && u != pv) {
            edits.emplace_back("new parent", arena);
            edits.back().second.parent[v] = u;
            break;
          }
        }
        // Two edits that keep every child count and the multiset of leaf
        // values, with the next leaf: swapping their values (only the ids
        // tell sibling leaves apart), and swapping their parents.
        NodeId w = v + 1;
        while (w < t.size() && !arena.leaf[w]) ++w;
        if (w < t.size() && arena.value[w] != arena.value[v]) {
          edits.emplace_back("values swapped", arena);
          std::swap(edits.back().second.value[v], edits.back().second.value[w]);
        }
        if (w < t.size() && arena.parent[w] != pv && arena.parent[w] < v) {
          edits.emplace_back("parents swapped", arena);
          std::swap(edits.back().second.parent[v], edits.back().second.parent[w]);
        }
        for (const auto& [what, edited] : edits) {
          const Tree e = build_arena(edited);
          ASSERT_EQ(e.size(), t.size());
          EXPECT_NE(e.fingerprint(), fp)
              << "seed " << seed << " leaf " << v << ": " << what;
        }
      }
    }
  }
}

TEST(Tree, BenchmarkShapedTreesHaveDistinctFingerprints) {
  // One seed's trees, made the way gtbench's batch workload (512 trees,
  // B(2,10) NOR and M(4,5) MIN/MAX) and service workload (two connections
  // of 64, B(2,9)/B(2,12) NOR and M(4,4)/M(4,6) MIN/MAX) make them.
  const std::uint64_t seed = 11;
  std::set<std::uint64_t> fingerprints;
  std::size_t trees = 0;
  for (std::uint64_t i = 0; i < 512; ++i, ++trees) {
    const std::uint64_t s = hash_combine(seed, i);
    const Tree t = i % 2 == 0 ? make_uniform_iid_nor(2, 10, golden_bias(), s)
                              : make_uniform_iid_minimax(4, 5, -1000, 1000, s);
    fingerprints.insert(t.fingerprint());
  }
  for (std::uint64_t conn = 0; conn < 2; ++conn) {
    for (std::uint64_t i = 0; i < 64; ++i, ++trees) {
      const std::uint64_t s = hash_combine(hash_combine(seed, conn), i);
      const bool large = i % 32 == 31 - conn % 2;
      const Tree t = i % 2 == 0
                         ? make_uniform_iid_nor(2, large ? 12 : 9, golden_bias(), s)
                         : make_uniform_iid_minimax(4, large ? 6 : 4, -1000, 1000, s);
      fingerprints.insert(t.fingerprint());
    }
  }
  EXPECT_EQ(trees, 640u);
  EXPECT_EQ(fingerprints.size(), trees);
}

}  // namespace
}  // namespace gtpar
