// S-expression serialization round trips and error handling.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "gtpar/check/fuzz.hpp"
#include "gtpar/engine/api.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar {
namespace {

// The what() of the std::invalid_argument parse_tree throws on `text`.
std::string parse_error(const std::string& text) {
  try {
    parse_tree(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "parsed";
}

// A chain of `depth` nested parentheses around one leaf: height `depth`.
std::string chain(std::size_t depth, const std::string& leaf = "5") {
  return std::string(depth, '(') + leaf + std::string(depth, ')');
}

TEST(Serialization, LeafRoundTrip) {
  EXPECT_EQ(to_string(parse_tree("42")), "42");
  EXPECT_EQ(to_string(parse_tree("-7")), "-7");
  // The extreme leaves: one inside each of kMinusInf and kPlusInf.
  EXPECT_EQ(to_string(parse_tree("-2147483647")), "-2147483647");
  EXPECT_EQ(to_string(parse_tree("(2147483646 -2147483647)")),
            "(2147483646 -2147483647)");
  EXPECT_EQ(to_string(parse_tree("(007 -0)")), "(7 0)");
}

TEST(Serialization, NestedRoundTrip) {
  const std::string s = "((1 0) (0 (1 1 0)))";
  EXPECT_EQ(to_string(parse_tree(s)), s);
}

TEST(Serialization, WhitespaceInsensitive) {
  const Tree a = parse_tree("((1 0) 1)");
  const Tree b = parse_tree("  (\n (1\t0)   1 ) ");
  EXPECT_EQ(to_string(a), to_string(b));
}

TEST(Serialization, GeneratedTreesRoundTrip) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Tree t = make_uniform_iid_minimax(3, 4, -9, 9, seed);
    const Tree back = parse_tree(to_string(t));
    ASSERT_EQ(t.size(), back.size());
    EXPECT_EQ(minimax_value(t), minimax_value(back));
    EXPECT_EQ(to_string(t), to_string(back));
  }
  RandomShapeParams p;
  const Tree t = make_random_shape_nor(p, 0.5, 3);
  EXPECT_EQ(to_string(t), to_string(parse_tree(to_string(t))));
}

TEST(Serialization, FuzzTreesRoundTripStructurally) {
  // Structural round-trip over the differential fuzzer's shape families:
  // parse(to_string(t)) must reproduce the exact node structure (parents,
  // child counts, leaf values), not just the root value.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const bool minimax : {false, true}) {
      const Tree t = check::make_fuzz_tree(seed, minimax);
      const Tree back = parse_tree(to_string(t));
      ASSERT_EQ(t.size(), back.size()) << "seed " << seed;
      for (NodeId v = 0; v < t.size(); ++v) {
        EXPECT_EQ(t.parent(v), back.parent(v)) << "seed " << seed << " node " << v;
        EXPECT_EQ(t.num_children(v), back.num_children(v))
            << "seed " << seed << " node " << v;
        if (t.is_leaf(v)) {
          EXPECT_EQ(t.leaf_value(v), back.leaf_value(v))
              << "seed " << seed << " node " << v;
        }
      }
      if (minimax) {
        EXPECT_EQ(minimax_value(t), minimax_value(back)) << "seed " << seed;
      } else {
        EXPECT_EQ(nor_value(t), nor_value(back)) << "seed " << seed;
      }
    }
  }
}

TEST(Serialization, SingleLeafTreesRoundTrip) {
  for (const Value v : {Value{0}, Value{1}, Value{-3}, Value{7},
                        Value{-1000000}, Value{1000000}}) {
    TreeBuilder b;
    b.set_leaf_value(b.add_root(), v);
    const Tree t = b.build();
    ASSERT_EQ(t.size(), 1u);
    const Tree back = parse_tree(to_string(t));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.leaf_value(back.root()), v);
  }
}

TEST(Serialization, EmptyTreeSerializesToEmptyString) {
  // The empty tree has no s-expression: writing it yields "", and parsing
  // "" (or pure whitespace) is rejected rather than producing a bogus tree.
  const Tree empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(to_string(empty), "");
  std::ostringstream os;
  write_tree(os, empty);
  EXPECT_EQ(os.str(), "");
  EXPECT_THROW(parse_tree(""), std::invalid_argument);
  EXPECT_THROW(parse_tree("   \n\t "), std::invalid_argument);
}

TEST(Serialization, StreamInterface) {
  std::istringstream is("(1 0) (0 0)");
  const Tree a = read_tree(is);
  const Tree b = read_tree(is);
  EXPECT_EQ(to_string(a), "(1 0)");
  EXPECT_EQ(to_string(b), "(0 0)");
}

TEST(Serialization, RejectsMalformedInput) {
  EXPECT_THROW(parse_tree(""), std::invalid_argument);
  EXPECT_THROW(parse_tree("("), std::invalid_argument);
  EXPECT_THROW(parse_tree("()"), std::invalid_argument);
  EXPECT_THROW(parse_tree("(1 0"), std::invalid_argument);
  EXPECT_THROW(parse_tree("(1 0) extra"), std::invalid_argument);
  EXPECT_THROW(parse_tree("abc"), std::invalid_argument);

  EXPECT_EQ(parse_error(" \n"), "parse_tree: empty input");
  EXPECT_EQ(parse_error("(1 (0"), "parse_tree: unbalanced '('");
  EXPECT_EQ(parse_error("(1 ())"), "parse_tree: empty internal node");
  EXPECT_EQ(parse_error("(1 x)"), "parse_tree: unexpected character");
  EXPECT_EQ(parse_error(")"), "parse_tree: unexpected character");
  EXPECT_EQ(parse_error("+5"), "parse_tree: unexpected character");
  EXPECT_EQ(parse_error("(1 0))"), "parse_tree: trailing characters");
  EXPECT_EQ(parse_error("(1 - 2)"), "parse_tree: bad leaf value");
  EXPECT_EQ(parse_error("--1"), "parse_tree: bad leaf value");
  // Leaves lie strictly inside (kMinusInf, kPlusInf): the sentinels
  // themselves and anything wider are rejected, never wrapped.
  for (const char* out_of_range :
       {"5000000000", "(1 -9999999999)", "2147483647", "-2147483648",
        "(0 (2147483647 1))", "99999999999999999999999999"}) {
    EXPECT_EQ(parse_error(out_of_range), "parse_tree: bad leaf value") << out_of_range;
    std::istringstream is(out_of_range);
    EXPECT_THROW(read_tree(is), std::invalid_argument) << out_of_range;
  }
}

TEST(Serialization, NestingDepthIsCapped) {
  const Tree deepest = parse_tree(chain(kMaxParseDepth));
  EXPECT_EQ(deepest.height(), kMaxParseDepth);
  EXPECT_EQ(deepest.size(), kMaxParseDepth + 1);
  EXPECT_EQ(parse_error(chain(kMaxParseDepth + 1)), "parse_tree: nesting too deep");
  // Rejected at the first '(' past the cap, whatever follows.
  EXPECT_EQ(parse_error(std::string(kMaxParseDepth + 1, '(')),
            "parse_tree: nesting too deep");
  EXPECT_EQ(parse_error(chain(1000000)), "parse_tree: nesting too deep");

  std::istringstream ok(chain(kMaxParseDepth) + " 7");
  EXPECT_EQ(read_tree(ok).height(), kMaxParseDepth);
  EXPECT_EQ(read_tree(ok).leaf_value(0), 7);
  std::istringstream deep(chain(kMaxParseDepth + 1));
  EXPECT_THROW(read_tree(deep), std::invalid_argument);
}

TEST(Serialization, DeepestParsableChainSearchesOnAThread) {
  // The recursive searchers take one stack frame per level: on the deepest
  // tree the parser admits they must still return on an ordinary thread.
  const Tree t = parse_tree(chain(kMaxParseDepth, "-3"));
  for (const Algorithm alg :
       {Algorithm::kScout, Algorithm::kTtAlphaBeta, Algorithm::kDepthLimitedAb}) {
    SearchResult r;
    std::thread worker([&] {
      SearchRequest req;
      req.tree = &t;
      req.algorithm = alg;
      r = search(req);
    });
    worker.join();
    EXPECT_EQ(r.value, -3) << static_cast<int>(alg);
    EXPECT_EQ(r.completeness, Completeness::kExact) << static_cast<int>(alg);
  }
}

TEST(Serialization, MutatedTextEitherThrowsOrRoundTrips) {
  // Seeded mutations of real tree texts: truncations, byte flips, and
  // inserted '(', ')', '-' and digits. Whatever the parser accepts must be
  // a well-formed tree that survives another round trip unchanged; all it
  // may throw is std::invalid_argument.
  const std::string inserts = "()-0123456789";
  std::uint64_t h = 0x6d757461746f72ull;
  auto next = [&h](std::uint64_t bound) {
    h = mix64(h);
    return h % bound;
  };
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool minimax : {false, true}) {
      const std::string text = to_string(check::make_fuzz_tree(seed, minimax));
      for (int k = 0; k < 40; ++k) {
        std::string m = text;
        for (std::uint64_t e = 1 + next(3); e > 0 && !m.empty(); --e) {
          const std::size_t at = next(m.size());
          switch (next(3)) {
            case 0:
              m.resize(at);
              break;
            case 1:
              m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + next(255)));
              break;
            default:
              m.insert(at, 1, inserts[next(inserts.size())]);
          }
        }
        Tree t;
        try {
          t = parse_tree(m);
        } catch (const std::invalid_argument&) {
          ++rejected;
          continue;
        }
        ++accepted;
        const std::string canonical = to_string(t);
        const Tree back = parse_tree(canonical);
        ASSERT_EQ(back.fingerprint(), t.fingerprint()) << m;
        ASSERT_EQ(to_string(back), canonical) << m;
      }
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(Serialization, PrettyPrintMentionsKinds) {
  const std::string s = pretty_print(parse_tree("((1 0) 1)"));
  EXPECT_NE(s.find("MAX"), std::string::npos);
  EXPECT_NE(s.find("MIN"), std::string::npos);
  EXPECT_NE(s.find("leaf 1"), std::string::npos);
}

}  // namespace
}  // namespace gtpar
