// gtpar/tree/serialization.hpp
//
// Plain-text serialization of trees, so that workloads can be saved,
// diffed, and replayed across runs, and small trees can be written by hand
// in tests.
//
// Format (s-expression):  tree  ::= leaf | node
//                         leaf  ::= '-'? digit+
//                         node  ::= '(' tree+ ')'
// Example: the binary NOR-tree of height 2 with leaves 1 0 0 1 is
// "((1 0) (0 1))". Whitespace (space, \t, \n, \v, \f, \r) between
// tokens is arbitrary and may be omitted where a token ends unambiguously,
// as in "(1(0 1))" or "(1-2)".
//
// Two limits make the grammar safe to parse from an untrusted peer (the
// network service parses every request's tree with it):
//  - a leaf is a decimal integer strictly inside (kMinusInf, kPlusInf),
//    that is -2147483647 .. 2147483646; anything else is a bad leaf value,
//    never a wrapped one;
//  - parentheses nest at most kMaxParseDepth deep, so a parsed tree's
//    height is at most kMaxParseDepth and the recursive searchers run it
//    on an ordinary thread stack.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "gtpar/tree/tree.hpp"

namespace gtpar {

/// Deepest nesting of parentheses parse_tree and read_tree accept. The
/// recursive searchers (scout, tt-alphabeta, depth-limited-ab) take one
/// stack frame per level; the largest, depth-limited-ab's, is about 240
/// bytes in an optimised build and about 3 KB under ASan+UBSan (GCC 12,
/// -fstack-usage), so 1024 levels fit an 8 MiB thread stack in every
/// build, with room to spare.
/// Real inputs nest far less: the benchmark's deepest tree has height 14.
inline constexpr std::size_t kMaxParseDepth = 1024;

/// Serialize `t` to the s-expression format (single line, no trailing
/// newline). A default-constructed empty tree serializes to the empty
/// string (which parse_tree rejects: there is no s-expression for it).
std::string to_string(const Tree& t);

/// Write the s-expression form of `t` to `os` (nothing for an empty tree).
void write_tree(std::ostream& os, const Tree& t);

/// Parse a tree from its s-expression form, in one pass over `text`.
/// Nodes get ids in preorder. Throws std::invalid_argument, whose what()
/// starts "parse_tree: ", on malformed input: empty input, an unexpected
/// character, a bad or out-of-range leaf value, an empty node, unbalanced
/// parens, nesting deeper than kMaxParseDepth, trailing characters.
Tree parse_tree(std::string_view text);

/// Read one tree from `is` (consumes exactly one s-expression, and the
/// whitespace before it). Same grammar, limits and errors as parse_tree.
Tree read_tree(std::istream& is);

/// Multi-line ASCII rendering of a small tree for debugging; internal nodes
/// are labelled with their MIN/MAX kind and depth.
std::string pretty_print(const Tree& t);

}  // namespace gtpar
