#include "gtpar/tree/serialization.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace gtpar {
namespace {

void write_rec(std::ostream& os, const Tree& t, NodeId v) {
  if (t.is_leaf(v)) {
    os << t.leaf_value(v);
    return;
  }
  os << '(';
  bool first = true;
  for (NodeId c : t.children(v)) {
    if (!first) os << ' ';
    first = false;
    write_rec(os, t, c);
  }
  os << ')';
}

bool is_space(int c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool is_digit(int c) noexcept { return c >= '0' && c <= '9'; }

/// Scans one s-expression (and nothing after it but whitespace) into a
/// Tree: iterative, with an explicit stack of the open internal nodes, so
/// the nesting depth costs heap rather than call stack and is capped at
/// kMaxParseDepth. Ids are assigned in preorder, as each node's first
/// character is met.
class Scanner {
 public:
  explicit Scanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Tree parse() {
    skip_space();
    if (p_ == end_) throw std::invalid_argument("parse_tree: empty input");
    NodeId v = b_.add_root();
    while (true) {
      // p_ is at the first character of node v.
      if (*p_ == '(') {
        if (open_.size() == kMaxParseDepth)
          throw std::invalid_argument("parse_tree: nesting too deep");
        ++p_;
        open_.push_back(v);
      } else if (*p_ == '-' || is_digit(*p_)) {
        b_.set_leaf_value(v, read_leaf());
      } else {
        throw std::invalid_argument("parse_tree: unexpected character");
      }
      // Close what ends here, then start the next child of the innermost
      // open node, if any.
      while (!open_.empty()) {
        skip_space();
        if (p_ == end_) throw std::invalid_argument("parse_tree: unbalanced '('");
        if (*p_ != ')') break;
        ++p_;
        // Children take the ids after their parent's, so an open node
        // without children is still the newest node.
        if (open_.back() == b_.size() - 1)
          throw std::invalid_argument("parse_tree: empty internal node");
        open_.pop_back();
      }
      if (open_.empty()) break;
      v = b_.add_child(open_.back());
    }
    skip_space();
    if (p_ != end_) throw std::invalid_argument("parse_tree: trailing characters");
    return b_.build();
  }

 private:
  void skip_space() noexcept {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  /// An optional '-' and at least one decimal digit, strictly inside
  /// (kMinusInf, kPlusInf).
  Value read_leaf() {
    const bool negative = *p_ == '-';
    if (negative) ++p_;
    if (p_ == end_ || !is_digit(*p_))
      throw std::invalid_argument("parse_tree: bad leaf value");
    const std::int64_t limit =
        negative ? -(std::int64_t{kMinusInf} + 1) : std::int64_t{kPlusInf} - 1;
    std::int64_t magnitude = 0;
    do {
      magnitude = magnitude * 10 + (*p_++ - '0');
      if (magnitude > limit) throw std::invalid_argument("parse_tree: bad leaf value");
    } while (p_ != end_ && is_digit(*p_));
    return static_cast<Value>(negative ? -magnitude : magnitude);
  }

  const char* p_;
  const char* end_;
  TreeBuilder b_;
  std::vector<NodeId> open_;  // innermost last
};

void pretty_rec(std::ostream& os, const Tree& t, NodeId v, const std::string& indent) {
  os << indent;
  if (t.is_leaf(v)) {
    os << "leaf " << t.leaf_value(v) << '\n';
    return;
  }
  os << (node_kind(t, v) == NodeKind::Max ? "MAX" : "MIN") << " (depth " << t.depth(v)
     << ")\n";
  for (NodeId c : t.children(v)) pretty_rec(os, t, c, indent + "  ");
}

}  // namespace

void write_tree(std::ostream& os, const Tree& t) {
  if (t.empty()) return;  // empty tree serializes to the empty string
  write_rec(os, t, t.root());
}

std::string to_string(const Tree& t) {
  std::ostringstream os;
  write_tree(os, t);
  return os.str();
}

Tree parse_tree(std::string_view text) { return Scanner(text).parse(); }

Tree read_tree(std::istream& is) {
  // Copy exactly one s-expression's characters out of the stream (up to
  // its closing ')' or the end of its integer) and scan them. A nest
  // deeper than the cap is cut short: the scanner rejects it.
  std::string text;
  int c = is.peek();
  while (is_space(c)) {
    is.get();
    c = is.peek();
  }
  if (c == '(') {
    std::size_t depth = 0;
    do {
      c = is.get();
      if (c == std::char_traits<char>::eof()) break;
      text.push_back(static_cast<char>(c));
      if (c == '(') ++depth;
      if (c == ')') --depth;
    } while (depth != 0 && depth <= kMaxParseDepth);
  } else if (c == '-' || is_digit(c)) {
    do {
      text.push_back(static_cast<char>(is.get()));
    } while (is_digit(is.peek()));
  } else if (c != std::char_traits<char>::eof()) {
    text.push_back(static_cast<char>(c));  // rejected by the scanner
  }
  return parse_tree(text);
}

std::string pretty_print(const Tree& t) {
  std::ostringstream os;
  pretty_rec(os, t, t.root(), "");
  return os.str();
}

}  // namespace gtpar
