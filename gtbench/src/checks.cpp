#include "checks.hpp"

#include "reference.hpp"

namespace gtbench {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(gtpar::Value v) { return std::to_string(v); }

}  // namespace

std::string check_root(bool complete, gtpar::Value got, gtpar::Value expected) {
  if (!complete) return "search incomplete";
  if (got != expected)
    return "root value " + num(got) + ", reference " + num(expected);
  return {};
}

std::string check_nor_work(std::uint64_t work, unsigned d, unsigned n,
                           std::uint64_t leaves) {
  const std::uint64_t lo = fact1_min_leaves(d, n);
  if (work < lo || work > leaves)
    return "NOR work " + num(work) + " outside [" + num(lo) + ", " +
           num(leaves) + "]";
  return {};
}

std::string check_ab_work(std::uint64_t work, unsigned d, unsigned n) {
  const std::uint64_t lo = fact2_min_leaves(d, n);
  if (work < lo) return "MIN/MAX work " + num(work) + " below " + num(lo);
  return {};
}

std::string check_service_counts(std::uint64_t sent, std::uint64_t answered,
                                 std::uint64_t requests_received,
                                 std::uint64_t results_sent) {
  if (requests_received != sent || results_sent != answered)
    return "server received/sent " + num(requests_received) + "/" +
           num(results_sent) + ", client sent/answered " + num(sent) + "/" +
           num(answered);
  return {};
}

std::string check_game_result(gtpar::Value result, gtpar::Value theory) {
  if (result != theory)
    return "game ended " + num(result) + ", theory " + num(theory);
  return {};
}

std::string check_move_value(bool exact, gtpar::Value value,
                             gtpar::Value expected) {
  if (exact && value != expected)
    return "exact move value " + num(value) + ", reference " + num(expected);
  return {};
}

}  // namespace gtbench
