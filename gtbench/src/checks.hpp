// gtbench/src/checks.hpp
//
// The correctness checks every workload applies to the program's outputs.
// Each returns an empty string when the output is right and a one-line
// diagnosis otherwise, so a run can count and report failures and the
// tests can show that each check rejects a wrong expected value.
#pragma once

#include <cstdint>
#include <string>

#include "gtpar/common.hpp"

namespace gtbench {

/// A search answer: complete, and equal to the reference root value.
std::string check_root(bool complete, gtpar::Value got, gtpar::Value expected);

/// Cascade work on a B(d,n) NOR tree lies in [d^floor(n/2), leaves]
/// (Fact 1 below, every distinct leaf at most once above).
std::string check_nor_work(std::uint64_t work, unsigned d, unsigned n,
                           std::uint64_t leaves);

/// Cascade work on an M(d,n) MIN/MAX tree is at least
/// d^floor(n/2) + d^ceil(n/2) - 1 (Fact 2).
std::string check_ab_work(std::uint64_t work, unsigned d, unsigned n);

/// The server's STATS counters equal the client's own counts.
std::string check_service_counts(std::uint64_t sent, std::uint64_t answered,
                                 std::uint64_t requests_received,
                                 std::uint64_t results_sent);

/// A finished game ends in the game's theoretical value.
std::string check_game_result(gtpar::Value result, gtpar::Value theory);

/// A move reported exact carries the reference value of its position.
std::string check_move_value(bool exact, gtpar::Value value,
                             gtpar::Value expected);

}  // namespace gtbench
