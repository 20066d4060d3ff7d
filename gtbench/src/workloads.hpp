// gtbench/src/workloads.hpp
//
// The four workloads (README.md gives their make-up and why each exists).
// Each builds its inputs from RunOptions::seed, runs whole rounds of ops
// for the timed phase, checks every answer against the benchmark's own
// reference, and — when tracing is on — fills Outcome::layers with the
// per-layer metrics of the layers it exercises.
#pragma once

#include "common.hpp"

namespace gtbench {

Outcome run_batch(const RunOptions& opt);
Outcome run_cascade(const RunOptions& opt);
Outcome run_service(const RunOptions& opt);
Outcome run_selfplay(const RunOptions& opt);

}  // namespace gtbench
