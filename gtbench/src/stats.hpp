// gtbench/src/stats.hpp
//
// Order statistics used by every workload. One definition of a percentile
// for the whole benchmark: nearest rank on the sorted sample, so a
// reported p99 is always a latency some op actually had.
#pragma once

#include <cstddef>
#include <vector>

namespace gtbench {

/// Nearest-rank percentile: the smallest sample x such that at least
/// `p` percent of the samples are <= x (p in (0, 100]). Sorts `v`.
/// Throws std::invalid_argument on an empty sample or p outside (0, 100].
double percentile(std::vector<double>& v, double p);

/// Median as the nearest-rank 50th percentile (sorts `v`).
inline double median(std::vector<double>& v) { return percentile(v, 50.0); }

/// The p-th percentile of each run of `window` consecutive samples (a
/// shorter remainder joins the last run), then the `over`-th percentile of
/// those (the median by default). A stall that hits a few windows moves
/// it no further than the windows it hit; with one window it is plain
/// percentile(). Does not reorder `v`.
double windowed_percentile(const std::vector<double>& v, double p,
                           std::size_t window, double over = 50.0);

/// Samples beyond the p-th percentile's rank: how many observations the
/// tail estimate rests on (the count printed next to a p99).
std::size_t samples_beyond(std::size_t n, double p);

}  // namespace gtbench
