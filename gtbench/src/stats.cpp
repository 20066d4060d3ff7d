#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gtbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // rank = ceil(p/100 * n), 1-based; the epsilon keeps exact products such
  // as 0.5 * 10 from rounding up to the next rank.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

double windowed_percentile(const std::vector<double>& v, double p,
                           std::size_t window, double over) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (window == 0) throw std::invalid_argument("window of zero samples");
  const std::size_t runs = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> per_run;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(r * window);
    const auto last = r + 1 == runs ? v.end() : first + static_cast<std::ptrdiff_t>(window);
    std::vector<double> w(first, last);
    per_run.push_back(percentile(w, p));
  }
  return percentile(per_run, over);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

}  // namespace gtbench
