// bench/bench_util.hpp
//
// Shared table-printing helpers for the experiment harness. Each bench
// binary regenerates the evidence for one claim of the paper (experiment
// ids E1..E12; see DESIGN.md section 5) and prints self-describing tables,
// so `for b in build/bench/*; do $b; done` produces the full experiment
// report that EXPERIMENTS.md summarizes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace gtpar::bench {

/// Fixed-width table printer. Set the environment variable
/// GTPAR_TABLE_FORMAT=csv to emit machine-readable CSV instead of the
/// human-readable layout (useful for piping bench output into plots).
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    const char* fmt = std::getenv("GTPAR_TABLE_FORMAT");
    if (fmt && std::strcmp(fmt, "csv") == 0) {
      print_csv();
      return;
    }
    print_pretty();
  }

  void print_csv() const {
    auto emit = [](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c)
        std::printf("%s%s", c ? "," : "", cells[c].c_str());
      std::printf("\n");
    };
    emit(headers_);
    for (const auto& r : rows_) emit(r);
    std::printf("\n");
  }

  void print_pretty() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        if (r[c].size() > width[c]) width[c] = r[c].size();

    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), s.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      for (std::size_t i = 0; i < width[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt(std::uint64_t v) { return std::to_string(v); }
inline std::string fmt(unsigned v) { return std::to_string(v); }

/// A JSON field value that is either a measured number or `null`, for a
/// figure the row does not have (a counter its code path lacks, a mean
/// over no samples) — never a fake zero.
inline std::string num_or_null(bool has, std::uint64_t v) {
  return has ? fmt(v) : std::string("null");
}
inline std::string num_or_null(bool has, double v, int prec = 2) {
  return has ? fmt(v, prec) : std::string("null");
}

/// Nearest-rank percentile: the smallest sample element x such that at
/// least ceil(q * n) of the sample is <= x. q is clamped to [0, 1] — q = 0
/// returns the minimum, q = 1 the maximum — and an empty sample returns 0.
/// Sorts `v` in place.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q <= 0.0) return v.front();
  if (q >= 1.0) return v.back();
  // 0 < q < 1 makes 1 <= ceil(q*n) <= n; the clamps guard fp rounding only.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

/// Experiment banner: id, claim, setup.
inline void banner(const char* id, const char* claim, const char* setup) {
  std::printf("================================================================\n");
  std::printf("%s  %s\n", id, claim);
  std::printf("    %s\n", setup);
  std::printf("================================================================\n");
}

}  // namespace gtpar::bench
