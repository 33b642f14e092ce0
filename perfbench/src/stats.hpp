// perfbench/src/stats.hpp
//
// The statistics every perfbench number goes through: nearest-rank
// percentiles that say how many samples back them, median and quartiles
// computed the way Python's statistics.quantiles(n=4) computes them, the
// seeded Poisson arrival schedule of the open-loop phases, and the
// per-phase request accounting whose invariant gates a run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0..100) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// A tail percentile together with the sample that supports it.
struct Tail {
  double value{0};
  double p{0};              ///< the percentile actually reported
  std::size_t n{0};         ///< sample count
  std::size_t beyond{0};    ///< samples strictly above the selected rank
  std::size_t blocks{1};    ///< blocked_tail: blocks the median is over

  /// "p99 of 1800 (17 beyond)" [", median of B blocks"].
  [[nodiscard]] std::string str() const;
};

/// The highest percentile on the ladder {99.9, 99, 95, 90, 75, 50} that is
/// no higher than `wanted` and leaves at least `min_beyond` samples beyond
/// its rank. Falls back to the median when even that is not supported.
Tail tail_percentile(std::vector<double> v, double wanted = 99.0,
                     std::size_t min_beyond = 10);

/// The tail percentile of consecutive blocks of at least `block` samples
/// (at most n / block blocks, sizes differing by at most one), median over
/// the blocks; `n` and `beyond` describe one block. With `block` = 1000 every
/// block supports a p99 with ten samples beyond it, and a stall that hits
/// one block of a run moves the run's figure less than it moves the whole
/// sample's p99. Fewer than `block` samples form a single block.
Tail blocked_tail(const std::vector<double>& v, std::size_t block = 1000,
                  double wanted = 99.0);

/// Median and the first/third quartiles, with the quartiles interpolated
/// exactly as Python's statistics.quantiles(data, n=4) (the default
/// "exclusive" method) does, so in-run spreads match the external check.
struct Spread {
  double median{0};
  double q1{0};
  double q3{0};
  std::size_t n{0};
  /// (q3 - q1) / median; 0 when the median is 0.
  [[nodiscard]] double iqr_frac() const;
};
Spread median_iqr(std::vector<double> v);

/// Seeded Poisson arrivals: offsets in ns from the phase start of every
/// arrival before `seconds`, at mean `rate_per_s`. Exponential gaps come
/// from an explicit inverse transform over mt19937_64, so the schedule is
/// identical on every standard library for a given seed.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s, double seconds);

/// Outcome counts of one load phase. Every request sent must end in
/// exactly one of ok / shed / timeout / error / unanswered; `mismatched`
/// counts the ok responses whose bytes differ from the serial reference
/// and `stray` the lines that answer no outstanding request.
struct PhaseCount {
  std::int64_t sent{0};
  std::int64_t ok{0};
  std::int64_t shed{0};
  std::int64_t timeout{0};
  std::int64_t error{0};
  std::int64_t unanswered{0};
  std::int64_t mismatched{0};
  std::int64_t stray{0};

  /// sent == ok + shed + timeout + error + unanswered, no stray lines,
  /// and mismatched <= ok.
  [[nodiscard]] bool balanced() const;
  /// Requests that did not produce a byte-identical response.
  [[nodiscard]] std::int64_t failed() const;
  [[nodiscard]] std::string str() const;
};

}  // namespace perfbench
