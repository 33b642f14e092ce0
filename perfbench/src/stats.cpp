#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

namespace {

/// 0-based nearest-rank index of percentile p in a sample of n > 0.
std::size_t rank_index(double p, std::size_t n) {
  const double clamped = std::clamp(p, 0.0, 100.0);
  // The epsilon keeps decimal percentiles such as 99.9 from rounding a
  // whole rank up (99.9 / 100 * 20000 is 19980.000000000004 in binary).
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(n) - 1e-7));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = rank_index(p, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

Tail tail_percentile(std::vector<double> v, double wanted,
                     std::size_t min_beyond) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  t.p = 50.0;
  for (double p : kLadder) {
    if (p > wanted) continue;
    if (v.size() - 1 - rank_index(p, v.size()) >= min_beyond) {
      t.p = p;
      break;
    }
  }
  const std::size_t k = rank_index(t.p, v.size());
  t.value = v[k];
  t.beyond = v.size() - 1 - k;
  return t;
}

Tail blocked_tail(const std::vector<double>& v, std::size_t block,
                  double wanted) {
  const std::size_t blocks = std::max<std::size_t>(1, v.size() / std::max<std::size_t>(1, block));
  std::vector<double> values;
  Tail first;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = v.size() * b / blocks;
    const std::size_t hi = v.size() * (b + 1) / blocks;
    const Tail t = tail_percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(hi)),
        wanted);
    if (b == 0) first = t;
    values.push_back(t.value);
  }
  first.value = median_iqr(values).median;
  first.blocks = blocks;
  return first;
}

std::string Tail::str() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu (%zu beyond)", p, n, beyond);
  if (blocks <= 1) return buf;
  return std::string(buf) + ", median of " + std::to_string(blocks) + " blocks";
}

double Spread::iqr_frac() const {
  return median != 0.0 ? (q3 - q1) / median : 0.0;
}

Spread median_iqr(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive", n=4), integer arithmetic
  // included: m = n + 1, j = i*m // 4 clamped to [1, n-1].
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s, double seconds) {
  std::vector<std::int64_t> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return out;
  std::mt19937_64 rng(seed);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    // 53 random bits -> u in [0, 1); -log1p(-u) is Exp(1).
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    out.push_back(static_cast<std::int64_t>(t));
  }
  return out;
}

bool PhaseCount::balanced() const {
  return sent == ok + shed + timeout + error + unanswered && stray == 0 &&
         mismatched <= ok && mismatched >= 0;
}

std::int64_t PhaseCount::failed() const {
  return mismatched + shed + timeout + error + unanswered + stray;
}

std::string PhaseCount::str() const {
  return "sent=" + std::to_string(sent) + " ok=" + std::to_string(ok) +
         " shed=" + std::to_string(shed) + " timeout=" +
         std::to_string(timeout) + " error=" + std::to_string(error) +
         " unanswered=" + std::to_string(unanswered) + " mismatched=" +
         std::to_string(mismatched) + " stray=" + std::to_string(stray);
}

}  // namespace perfbench
