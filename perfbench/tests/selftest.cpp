// Self-tests of the benchmark's own code: percentile selection, median and
// quartiles, the Poisson schedule, the sample stream, the accounting
// invariant and span self time. Run with `ctest` in the perfbench build
// directory, or `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  // 2000 samples: p99 has 20 samples beyond its rank.
  auto t = tail_percentile(iota(2000));
  check(t.p == 99.0 && t.n == 2000 && t.beyond == 20 && t.value == 1980,
        "p99 of 2000 samples: " + t.str());
  // 100 samples: p99 and p95 leave < 10 beyond, p90 leaves exactly 10.
  t = tail_percentile(iota(100));
  check(t.p == 90.0 && t.beyond == 10 && t.value == 90,
        "100 samples fall back to p90: " + t.str());
  // 1000 samples: p99 leaves exactly 10 beyond; 999 leave 9.
  t = tail_percentile(iota(1000));
  check(t.p == 99.0 && t.beyond == 10, "p99 with exactly 10 beyond: " + t.str());
  t = tail_percentile(iota(999));
  check(t.p == 95.0, "p99 with 9 beyond is refused: " + t.str());
  // p99.9 only when asked for and supported.
  t = tail_percentile(iota(20000), 99.9);
  check(t.p == 99.9 && t.beyond == 20, "p99.9 of 20000: " + t.str());
  t = tail_percentile(iota(20000));
  check(t.p == 99.0, "p99.9 is never chosen when p99 was asked for");
  // Too few samples for any tail: the median, with its count stated.
  t = tail_percentile(iota(5));
  check(t.p == 50.0 && t.n == 5 && t.value == 3 && t.beyond == 2,
        "5 samples fall back to the median: " + t.str());
  t = tail_percentile({});
  check(t.n == 0 && t.value == 0, "empty sample");
  check(t.str() == "p0 of 0 (0 beyond)", "Tail::str on empty: " + t.str());
  // Order of the input does not matter.
  std::vector<double> rev = iota(2000);
  std::reverse(rev.begin(), rev.end());
  check(tail_percentile(rev).value == 1980, "unsorted input");
  check(perfbench::percentile(iota(10), 50) == 5, "nearest-rank p50 of 1..10");
  check(perfbench::percentile(iota(10), 100) == 10, "p100 is the max");
  check(perfbench::percentile(iota(10), 0) == 1, "p0 is the min");
}

void test_blocked_tail() {
  using perfbench::blocked_tail;
  // 3000 samples: three blocks of 1000, each with its own p99.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i + 10000.0 * b);
  }
  auto t = blocked_tail(v);
  check(t.blocks == 3 && t.n == 1000 && t.p == 99.0 && t.beyond == 10 &&
            t.value == 10990,
        "median of three block p99s: " + t.str());
  // One stalled block moves the median of block p99s by at most its rank.
  std::vector<double> w(4000, 1.0);
  for (int i = 0; i < 500; ++i) w[static_cast<std::size_t>(i)] = 1000.0;
  check(blocked_tail(w).value == 1.0, "a stall confined to one block");
  // Under one block: a single block, the plain tail selection.
  t = blocked_tail(iota(999));
  check(t.blocks == 1 && t.p == 95.0, "short sample: " + t.str());
  // Remainders spread over the blocks: 2500 samples -> blocks of 1250.
  t = blocked_tail(iota(2500));
  check(t.blocks == 2 && t.n == 1250, "uneven blocks: " + t.str());
}

void test_median_iqr() {
  using perfbench::median_iqr;
  // Expected values from Python: statistics.quantiles(data, n=4).
  auto s = median_iqr({1, 2, 3, 4});
  check(near(s.median, 2.5) && near(s.q1, 1.25) && near(s.q3, 3.75),
        "quartiles of 1..4");
  s = median_iqr(iota(10));
  check(near(s.median, 5.5) && near(s.q1, 2.75) && near(s.q3, 8.25),
        "quartiles of 1..10");
  s = median_iqr({9, 1, 5});
  check(near(s.median, 5) && near(s.q1, 1) && near(s.q3, 9),
        "quartiles of 3 unsorted values");
  s = median_iqr({3, 7});
  check(near(s.median, 5) && near(s.q1, 2) && near(s.q3, 8),
        "quartiles of 2 values extrapolate like Python");
  check(near(s.iqr_frac(), 6.0 / 5.0), "iqr_frac");
  s = median_iqr({4});
  check(s.n == 1 && near(s.median, 4) && near(s.iqr_frac(), 0), "one value");
  s = median_iqr({});
  check(s.n == 0 && s.median == 0 && s.iqr_frac() == 0, "no values");
}

void test_poisson_schedule() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(7, 300, 10);
  const auto b = poisson_schedule(7, 300, 10);
  const auto c = poisson_schedule(8, 300, 10);
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  check(increasing, "arrival offsets increase");
  check(!a.empty() && a.front() >= 0 && a.back() < 10'000'000'000LL,
        "arrivals lie inside the phase");
  // 3000 expected arrivals: the count is within 5 standard deviations.
  check(std::fabs(static_cast<double>(a.size()) - 3000.0) < 5 * std::sqrt(3000.0),
        "arrival count matches the rate: " + std::to_string(a.size()));
  // A prefix of a longer schedule is the shorter schedule.
  const auto longer = poisson_schedule(7, 300, 20);
  check(std::equal(a.begin(), a.end(), longer.begin()),
        "the schedule does not depend on the phase length");
  check(poisson_schedule(7, 0, 10).empty(), "zero rate");
  check(poisson_schedule(7, 300, 0).empty(), "zero length");
}

void test_sample_stream() {
  perfbench::SampleStream a(5, 256);
  perfbench::SampleStream b(5, 256);
  perfbench::SampleStream c(6, 256);
  std::vector<int> hits(256, 0);
  bool same = true;
  bool differs = false;
  bool in_range = true;
  for (int i = 0; i < 25600; ++i) {
    const int x = a.next();
    const int y = b.next();
    const int z = c.next();
    same &= x == y;
    differs |= x != z;
    in_range &= x >= 0 && x < 256;
    if (x >= 0 && x < 256) ++hits[static_cast<std::size_t>(x)];
  }
  check(same, "same seed, same sample stream");
  check(differs, "another seed, another sample stream");
  check(in_range, "samples stay inside the pool");
  // 100 expected draws per sample: every one is drawn, none 2x too often.
  check(*std::min_element(hits.begin(), hits.end()) > 0 &&
            *std::max_element(hits.begin(), hits.end()) < 200,
        "samples are drawn uniformly");
}

void test_accounting() {
  perfbench::PhaseCount c;
  c.sent = 10;
  c.ok = 7;
  c.shed = 1;
  c.timeout = 1;
  c.unanswered = 1;
  check(c.balanced(), "balanced phase");
  check(c.failed() == 3, "failed counts shed + timeout + unanswered");
  c.mismatched = 2;
  check(c.balanced() && c.failed() == 5, "mismatched responses fail");
  c.mismatched = 8;
  check(!c.balanced(), "more mismatched than ok responses");
  c.mismatched = 0;
  c.error = 1;
  check(!c.balanced(), "an extra outcome breaks the invariant");
  c.error = 0;
  c.stray = 1;
  check(!c.balanced() && c.failed() == 4, "a stray line breaks the invariant");
  c.stray = 0;
  c.ok = 6;
  check(!c.balanced(), "a lost request breaks the invariant");
  check(perfbench::PhaseCount{}.balanced(), "an empty phase balances");
}

void test_self_time() {
  perfbench::Tracer tr(true);
  {
    auto root = tr.span("root", 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      auto a = tr.span("a");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto inner = tr.span("a.inner");
    }
    {
      auto b = tr.span("b", 9);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto& s = tr.spans();
  check(s.size() == 4, "four spans recorded");
  if (s.size() != 4) return;
  const auto dur = [&](int i) { return s[i].end_ns - s[i].start_ns; };
  const auto self = tr.self_ns();
  check(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 1 &&
            s[3].parent == 0,
        "parents");
  check(s[1].req == 3 && s[2].req == 3 && s[3].req == 9,
        "request ids are inherited unless given");
  check(self[0] == dur(0) - dur(1) - dur(3), "root self time excludes children");
  check(self[1] == dur(1) - dur(2), "nested self time");
  check(self[2] == dur(2) && self[3] == dur(3), "leaf self time is its duration");
  check(self[0] >= 1'000'000, "root self time covers its own sleep");
  const auto by = tr.by_name();
  check(by.at("a").self_ns.size() == 1 && by.size() == 4, "grouping by name");

  perfbench::Tracer off(false);
  {
    auto x = off.span("x");
  }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_blocked_tail();
  test_median_iqr();
  test_poisson_schedule();
  test_sample_stream();
  test_accounting();
  test_self_time();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::puts("perfbench self-tests passed");
  return 0;
}
