// Self-test of the benchmark's metric derivations (src/derive.hpp) on
// hand-built inputs. Exits non-zero on the first mismatch; run by ctest in
// the perfbench build and by run.py before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "derive.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12 * std::max(1.0, std::abs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace mh::perfbench;

  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");

  // Self time: root [0,100] with children [10,30] and [20,50] (overlapping:
  // covered 10..50 = 40) and a grandchild [12,18] inside the first child.
  // A child poking past its parent is clipped; an orphan is a root.
  {
    const std::vector<SpanRec> spans = {
        {1, 0, 0.0, 100.0},  {2, 1, 10.0, 30.0}, {3, 1, 20.0, 50.0},
        {4, 2, 12.0, 18.0},  {5, 3, 45.0, 60.0}, {6, 99, 0.0, 7.0},
    };
    const std::vector<double> self = self_times_us(spans);
    expect_near(self[0], 60.0, "root self (overlapping children)");
    expect_near(self[1], 14.0, "child self minus grandchild");
    expect_near(self[2], 25.0, "child self minus clipped grandchild");
    expect_near(self[3], 6.0, "leaf span self = duration");
    expect_near(self[5], 7.0, "orphan span is its own root");
    // Without overlap the self times of a tree sum to the root's duration.
    const std::vector<SpanRec> tree = {
        {1, 0, 0.0, 10.0}, {2, 1, 1.0, 4.0}, {3, 1, 5.0, 9.0},
        {4, 3, 6.0, 7.0},
    };
    double sum = 0.0;
    for (const double s : self_times_us(tree)) sum += s;
    expect_near(sum, 10.0, "self times telescope to the root");
  }

  expect_near(load_imbalance({}), 0.0, "imbalance of nothing");
  expect_near(load_imbalance({0, 0}), 0.0, "imbalance of zero load");
  expect_near(load_imbalance({5, 5, 5, 5}), 1.0, "balanced");
  expect_near(load_imbalance({2, 4, 6, 8}), 8.0 / 5.0, "max over mean");

  expect_near(parallel_efficiency(8.0, 4, 2.0), 1.0, "perfect scaling");
  expect_near(parallel_efficiency(8.0, 4, 4.0), 0.5, "half efficiency");
  expect_near(parallel_efficiency(8.0, 0, 4.0), 0.0, "no workers");

  expect_near(failed_fraction(0, 0), 0.0, "nothing attempted");
  expect_near(failed_fraction(0, 7), 0.0, "no failures");
  expect_near(failed_fraction(2, 8), 0.25, "two of eight failed");

  {
    const std::vector<Rung> rungs = {
        {"L0", 1, 1.0, 4e9}, {"L1", 1, 2.0, 4e9}, {"L2", 1, 4.0, 4e9},
        {"L3", 4, 1.0, 4e9},
    };
    expect_near(rungs[0].gflops(), 4.0, "rung GFLOPS");
    const std::vector<double> r = ladder_ratios(rungs);
    expect_near(r[0], 1.0, "first rung ratio");
    expect_near(r[1], 0.5, "L1 over L0");
    expect_near(r[2], 0.5, "L2 over L1");
    expect_near(r[3], 4.0, "L3 over L2");
    expect_near(Rung{"z", 1, 0.0, 1.0}.gflops(), 0.0, "zero time");
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d derivation check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench derivation self-test: all checks passed\n");
  return EXIT_SUCCESS;
}
