// Pure metric derivations of the wall-clock Apply benchmark, kept free of
// the numerical libraries so tests/test_derive.cpp can check every formula
// on hand-built inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mh::perfbench {

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One recorded span, reduced to what the self-time derivation needs.
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (the union of the children's intervals,
/// clipped to the parent, so overlapping children are not counted twice).
/// Indexed like `spans`.
inline std::vector<double> self_times_us(const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRec& p = spans[it->second];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

/// Load imbalance of a per-rank load vector: max / mean (1 = perfect);
/// 0 for an empty or all-zero vector.
inline double load_imbalance(const std::vector<std::size_t>& loads) {
  if (loads.empty()) return 0.0;
  const double total = static_cast<double>(
      std::accumulate(loads.begin(), loads.end(), std::size_t{0}));
  if (total == 0.0) return 0.0;
  const double mean = total / static_cast<double>(loads.size());
  return static_cast<double>(*std::max_element(loads.begin(), loads.end())) /
         mean;
}

/// Parallel efficiency of a run on `workers` threads against its serial
/// baseline: serial / (workers * parallel); 1 = perfect scaling.
inline double parallel_efficiency(double serial_s, std::size_t workers,
                                  double parallel_s) {
  if (workers == 0 || parallel_s <= 0.0) return 0.0;
  return serial_s / (static_cast<double>(workers) * parallel_s);
}

/// Fraction of verified solves that failed; 0 when nothing was attempted.
inline double failed_fraction(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

/// One rung of the L0-L4 layer ladder: the same flops timed at one layer.
struct Rung {
  std::string name;
  std::size_t threads = 1;
  double seconds = 0.0;
  double flops = 0.0;

  double gflops() const {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// Efficiency ratio of each rung against the rung before it (achieved
/// GFLOPS of rung i over rung i-1); the first rung's ratio is 1.
inline std::vector<double> ladder_ratios(const std::vector<Rung>& rungs) {
  std::vector<double> out(rungs.size(), 1.0);
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    const double prev = rungs[i - 1].gflops();
    out[i] = prev > 0.0 ? rungs[i].gflops() / prev : 0.0;
  }
  return out;
}

}  // namespace mh::perfbench
