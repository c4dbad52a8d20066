// Order statistics over raw samples: every latency the benchmark reports is
// computed from the full sample vector, never from a bucketed histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
// Takes a copy: callers keep their vectors in arrival order.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

// Robust quantile of a time series: samples (time, value) are cut into
// consecutive windows of `window` time units starting at the first sample;
// the q-quantile of each window holding at least `min_samples` values is
// taken, and the median of those is returned (the plain quantile of all
// samples when no window qualifies). One noisy window cannot move it.
std::vector<double> PerWindowQuantiles(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t window, double q, std::size_t min_samples);
double WindowedQuantile(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t window, double q, std::size_t min_samples);

}  // namespace perfbench
