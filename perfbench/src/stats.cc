#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

std::vector<double> PerWindowQuantiles(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t window, double q, std::size_t min_samples) {
  std::vector<double> out;
  if (samples.empty()) return out;
  std::int64_t t0 = samples.front().first;
  for (const auto& s : samples) t0 = std::min(t0, s.first);
  std::vector<std::vector<double>> windows;
  for (const auto& [t, v] : samples) {
    const auto w = static_cast<std::size_t>(
        (t - t0) / std::max<std::int64_t>(window, 1));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(v);
  }
  for (auto& w : windows) {
    if (w.size() >= min_samples) out.push_back(Quantile(std::move(w), q));
  }
  return out;
}

double WindowedQuantile(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t window, double q, std::size_t min_samples) {
  std::vector<double> per_window =
      PerWindowQuantiles(samples, window, q, min_samples);
  if (!per_window.empty()) return Median(std::move(per_window));
  std::vector<double> all;
  for (const auto& s : samples) all.push_back(s.second);
  return Quantile(std::move(all), q);
}

}  // namespace perfbench
