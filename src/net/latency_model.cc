#include "net/latency_model.h"

#include <cmath>

namespace jdvs {

std::int64_t LatencyModel::SampleMicros(Rng& rng) const {
  std::int64_t total = base_micros > 0 ? base_micros : 0;
  if (jitter_median_micros > 0) {
    const double mu = std::log(static_cast<double>(jitter_median_micros));
    total += static_cast<std::int64_t>(std::exp(mu + sigma * rng.NextGaussian()));
  }
  return total;
}

}  // namespace jdvs
