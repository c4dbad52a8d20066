#include "filter/filter_plan.h"

#include <algorithm>
#include <cstdint>

#include "common/clock.h"

namespace jdvs {
namespace {

// Selectivity (matching fraction) at or above which the scan post-filters
// kernel survivors instead of evaluating the bitmap per sub-block: when
// almost everything passes, per-survivor tests are cheaper than
// per-candidate mask gathering.
constexpr double kPostThreshold = 0.5;
// Selectivity below which nprobe is multiplied by kWidenFactor (clamped to
// the list count) so k results can still be found under an extreme filter.
constexpr double kWidenThreshold = 0.01;
constexpr std::size_t kWidenFactor = 4;

}  // namespace

const char* FilterStrategyName(FilterScanStats::Strategy strategy) noexcept {
  switch (strategy) {
    case FilterScanStats::Strategy::kNone:
      return "none";
    case FilterScanStats::Strategy::kPre:
      return "pre";
    case FilterScanStats::Strategy::kPost:
      return "post";
    case FilterScanStats::Strategy::kFallback:
      return "fallback";
  }
  return "unknown";
}

double EstimateFilterSelectivity(const ForwardIndex& forward,
                                 const ValidityBitmap* validity,
                                 const FilterExpression& filter,
                                 CategoryId category_filter) {
  const std::size_t n = forward.size();
  if (n == 0) return 0.0;
  // Deterministic strided sample of the forward index: ~256 probes bound the
  // cost regardless of index size, and appended entries arrive in workload
  // order, so strides see a representative attribute mix.
  constexpr std::size_t kSamples = 256;
  const std::size_t step = std::max<std::size_t>(1, n / kSamples);
  std::size_t seen = 0;
  std::size_t pass = 0;
  for (std::size_t local = 0; local < n; local += step) {
    ++seen;
    const auto id = static_cast<LocalId>(local);
    if (validity != nullptr && !validity->Get(id)) continue;
    const AttributeSnapshot snapshot = forward.Get(id);
    if (category_filter != kNoCategoryFilter &&
        snapshot.category != category_filter) {
      continue;
    }
    if (!filter.Matches(snapshot.category, snapshot.attributes)) continue;
    ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(seen);
}

FilterPlan PlanFilteredScan(const FilterPlanInputs& in,
                            const FilterExpression* filter,
                            CategoryId category_filter, std::size_t nprobe,
                            FilterScanStats* stats) {
  FilterPlan plan;
  plan.nprobe = nprobe;
  if (stats != nullptr) {
    *stats = FilterScanStats{};
    stats->universe = in.forward.size();
  }
  if (filter == nullptr || filter->empty()) return plan;
  // Broad filters never materialize: a sampled estimate at/above the post
  // threshold routes the query into direct post mode, where predicates run
  // only against the <= k kernel survivors and the per-query
  // ~1ms/100k-entry bitmap cost disappears.
  const double estimate = EstimateFilterSelectivity(
      in.forward, in.validity, *filter, category_filter);
  if (estimate >= kPostThreshold) {
    plan.post_mode = true;
    plan.direct = filter;
    if (stats != nullptr) {
      stats->strategy = FilterScanStats::Strategy::kPost;
      stats->selectivity_bp = static_cast<std::uint32_t>(estimate * 10000.0);
      stats->estimated = true;
    }
    return plan;
  }
  const Stopwatch watch(MonotonicClock::Instance());
  plan.bits = in.filters.Materialize(*filter, category_filter, in.validity);
  const Micros materialize_micros = watch.ElapsedMicros();
  const double selectivity = plan.bits->selectivity();
  if (plan.bits->matches == 0) {
    plan.empty_result = true;
  } else if (selectivity >= kPostThreshold) {
    plan.post_mode = true;
  } else if (selectivity < kWidenThreshold) {
    plan.nprobe = std::min(nprobe * kWidenFactor, in.num_lists);
  }
  if (stats != nullptr) {
    stats->strategy = plan.post_mode ? FilterScanStats::Strategy::kPost
                                     : FilterScanStats::Strategy::kPre;
    stats->selectivity_bp = static_cast<std::uint32_t>(selectivity * 10000.0);
    stats->matches = plan.bits->matches;
    stats->universe = plan.bits->universe;
    stats->widened_nprobe = plan.nprobe != nprobe;
    stats->materialize_micros = materialize_micros;
  }
  return plan;
}

}  // namespace jdvs
