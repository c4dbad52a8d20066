// Hybrid-scan planner: the one place a partition index decides how a query's
// attribute filter meets its inverted-list scan.
//
// Both IVF indexes (flat rows and PQ codes) share the decision: sample the
// filter's selectivity, then either skip materialization for broad filters
// (predicates run only on kernel survivors), materialize the bitmap and
// post-filter survivors against it, pre-filter 64-entry sub-blocks, or widen
// nprobe for needle filters. The indexes differ only in whether validity is
// folded into the bitmap, which the caller expresses by passing the validity
// bitmap or null.
#pragma once

#include <cstddef>
#include <optional>

#include "filter/attribute_filter_index.h"
#include "filter/filter_expression.h"
#include "index/bitmap.h"
#include "index/forward_index.h"
#include "index/image_index.h"

namespace jdvs {

// One query's hybrid scan decision: the materialized bitmap — or, for broad
// filters, a direct predicate pointer and no bitmap at all — plus the
// strategy the selectivity picked. Unfiltered queries get neither.
struct FilterPlan {
  std::optional<MaterializedFilter> bits;  // empty in direct/unfiltered mode
  // Direct post mode: predicates evaluated only on kernel survivors,
  // nothing materialized. Points at the caller's filter.
  const FilterExpression* direct = nullptr;
  bool post_mode = false;     // survivors tested vs sub-block masks
  bool empty_result = false;  // zero matches: skip the scan entirely
  std::size_t nprobe = 0;     // effective probe count (possibly widened)

  const MaterializedFilter* bitmap() const noexcept {
    return bits ? &*bits : nullptr;
  }
};

// The partition state and strategy thresholds a plan is made from.
// `validity` is folded into the bitmap and the selectivity sample; null
// leaves validity to the caller (IvfIndex's filter_invalid_during_scan
// ablation defers it to result materialization).
struct FilterPlanInputs {
  const ForwardIndex& forward;
  const AttributeFilterIndex& filters;
  const ValidityBitmap* validity;
  std::size_t num_lists;  // widened nprobe is clamped to this
  // Selectivity at or above which survivors are post-filtered.
  double post_threshold;
  // Selectivity below which nprobe is multiplied by widen_factor.
  double widen_threshold;
  std::size_t widen_factor;
};

// Sampled pass rate of `filter` (conjoined with `category_filter` and, when
// non-null, `validity`) over ~256 strided forward-index entries — bounded
// cost, no bitmap. The gate that sends broad filters into direct post mode.
double EstimateFilterSelectivity(const ForwardIndex& forward,
                                 const ValidityBitmap* validity,
                                 const FilterExpression& filter,
                                 CategoryId category_filter);

// Plans one query's scan. `filter` may be null or empty (plain scan at
// `nprobe`). `stats`, when non-null, is reset and receives the decision.
// The plan may point at `*filter`, which must outlive it.
FilterPlan PlanFilteredScan(const FilterPlanInputs& in,
                            const FilterExpression* filter,
                            CategoryId category_filter, std::size_t nprobe,
                            FilterScanStats* stats);

}  // namespace jdvs
