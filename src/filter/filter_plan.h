// Hybrid-scan planner: the one place a partition index decides how a query's
// attribute filter meets its inverted-list scan.
//
// Both list codecs (flat rows and PQ codes) share the decision: sample the
// filter's selectivity, then either skip materialization for broad filters
// (predicates run only on kernel survivors), materialize the bitmap and
// post-filter survivors against it, pre-filter 64-entry sub-blocks, or widen
// nprobe for needle filters. The caller chooses whether validity is folded
// into the bitmap by passing the validity bitmap or null.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "filter/attribute_filter_index.h"
#include "filter/filter_expression.h"
#include "index/bitmap.h"
#include "index/forward_index.h"

namespace jdvs {

// Per-query diagnostics of a hybrid (filtered) search: which pushdown
// strategy the index chose, how selective the materialized filter was and
// how much scan work the bitmap saved. Caller-owned, filled by the query
// that receives it — no concurrency.
struct FilterScanStats {
  enum class Strategy : std::uint8_t {
    kNone = 0,      // no filter, plain scan
    kPre = 1,       // bitmap evaluated per sub-block before the kernel
    kPost = 2,      // kernel survivors tested against the bitmap
    kFallback = 3,  // over-fetch + post-filter baseline (no pushdown)
  };

  Strategy strategy = Strategy::kNone;
  // matches / universe in basis points (10000 = everything passes).
  std::uint32_t selectivity_bp = 10000;
  std::size_t matches = 0;
  std::size_t universe = 0;
  // 64-entry sub-blocks whose kernel call was skipped because the bitmap
  // proved them wholly dead vs sub-blocks actually scanned.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_scanned = 0;
  // True when extreme selectivity widened nprobe to keep recall.
  bool widened_nprobe = false;
  // True when the selectivity came from a sampled estimate and no bitmap was
  // ever materialized (broad-filter direct post mode) — matches/blocks
  // fields are then not populated by a bitmap.
  bool estimated = false;
  // Cost of materializing the filter bitmap (the "searcher_filter" stage).
  std::int64_t materialize_micros = 0;
};

const char* FilterStrategyName(FilterScanStats::Strategy strategy) noexcept;

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

// The partition state a plan is made from. `validity` is folded into the
// bitmap and the selectivity sample; null leaves validity to the caller
// (IvfIndex's filter_invalid_during_scan ablation defers it to result
// materialization).
struct FilterPlanInputs {
  const ForwardIndex& forward;
  const AttributeFilterIndex& filters;
  const ValidityBitmap* validity;
  std::size_t num_lists;  // widened nprobe is clamped to this
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
