// ImageIndex: the mutation/search contract of a per-partition image index.
//
// The real-time indexing pipeline (Section 2.3) is index-representation
// agnostic: it needs to add images, flip validity bits, rewrite attributes
// and answer top-k searches. Both the paper's flat-feature IVF index and the
// compressed IVF-PQ variant implement this interface, so the same
// RealTimeIndexer drives either.
//
// Concurrency contract shared by all implementations: one writer (all
// mutating calls), any number of concurrent Search() readers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "filter/filter_expression.h"
#include "mq/message.h"
#include "vecmath/vector.h"

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
    kFallback = 3,  // generic over-fetch + post-filter (non-IVF indexes)
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

// One search result as shipped from searcher to broker to blender. Strings
// are owned copies: results cross (simulated) process boundaries.
struct SearchHit {
  ImageId image_id = 0;
  float distance = 0.f;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string image_url;
  std::string detail_url;
};

class ImageIndex {
 public:
  virtual ~ImageIndex() = default;

  // ---- Writer operations ----
  virtual LocalId AddImage(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url,
                           FeatureView feature) = 0;
  virtual bool HasImage(std::string_view image_url) const = 0;
  virtual bool HasProduct(ProductId product_id) const = 0;
  virtual std::size_t UpdateProductAttributes(
      ProductId product_id, const ProductAttributes& attributes,
      std::string_view detail_url) = 0;
  virtual std::size_t SetProductValidity(ProductId product_id, bool valid) = 0;
  virtual bool SetImageValidity(std::string_view image_url, bool valid) = 0;
  // Writer housekeeping; default no-op for indexes without deferred work.
  virtual void FinishPendingExpansions() {}

  // ---- Reader operations (lock-free) ----

  // Top-k most similar valid images; `category_filter` of kNoCategoryFilter
  // searches everything, otherwise only images of that category are
  // considered (the production use of the detector output, Section 2.4).
  virtual std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe_override,
                                        CategoryId category_filter) const = 0;

  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override = 0) const {
    return Search(query, k, nprobe_override, kNoCategoryFilter);
  }

  // Hybrid filtered search: top-k valid images matching every predicate of
  // `filter` (conjoined with `category_filter`). The base implementation
  // over-fetches through the unfiltered Search and post-filters the hits,
  // so every index representation (LSH, IMI, binary-hash) answers hybrid
  // queries correctly out of the box; IvfIndex and IvfPqIndex override it
  // with true bitmap pushdown into the scan. `stats`, when non-null,
  // receives the per-query strategy/selectivity diagnostics.
  virtual std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe_override,
                                        CategoryId category_filter,
                                        const FilterExpression& filter,
                                        FilterScanStats* stats = nullptr) const;

  virtual std::size_t size() const = 0;
  virtual std::size_t dim() const = 0;
};

}  // namespace jdvs
