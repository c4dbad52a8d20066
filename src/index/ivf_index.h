// Per-partition IVF index: the unit a searcher owns.
//
// Combines everything Sections 2.2-2.4 describe for one partition of the
// image set: the coarse quantizer (k-means classes), the N inverted lists,
// the forward index with product attributes, the per-image feature store
// (needed to compute Euclidean distances during the inverted-list scan), and
// the validity bitmap.
//
// Scan layout: each inverted list owns a ScanBlock holding its members'
// features contiguously in append order — 64-byte-aligned rows of
// padded_dim() floats with zeroed padding — so the hot loop is a linear,
// prefetch-friendly sweep through the runtime-dispatched batch kernels
// (vecmath/kernels.h) instead of a per-candidate pointer chase. The
// InvertedList remains the id-ordering authority (expansion protocol,
// stats); the ScanBlock is the distance-computation layout.
//
// Concurrency contract (matching the paper's architecture): exactly one
// writer — the searcher applies every index mutation, both real-time updates
// and re-additions — and any number of concurrent reader threads executing
// Search(). All reader-visible state is published via atomics; Search never
// takes a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/quantizer.h"
#include "common/clock.h"
#include "filter/attribute_filter_index.h"
#include "filter/filter_plan.h"
#include "index/bitmap.h"
#include "index/forward_index.h"
#include "index/image_index.h"
#include "index/inverted_index.h"
#include "index/scan_block.h"
#include "mq/message.h"
#include "tier/tiered_store.h"
#include "vecmath/aligned.h"
#include "vecmath/topk.h"
#include "vecmath/vector.h"

namespace jdvs {

struct IvfIndexConfig {
  // Number of inverted lists probed per search (recall knob).
  std::size_t nprobe = 4;
  // Pre-allocated capacity of each inverted list.
  std::size_t initial_list_capacity = 64;
  // When false, the validity bitmap is ignored during the scan and invalid
  // images are filtered only when materializing results — the "no bitmap
  // optimization" ablation baseline.
  bool filter_invalid_during_scan = true;
  // ---- Hybrid filter pushdown strategy knobs ----
  // Selectivity (matching fraction) at or above which the scan post-filters
  // kernel survivors instead of evaluating the bitmap per sub-block: when
  // almost everything passes, per-survivor tests are cheaper than
  // per-candidate mask gathering.
  double filter_post_threshold = 0.5;
  // Selectivity below which nprobe is widened (probed lists multiplied by
  // filter_widen_factor, clamped to the list count) so k results can still
  // be found under an extreme filter.
  double filter_widen_threshold = 0.01;
  std::size_t filter_widen_factor = 4;
};

struct IvfIndexStats {
  std::size_t total_images = 0;    // forward index entries
  std::size_t valid_images = 0;    // bitmap population
  std::size_t num_lists = 0;
  std::size_t largest_list = 0;
  std::uint64_t list_expansions = 0;
  std::size_t buffer_bytes = 0;
};

class IvfIndex final : public ImageIndex {
 public:
  IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
           const IvfIndexConfig& config = {},
           CopyExecutor copy_executor = InlineCopyExecutor());

  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  // ---- Writer operations (single writer) ----

  // Inserts a brand-new image (Figure 8): forward-index entry + attributes,
  // URL into the buffer, feature stored, image id appended to the inverted
  // list chosen by the quantizer, validity bit set. Returns the local id.
  LocalId AddImage(std::string_view image_url, ProductId product_id,
                   CategoryId category, const ProductAttributes& attributes,
                   std::string_view detail_url, FeatureView feature) override;

  // True if this image URL already has a forward-index entry (the re-listing
  // reuse path: no re-extraction, no new entry — just revalidation).
  bool HasImage(std::string_view image_url) const override;
  bool HasProduct(ProductId product_id) const override;

  // Updates numeric attributes (and optionally the detail URL) on every
  // image of the product in this partition (Figure 7). Returns the number of
  // entries touched.
  std::size_t UpdateProductAttributes(ProductId product_id,
                                      const ProductAttributes& attributes,
                                      std::string_view detail_url = {}) override;

  // Marks all of the product's images (in this partition) valid/invalid —
  // O(1) per image, never touches the inverted lists (Deletion, Figure 6).
  // Returns the number of bits flipped.
  std::size_t SetProductValidity(ProductId product_id, bool valid) override;

  // Marks one image valid/invalid; false if unknown.
  bool SetImageValidity(std::string_view image_url, bool valid) override;

  bool IsImageValid(std::string_view image_url) const;

  // Finishes any outstanding inverted-list expansions (writer housekeeping).
  void FinishPendingExpansions() override;

  // ---- Reader operations (any thread, lock-free) ----

  // Top-k most similar valid images to `query`. `nprobe_override` of 0 uses
  // the configured nprobe; `category_filter` optionally restricts the scan.
  using ImageIndex::Search;
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter) const override;

  // Hybrid filtered search with true predicate pushdown: the filter is
  // materialized once into a bitmap (category tags AND validity AND numeric
  // ranges), a selectivity-adaptive strategy is chosen (pre-filter
  // sub-blocks / post-filter survivors / widen nprobe — see the
  // IvfIndexConfig knobs) and the scan skips wholly-dead 64-entry
  // sub-blocks without touching their feature rows.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter,
                                const FilterExpression& filter,
                                FilterScanStats* stats = nullptr) const override;

  // Full-fat search: every per-query knob in one call (the virtuals above
  // forward here). `filter` may be null or empty (unfiltered). In tiered
  // mode the probed lists are pinned in the residency cache before the scan;
  // `io_budget_micros` bounds the accumulated cold-list fault time (0 = no
  // limit; probes past the budget are dropped — a reduced effective nprobe)
  // and `tier_stats` receives the hit/fault accounting.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter,
                                const FilterExpression* filter,
                                FilterScanStats* stats,
                                Micros io_budget_micros,
                                TierScanStats* tier_stats) const;

  // Scan stage alone: top-k (local id, distance) pairs over an
  // already-chosen probe set, without forward-index materialization. The
  // building block Search() composes (probe -> ScanProbes -> materialize);
  // exposed for callers that schedule coarse probing themselves and for
  // stage-level benchmarking.
  std::vector<ScoredImage> ScanProbes(
      FeatureView query, std::size_t k,
      std::span<const std::uint32_t> probes,
      CategoryId category_filter = kNoCategoryFilter,
      const MaterializedFilter* filter = nullptr, bool post_filter = false,
      FilterScanStats* stats = nullptr,
      const FilterExpression* direct_filter = nullptr) const;

  // Brute-force scan over all valid images (ground truth for recall tests).
  std::vector<SearchHit> SearchExhaustive(FeatureView query,
                                          std::size_t k) const;

  // Brute-force filtered ground truth: every valid image matching the
  // predicates, exact distances (subtract form), top-k. The oracle the
  // hybrid property tests compare pushdown against.
  std::vector<SearchHit> SearchExhaustive(FeatureView query, std::size_t k,
                                          const FilterExpression& filter) const;

  // Visits every entry in local-id order with its attributes, feature and
  // validity — the iteration snapshotting and replication tooling builds on.
  // Safe concurrently with searches; must not race the writer (the per-local
  // feature pointers are writer-owned state).
  void ForEachEntry(
      const std::function<void(LocalId, const AttributeSnapshot&, FeatureView,
                               bool valid)>& visit) const;

  IvfIndexStats Stats() const;
  std::size_t size() const override { return forward_.size(); }
  std::size_t dim() const override { return quantizer_->dim(); }
  // Per-row scan stride in floats (dim rounded up to whole cache lines).
  std::size_t padded_dim() const noexcept { return padded_dim_; }
  const CoarseQuantizer& quantizer() const { return *quantizer_; }
  const IvfIndexConfig& config() const { return config_; }
  // The attribute filter index this partition maintains alongside the
  // forward index (read-only: snapshot verification and tests).
  const AttributeFilterIndex& attribute_filters() const { return filters_; }

  // True when every published feature row sits on a 64-byte boundary — the
  // layout invariant snapshot load re-checks before SIMD scans run on the
  // restored storage.
  bool feature_storage_aligned() const noexcept;

  // ---- Tiered (mmap) restore hooks: writer-only, load-time ----

  // Appends an entry's metadata only — forward index, attribute filters,
  // validity, lookup maps — without touching the inverted lists or scan
  // storage; the feature row arrives later through AttachFrozenList. The
  // restore-path twin of AddImage for the v4 mapped loader.
  LocalId AddImageMetadata(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url);

  // Installs list `list`'s frozen scan storage: `count` entries whose ids
  // and norms the index copies into heap arrays (the RAM-resident "head")
  // and whose payload rows stay at `payload` — 64-byte aligned, padded_dim()
  // stride, typically inside an mmap'd v4 snapshot, valid for the index's
  // lifetime. Replays the ids into the InvertedList and resolves the
  // per-local feature pointers. Must follow the AddImageMetadata calls that
  // defined the ids; each list may be attached once, before any AddImage.
  void AttachFrozenList(std::size_t list, const LocalId* ids,
                        const float* norms, const std::uint8_t* payload,
                        std::size_t count);

  // Attaches the residency cache; searches pin their probe sets through it
  // from then on. The store must own the mapping AttachFrozenList's payload
  // pointers refer into.
  void AttachTieredStore(std::shared_ptr<TieredListStore> store) {
    tiered_store_ = std::move(store);
  }
  const TieredListStore* tiered_store() const noexcept {
    return tiered_store_.get();
  }
  // Shared (mutable) handle for the background scrubber: ScrubList poisons
  // corrupt lists, which is a store-internal state change, not an index one.
  std::shared_ptr<TieredListStore> tiered_store_shared() const noexcept {
    return tiered_store_;
  }

  // Per-list scan storage introspection (tiered snapshot writer).
  std::size_t num_lists() const noexcept { return lists_.size(); }
  std::size_t ListEntryCount(std::size_t list) const {
    return blocks_[list]->size();
  }
  // Visits list `list`'s published entries as contiguous runs:
  // fn(ids, payload, norms, count). Safe concurrently with searches.
  void ForEachScanRun(
      std::size_t list,
      const std::function<void(const LocalId*, const std::uint8_t*,
                               const float*, std::size_t)>& fn) const;

 private:
  SearchHit MaterializeHit(const ScoredImage& scored) const;
  // Materializes ranked scan results, applying the late validity filter when
  // the ablation flag disabled filtering during the scan.
  std::vector<SearchHit> MaterializeRanked(
      std::span<const ScoredImage> ranked) const;
  // Scans one list given a query padded to padded_dim() (zeroed tail,
  // 64-byte-aligned base) and its squared L2 norm (the fused scan kernel
  // computes distances in the dot-product form against per-row norms stored
  // in the scan block). A non-null `filter` replaces the per-survivor
  // validity/category checks (the bitmap already folds them): post_filter
  // tests kernel survivors only, otherwise sub-block masks are gathered
  // first and wholly-dead sub-blocks skip the kernel.
  // A non-null `direct` (mutually exclusive with `filter`) post-filters
  // kernel survivors straight against the predicates — no bitmap exists.
  void ScanListPadded(std::size_t list, const float* padded_query,
                      float query_norm, CategoryId category_filter,
                      const MaterializedFilter* filter, bool post_filter,
                      const FilterExpression* direct, FilterScanStats* stats,
                      TopK& topk) const;
  // Copies `query` into a padded row: `stack_buf` (kMaxStackQueryFloats
  // capacity) when it fits, else a fresh aligned heap block kept alive by
  // `heap_buf`.
  const float* PadQuery(FeatureView query, float* stack_buf,
                        AlignedArray<float>& heap_buf) const;

  static constexpr std::size_t kMaxStackQueryFloats = 1024;

  std::shared_ptr<const CoarseQuantizer> quantizer_;
  IvfIndexConfig config_;
  const std::size_t padded_dim_;
  ForwardIndex forward_;
  ValidityBitmap valid_;
  // Attribute filter index (per-tag bitmaps + numeric columns), appended in
  // lockstep with forward_ so LocalIds align.
  AttributeFilterIndex filters_;
  std::vector<std::unique_ptr<InvertedList>> lists_;
  // Per-list contiguous feature rows in list order (the scan layout).
  std::vector<std::unique_ptr<ScanBlock>> blocks_;
  // Writer-owned scratch row for padding incoming features.
  AlignedArray<float> pad_scratch_;
  // Writer-owned lookup state (never touched by Search).
  // local id -> its feature row inside a ScanBlock (pointers are stable:
  // chunks never move once allocated).
  std::vector<const float*> local_feature_;
  std::unordered_map<std::string, LocalId> url_to_local_;
  std::unordered_map<ProductId, std::vector<LocalId>> product_to_locals_;
  // Residency cache for disk-backed frozen lists (null = fully RAM-resident;
  // attached once at load, before the index takes traffic).
  std::shared_ptr<TieredListStore> tiered_store_;
};

}  // namespace jdvs
