// Per-partition IVF index: the unit a searcher owns.
//
// Combines everything Sections 2.2-2.4 describe for one partition of the
// image set: the coarse quantizer (k-means classes), the N inverted lists,
// the forward index with product attributes, the per-image features (needed
// to compute distances during the inverted-list scan), and the validity
// bitmap.
//
// Posting layout: each inverted list is one ScanBlock holding its members'
// ids and payloads contiguously in append order. The payload is the list
// codec, the only thing that varies between the two index forms:
//  * flat rows (no ProductQuantizer): 64-byte-aligned rows of padded_dim()
//    floats with zeroed padding plus each row's squared norm, scanned by the
//    fused l2sq_scan_filter kernel in the dot form;
//  * PQ codes (a ProductQuantizer is given): code_bytes() bytes per entry,
//    scanned by pq_adc_scan against a per-query ADC table and filtered by
//    filter_le — the memory-efficient form behind the paper's "100 billion
//    images" scale (a 64-d float feature of 256 B compresses to 8-16 B).
//    With rerank_candidates > 0 the index also keeps each raw feature and
//    re-scores that many ADC candidates exactly (IVFADC+R).
// Both codecs share the forward index, bitmap, attribute filters, filter
// planner, probe and tier pin, the 64-entry sub-block admission loop and
// result materialization; the codec is chosen once per query.
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
#include "index/scan_block.h"
#include "mq/message.h"
#include "pq/codebook.h"
#include "tier/tiered_store.h"
#include "vecmath/aligned.h"
#include "vecmath/topk.h"
#include "vecmath/vector.h"
#include "vecmath/vector_set.h"

namespace jdvs {

struct IvfIndexConfig {
  // Number of inverted lists probed per search (recall knob).
  std::size_t nprobe = 4;
  // When false, the validity bitmap is ignored during the scan and invalid
  // images are filtered only when materializing results — the "no bitmap
  // optimization" ablation baseline.
  bool filter_invalid_during_scan = true;
  // PQ codec only: 0 ranks purely by ADC distance; otherwise this many ADC
  // candidates are re-ranked with exact distances against the raw features,
  // which the index keeps exactly when this is non-zero.
  std::size_t rerank_candidates = 0;
};

struct IvfIndexStats {
  std::size_t total_images = 0;    // forward index entries
  std::size_t valid_images = 0;    // bitmap population
  std::size_t num_lists = 0;
  std::size_t largest_list = 0;
  // ScanBlock chunk growths summed over all lists.
  std::uint64_t list_expansions = 0;
  std::size_t buffer_bytes = 0;
  // List payload per entry: code bytes, or a padded float row (flat codec).
  std::size_t code_bytes_per_vector = 0;
  // Heap bytes allocated for posting lists (payloads, ids, norms).
  std::size_t code_memory_bytes = 0;
  std::size_t raw_memory_bytes = 0;  // IVFADC+R refinement store, if kept
};

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

class IvfIndex {
 public:
  // A null `pq` stores flat feature rows; a non-null one stores PQ codes
  // (its dim must match the quantizer's).
  explicit IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
                    const IvfIndexConfig& config = {},
                    std::shared_ptr<const ProductQuantizer> pq = nullptr);

  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  // ---- Writer operations (single writer) ----

  // Inserts a brand-new image (Figure 8): forward-index entry + attributes,
  // URL into the buffer, feature encoded into the inverted list chosen by
  // the quantizer, validity bit set. Returns the local id.
  LocalId AddImage(std::string_view image_url, ProductId product_id,
                   CategoryId category, const ProductAttributes& attributes,
                   std::string_view detail_url, FeatureView feature);

  // True if this image URL already has a forward-index entry (the re-listing
  // reuse path: no re-extraction, no new entry — just revalidation).
  bool HasImage(std::string_view image_url) const;
  bool HasProduct(ProductId product_id) const;

  // Updates numeric attributes (and optionally the detail URL) on every
  // image of the product in this partition (Figure 7). Returns the number of
  // entries touched.
  std::size_t UpdateProductAttributes(ProductId product_id,
                                      const ProductAttributes& attributes,
                                      std::string_view detail_url = {});

  // Marks all of the product's images (in this partition) valid/invalid —
  // O(1) per image, never touches the inverted lists (Deletion, Figure 6).
  // Returns the number of bits flipped.
  std::size_t SetProductValidity(ProductId product_id, bool valid);

  // Marks one image valid/invalid; false if unknown.
  bool SetImageValidity(std::string_view image_url, bool valid);

  bool IsImageValid(std::string_view image_url) const;

  // PQ restore path: inserts a pre-encoded entry. The code (code_bytes()
  // bytes, each below codebook_size()) and the list (below num_lists()) are
  // trusted as-is so restored indexes reproduce the original structure
  // exactly; the caller validates them. `raw_or_empty` feeds the refinement
  // store when one is kept; when empty, the decoded approximation is stored.
  LocalId AddEncoded(std::string_view image_url, ProductId product_id,
                     CategoryId category, const ProductAttributes& attributes,
                     std::string_view detail_url, const std::uint8_t* code,
                     std::uint32_t list, FeatureView raw_or_empty);

  // ---- Reader operations (any thread, lock-free) ----

  // Top-k most similar valid images to `query`. `nprobe_override` of 0 uses
  // the configured nprobe; `category_filter` of kNoCategoryFilter searches
  // everything, otherwise only images of that category are considered (the
  // production use of the detector output, Section 2.4).
  std::vector<SearchHit> Search(
      FeatureView query, std::size_t k, std::size_t nprobe_override = 0,
      CategoryId category_filter = kNoCategoryFilter) const;

  // Hybrid filtered search with true predicate pushdown: the filter is
  // materialized once into a bitmap (category tags AND validity AND numeric
  // ranges), a selectivity-adaptive strategy is chosen (pre-filter
  // sub-blocks / post-filter survivors / widen nprobe — see
  // filter/filter_plan.h) and the scan skips wholly-dead 64-entry
  // sub-blocks without touching their payloads. Re-ranking operates on
  // already-filtered candidates, so predicates survive the IVFADC+R finish.
  // `stats`, when non-null, receives the per-query diagnostics.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter,
                                const FilterExpression& filter,
                                FilterScanStats* stats = nullptr) const;

  // Full-fat search: every per-query knob in one call (the overloads above
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
  // already-chosen probe set, without re-ranking or forward-index
  // materialization. The building block Search() composes (probe ->
  // ScanProbes -> materialize); exposed for callers that schedule coarse
  // probing themselves and for stage-level benchmarking.
  std::vector<ScoredImage> ScanProbes(
      FeatureView query, std::size_t k,
      std::span<const std::uint32_t> probes,
      CategoryId category_filter = kNoCategoryFilter,
      const MaterializedFilter* filter = nullptr, bool post_filter = false,
      FilterScanStats* stats = nullptr,
      const FilterExpression* direct_filter = nullptr) const;

  // Brute-force scan over all valid images, exact subtract-form distances
  // (ground truth for recall tests). Flat-row codec only.
  std::vector<SearchHit> SearchExhaustive(FeatureView query,
                                          std::size_t k) const;

  // Brute-force filtered ground truth: every valid image matching the
  // predicates, exact distances, top-k. The oracle the hybrid property
  // tests compare pushdown against. Flat-row codec only.
  std::vector<SearchHit> SearchExhaustive(FeatureView query, std::size_t k,
                                          const FilterExpression& filter) const;

  // Visits every entry in local-id order with its attributes, its list
  // payload (a padded float row, or a code_bytes() PQ code), its exact
  // feature when the index holds one (always for flat rows; for PQ only with
  // the refinement store, else empty) and its validity — the iteration
  // snapshotting and replication tooling builds on. Safe concurrently with
  // searches; must not race the writer (the per-local payload pointers are
  // writer-owned state).
  void ForEachEntry(
      const std::function<void(LocalId, const AttributeSnapshot&,
                               const std::uint8_t* payload,
                               FeatureView feature, bool valid)>& visit) const;

  IvfIndexStats Stats() const;
  std::size_t size() const { return forward_.size(); }
  std::size_t dim() const { return quantizer_->dim(); }
  // Per-row scan stride in floats (dim rounded up to whole cache lines) of
  // the flat codec.
  std::size_t padded_dim() const noexcept { return padded_dim_; }
  const CoarseQuantizer& quantizer() const { return *quantizer_; }
  // The list codec: null for flat rows.
  const ProductQuantizer* pq() const noexcept { return pq_.get(); }
  const IvfIndexConfig& config() const { return config_; }
  // The attribute filter index this partition maintains alongside the
  // forward index (read-only: snapshot verification and tests).
  const AttributeFilterIndex& attribute_filters() const { return filters_; }

  // True when every published payload run sits on a 64-byte boundary — the
  // layout invariant snapshot load re-checks before SIMD scans run on the
  // restored storage.
  bool storage_aligned() const noexcept;

  // ---- Tiered (mmap) restore hooks: writer-only, load-time, flat rows ----

  // Appends an entry's metadata only — forward index, attribute filters,
  // validity, lookup maps — without touching the posting lists; the feature
  // row arrives later through AttachFrozenList. The restore-path twin of
  // AddImage for the v4 mapped loader.
  LocalId AddImageMetadata(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url);

  // Installs list `list`'s frozen scan storage: `count` entries whose ids
  // and norms the index copies into heap arrays (the RAM-resident "head")
  // and whose payload rows stay at `payload` — 64-byte aligned, padded_dim()
  // stride, typically inside an mmap'd v4 snapshot, valid for the index's
  // lifetime. Resolves the per-local payload pointers. Must follow the
  // AddImageMetadata calls that defined the ids; each list may be attached
  // once, before any AddImage.
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

  // Per-list scan storage introspection (snapshot writers).
  std::size_t num_lists() const noexcept { return blocks_.size(); }
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
  // Forward index + attribute filters for a new entry; returns its id.
  LocalId AppendMetadata(std::string_view image_url, ProductId product_id,
                         CategoryId category,
                         const ProductAttributes& attributes,
                         std::string_view detail_url);
  // Appends `local`'s payload to `list` and records where it lives.
  void AppendPayload(LocalId local, std::uint32_t list, const void* payload,
                     float norm);
  // Sets the validity bit and the writer-side lookup maps: the entry is
  // searchable from here on.
  void Publish(LocalId local, std::string_view image_url,
               ProductId product_id);

  SearchHit MaterializeHit(const ScoredImage& scored) const;
  // Materializes ranked scan results, applying the late validity filter when
  // the ablation flag disabled filtering during the scan.
  std::vector<SearchHit> MaterializeRanked(
      std::span<const ScoredImage> ranked) const;
  // Scans one list through the shared 64-entry sub-block admission loop.
  // `score(payload, norms, n, threshold, keep, keep_dist)` is the codec: it
  // computes the distances of `n` consecutive entries and writes the
  // indices (ascending) and distances of those at or under `threshold`,
  // returning how many. A non-null `filter` replaces the per-survivor
  // validity/category checks (the bitmap already folds them): post_filter
  // tests kernel survivors only, otherwise sub-block masks are gathered
  // first and wholly-dead sub-blocks skip the codec. A non-null `direct`
  // (mutually exclusive with `filter`) post-filters kernel survivors
  // straight against the predicates — no bitmap exists.
  template <typename Score>
  void ScanList(std::size_t list, const Score& score,
                CategoryId category_filter, const MaterializedFilter* filter,
                bool post_filter, const FilterExpression* direct,
                FilterScanStats* stats, TopK& topk) const;
  // Shared body of both SearchExhaustive overloads (`filter` may be null).
  std::vector<SearchHit> ExhaustiveSearch(
      FeatureView query, std::size_t k, const FilterExpression* filter) const;
  // Copies `query` into a padded row: `stack_buf` (kMaxStackQueryFloats
  // capacity) when it fits, else a fresh aligned heap block kept alive by
  // `heap_buf`.
  const float* PadQuery(FeatureView query, float* stack_buf,
                        AlignedArray<float>& heap_buf) const;

  static constexpr std::size_t kMaxStackQueryFloats = 1024;

  std::shared_ptr<const CoarseQuantizer> quantizer_;
  std::shared_ptr<const ProductQuantizer> pq_;  // null = flat rows
  IvfIndexConfig config_;
  const std::size_t padded_dim_;
  ForwardIndex forward_;
  ValidityBitmap valid_;
  // Attribute filter index (per-tag bitmaps + numeric columns), appended in
  // lockstep with forward_ so LocalIds align.
  AttributeFilterIndex filters_;
  // Per-list postings in list order: ids plus the codec's payloads.
  std::vector<std::unique_ptr<ScanBlock>> blocks_;
  // IVFADC+R refinement store (PQ with rerank_candidates > 0 only).
  std::unique_ptr<VectorSet> raw_;
  // Writer-owned scratch row for padding incoming features (flat codec).
  AlignedArray<float> pad_scratch_;
  // Writer-owned lookup state (never touched by Search).
  // local id -> its payload inside a ScanBlock (pointers are stable: chunks
  // never move once allocated).
  std::vector<const std::uint8_t*> local_payload_;
  std::unordered_map<std::string, LocalId> url_to_local_;
  std::unordered_map<ProductId, std::vector<LocalId>> product_to_locals_;
  // Residency cache for disk-backed frozen lists (null = fully RAM-resident;
  // attached once at load, before the index takes traffic).
  std::shared_ptr<TieredListStore> tiered_store_;
};

// Hybrid search without pushdown: fetches unfiltered hits through
// index.Search and keeps those matching `filter`, growing the fetch 4x until
// k survive or the index is exhausted. Selective filters pay recall; this is
// the baseline the pushdown scan is benchmarked and tested against.
// `stats->strategy` reads kFallback.
std::vector<SearchHit> OverFetchFilteredSearch(
    const IvfIndex& index, FeatureView query, std::size_t k,
    std::size_t nprobe_override, CategoryId category_filter,
    const FilterExpression& filter, FilterScanStats* stats = nullptr);

}  // namespace jdvs
