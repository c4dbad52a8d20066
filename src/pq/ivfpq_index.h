// IVF-PQ index: the memory-efficient variant of the per-partition index.
//
// Same structure as IvfIndex — coarse quantizer, inverted lists, forward
// index, validity bitmap, single writer / lock-free readers — but image
// features are stored as M-byte PQ codes instead of raw floats, and the
// inverted-list scan uses asymmetric distance computation. This is what
// makes the paper's "100 billion images" claim feasible: a 64-d float
// feature (256 B) compresses to 8-16 B.
//
// Optional exact re-ranking: when `rerank_candidates > 0`, the scan first
// selects that many candidates by ADC distance, then re-scores them against
// raw vectors kept in a (larger) refinement store — the standard IVFADC+R
// recipe.
//
// Scan layout: each inverted list owns a ScanBlock of packed PQ codes in
// append order, so the ADC scan is one pq_adc_scan kernel call per
// contiguous run (8-16 candidates per gather on SIMD tiers) instead of a
// per-candidate pointer chase through the chunked CodeSet. The CodeSet
// remains the per-local-id authority for snapshotting/iteration.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/quantizer.h"
#include "filter/attribute_filter_index.h"
#include "filter/filter_plan.h"
#include "index/bitmap.h"
#include "index/forward_index.h"
#include "index/inverted_index.h"
#include "index/ivf_index.h"
#include "index/scan_block.h"
#include "pq/codebook.h"
#include "vecmath/topk.h"
#include "vecmath/vector_set.h"

namespace jdvs {

struct IvfPqIndexConfig {
  std::size_t nprobe = 4;
  std::size_t initial_list_capacity = 64;
  // 0 = rank purely by ADC distance; otherwise re-rank this many ADC
  // candidates with exact distances (requires keep_raw_vectors).
  std::size_t rerank_candidates = 0;
  bool keep_raw_vectors = false;
  // Hybrid filter pushdown strategy knobs (same semantics as
  // IvfIndexConfig's): post-filter survivors at/above the first threshold,
  // widen nprobe below the second.
  double filter_post_threshold = 0.5;
  double filter_widen_threshold = 0.01;
  std::size_t filter_widen_factor = 4;
};

struct IvfPqStats {
  std::size_t total_images = 0;
  std::size_t valid_images = 0;
  std::size_t num_lists = 0;
  std::size_t code_bytes_per_vector = 0;
  std::size_t code_memory_bytes = 0;
  std::size_t raw_memory_bytes = 0;  // refinement store, if enabled
};

class IvfPqIndex final : public ImageIndex {
 public:
  IvfPqIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
             std::shared_ptr<const ProductQuantizer> pq,
             const IvfPqIndexConfig& config = {},
             CopyExecutor copy_executor = InlineCopyExecutor());

  IvfPqIndex(const IvfPqIndex&) = delete;
  IvfPqIndex& operator=(const IvfPqIndex&) = delete;

  // Single writer.
  LocalId AddImage(std::string_view image_url, ProductId product_id,
                   CategoryId category, const ProductAttributes& attributes,
                   std::string_view detail_url, FeatureView feature) override;

  bool HasImage(std::string_view image_url) const override;
  bool HasProduct(ProductId product_id) const override;
  std::size_t UpdateProductAttributes(ProductId product_id,
                                      const ProductAttributes& attributes,
                                      std::string_view detail_url = {}) override;
  std::size_t SetProductValidity(ProductId product_id, bool valid) override;
  bool SetImageValidity(std::string_view image_url, bool valid) override;
  void FinishPendingExpansions() override;

  // Lock-free readers.
  using ImageIndex::Search;
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter) const override;

  // Hybrid filtered search with bitmap pushdown into the ADC scan: dead
  // 64-code sub-blocks skip the pq_adc_scan kernel in pre mode, survivors
  // are bitmap-tested in post mode, and extreme selectivity widens nprobe
  // (see the config knobs). Re-ranking operates on already-filtered
  // candidates, so predicates survive the IVFADC+R finish.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter,
                                const FilterExpression& filter,
                                FilterScanStats* stats = nullptr) const override;

  // Full-fat overload: optional filter plus the tiered-serving knobs (io
  // budget for cold-list faults, per-query tier accounting). The other
  // Search overloads forward here.
  std::vector<SearchHit> Search(FeatureView query, std::size_t k,
                                std::size_t nprobe_override,
                                CategoryId category_filter,
                                const FilterExpression* filter,
                                FilterScanStats* stats,
                                Micros io_budget_micros,
                                TierScanStats* tier_stats) const;

  // Visits every entry with its attributes, PQ code (code_bytes() bytes),
  // inverted-list assignment, optional raw feature (empty view when the
  // refinement store is disabled) and validity. Snapshotting hook.
  void ForEachEntry(
      const std::function<void(LocalId, const AttributeSnapshot&,
                               const std::uint8_t* code, std::uint32_t list,
                               FeatureView raw, bool valid)>& visit) const;

  IvfPqStats Stats() const;
  std::size_t size() const override { return forward_.size(); }
  std::size_t dim() const override { return quantizer_->dim(); }
  const ProductQuantizer& pq() const { return *pq_; }
  const CoarseQuantizer& quantizer() const { return *quantizer_; }
  const IvfPqIndexConfig& config() const { return config_; }
  const AttributeFilterIndex& attribute_filters() const { return filters_; }

  // Inserts a pre-encoded entry (snapshot restore path): the code and the
  // inverted-list assignment are trusted as-is, so restored indexes
  // reproduce the original structure exactly. `raw_or_empty` feeds the
  // refinement store when enabled; when empty, the decoded approximation is
  // stored instead.
  LocalId AddEncoded(std::string_view image_url, ProductId product_id,
                     CategoryId category, const ProductAttributes& attributes,
                     std::string_view detail_url, const PqCode& code,
                     std::uint32_t list, FeatureView raw_or_empty);

  // True when every published code run sits on a 64-byte boundary (layout
  // invariant re-checked after snapshot restore).
  bool code_storage_aligned() const noexcept;

  // Attaches a residency cache over the packed-code payload; searches pin
  // their probe sets through it (same contract as IvfIndex's tiered mode —
  // the store's extents address this index's per-list code segments).
  void AttachTieredStore(std::shared_ptr<TieredListStore> store) {
    tiered_store_ = std::move(store);
  }
  const TieredListStore* tiered_store() const noexcept {
    return tiered_store_.get();
  }

 private:
  SearchHit MaterializeHit(const ScoredImage& scored) const;
  // ADC scan of one list: one pq_adc_scan kernel call per contiguous run,
  // then validity/category filtering on the way into the heap. A non-null
  // `filter` replaces those checks with bitmap tests; in pre mode the ADC
  // kernel runs per 64-code sub-block so wholly-dead sub-blocks skip the
  // table gathers entirely.
  void ScanListAdc(std::size_t list, const float* table,
                   CategoryId category_filter,
                   const MaterializedFilter* filter, bool post_filter,
                   const FilterExpression* direct, FilterScanStats* stats,
                   TopK& adc_topk) const;
  // Post-scan finish of Search: optional exact re-ranking (IVFADC+R), trim
  // to k, materialize.
  std::vector<SearchHit> RankAndMaterialize(FeatureView query, std::size_t k,
                                            TopK& adc_topk) const;

  std::shared_ptr<const CoarseQuantizer> quantizer_;
  std::shared_ptr<const ProductQuantizer> pq_;
  IvfPqIndexConfig config_;
  ForwardIndex forward_;
  // Attribute filter index, appended in lockstep with forward_.
  AttributeFilterIndex filters_;
  CodeSet codes_;
  std::unique_ptr<VectorSet> raw_;  // only when keep_raw_vectors
  ValidityBitmap valid_;
  std::vector<std::unique_ptr<InvertedList>> lists_;
  // Per-list packed codes in list order (the ADC scan layout).
  std::vector<std::unique_ptr<ScanBlock>> code_blocks_;
  std::unordered_map<std::string, LocalId> url_to_local_;
  std::unordered_map<ProductId, std::vector<LocalId>> product_to_locals_;
  std::vector<std::uint32_t> local_to_list_;  // writer-owned
  std::shared_ptr<TieredListStore> tiered_store_;
};

}  // namespace jdvs
