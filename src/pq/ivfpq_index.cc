#include "pq/ivfpq_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/hash.h"
#include "vecmath/distance.h"
#include "vecmath/kernels.h"

namespace jdvs {

namespace {
// Codes per contiguous scan run; bounds the stack distance buffer in
// ScanListAdc (4 KB of floats).
constexpr std::size_t kCodeRunEntries = 1024;
}  // namespace

IvfPqIndex::IvfPqIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
                       std::shared_ptr<const ProductQuantizer> pq,
                       const IvfPqIndexConfig& config,
                       CopyExecutor copy_executor)
    : quantizer_(std::move(quantizer)),
      pq_(std::move(pq)),
      config_(config),
      codes_(pq_->code_bytes()) {
  assert(quantizer_->dim() == pq_->dim());
  if (config_.keep_raw_vectors) {
    raw_ = std::make_unique<VectorSet>(quantizer_->dim());
  } else {
    // Re-ranking without raw vectors would silently degrade to ADC order.
    config_.rerank_candidates = 0;
  }
  lists_.reserve(quantizer_->num_clusters());
  code_blocks_.reserve(quantizer_->num_clusters());
  for (std::size_t c = 0; c < quantizer_->num_clusters(); ++c) {
    lists_.push_back(std::make_unique<InvertedList>(
        config_.initial_list_capacity, copy_executor));
    code_blocks_.push_back(
        std::make_unique<ScanBlock>(pq_->code_bytes(), kCodeRunEntries));
  }
}

LocalId IvfPqIndex::AddImage(std::string_view image_url, ProductId product_id,
                             CategoryId category,
                             const ProductAttributes& attributes,
                             std::string_view detail_url, FeatureView feature) {
  assert(feature.size() == dim());
  const ImageId image_id = Fnv1a64(image_url);
  const LocalId local = forward_.Append(image_id, product_id, category,
                                        attributes, image_url, detail_url);
  filters_.Append(category, attributes);
  const PqCode code = pq_->Encode(feature);
  const std::size_t slot = codes_.Append(code);
  (void)slot;
  assert(slot == local);
  if (raw_) raw_->Append(feature);
  const std::uint32_t list = quantizer_->NearestCentroid(feature);
  lists_[list]->Append(local);
  code_blocks_[list]->Append(local, code.data());
  local_to_list_.push_back(list);
  valid_.Set(local, true);
  url_to_local_.emplace(std::string(image_url), local);
  product_to_locals_[product_id].push_back(local);
  return local;
}

bool IvfPqIndex::HasImage(std::string_view image_url) const {
  return url_to_local_.find(std::string(image_url)) != url_to_local_.end();
}

bool IvfPqIndex::HasProduct(ProductId product_id) const {
  return product_to_locals_.find(product_id) != product_to_locals_.end();
}

std::size_t IvfPqIndex::UpdateProductAttributes(ProductId product_id,
                                                const ProductAttributes& attributes,
                                                std::string_view detail_url) {
  const auto it = product_to_locals_.find(product_id);
  if (it == product_to_locals_.end()) return 0;
  for (const LocalId local : it->second) {
    forward_.UpdateNumeric(local, attributes);
    filters_.UpdateNumeric(local, attributes);
    if (!detail_url.empty()) forward_.UpdateDetailUrl(local, detail_url);
  }
  return it->second.size();
}

std::size_t IvfPqIndex::SetProductValidity(ProductId product_id, bool valid) {
  const auto it = product_to_locals_.find(product_id);
  if (it == product_to_locals_.end()) return 0;
  for (const LocalId local : it->second) valid_.Set(local, valid);
  return it->second.size();
}

bool IvfPqIndex::SetImageValidity(std::string_view image_url, bool valid) {
  const auto it = url_to_local_.find(std::string(image_url));
  if (it == url_to_local_.end()) return false;
  valid_.Set(it->second, valid);
  return true;
}

void IvfPqIndex::FinishPendingExpansions() {
  for (const auto& list : lists_) list->MaybeFinishExpansion();
}

SearchHit IvfPqIndex::MaterializeHit(const ScoredImage& scored) const {
  const auto local = static_cast<LocalId>(scored.image_id);
  const AttributeSnapshot snapshot = forward_.Get(local);
  SearchHit hit;
  hit.image_id = snapshot.image_id;
  hit.distance = scored.distance;
  hit.product_id = snapshot.product_id;
  hit.category = snapshot.category;
  hit.attributes = snapshot.attributes;
  hit.image_url = std::string(snapshot.image_url);
  hit.detail_url = std::string(snapshot.detail_url);
  return hit;
}

void IvfPqIndex::ScanListAdc(std::size_t list, const float* table,
                             CategoryId category_filter,
                             const MaterializedFilter* filter,
                             bool post_filter, const FilterExpression* direct,
                             FilterScanStats* stats, TopK& adc_topk) const {
  const DistanceKernels& kernels = Kernels();
  const std::size_t m = pq_->num_subspaces();
  const std::size_t ks = pq_->codebook_size();
  code_blocks_[list]->ForEachRun([&](const LocalId* ids,
                                     const std::uint8_t* codes,
                                     const float* /*aux*/,
                                     std::size_t count) {
    // True ADC: packed codes through the pq_adc_scan kernel — per candidate
    // that is m table lookups, gathered 8/16-wide on the SIMD tiers.
    // Summation order per candidate matches DistanceWithTable, so distances
    // are bit-identical to the per-candidate path.
    //
    // Unfiltered and post-filter scans run the whole run through one kernel
    // call; pushdown (pre) mode runs it per 64-code sub-block instead, so a
    // sub-block the bitmap proves dead never gathers its tables at all.
    constexpr std::size_t kFilterBlock = 64;
    float dists[kCodeRunEntries];
    const bool pre = filter != nullptr && !post_filter;
    if (!pre) {
      kernels.pq_adc_scan(table, ks, codes, m, count, dists);
    }
    std::uint32_t keep[kFilterBlock];
    for (std::size_t b = 0; b < count; b += kFilterBlock) {
      const std::size_t block = std::min(kFilterBlock, count - b);
      std::uint64_t alive = 0;
      if (pre) {
        for (std::size_t s = 0; s < block; ++s) {
          alive |= std::uint64_t{filter->Test(ids[b + s])} << s;
        }
        if (alive == 0) {
          if (stats != nullptr) ++stats->blocks_skipped;
          continue;
        }
        kernels.pq_adc_scan(table, ks, codes + b * m, m, block, dists + b);
      }
      if (stats != nullptr) ++stats->blocks_scanned;
      // SIMD admission filter, then per-survivor admission — same structure
      // (sub-block threshold refresh, tie reasoning) as the IVF scan.
      float threshold = adc_topk.Threshold();
      const std::size_t kept =
          kernels.filter_le(dists + b, block, threshold, keep);
      for (std::size_t s = 0; s < kept; ++s) {
        const std::size_t j = b + keep[s];
        if (dists[j] > threshold) continue;
        const LocalId local = ids[j];
        if (filter != nullptr) {
          const bool pass = post_filter ? filter->Test(local)
                                        : ((alive >> keep[s]) & 1) != 0;
          if (!pass) continue;
        } else if (direct != nullptr) {
          // Broad-filter direct post mode: no bitmap, so validity/category/
          // predicates all run here — but only on the kernel survivors.
          if (!valid_.Get(local)) continue;
          if (category_filter != kNoCategoryFilter &&
              forward_.CategoryOf(local) != category_filter) {
            continue;
          }
          const AttributeSnapshot snapshot = forward_.Get(local);
          if (!direct->Matches(snapshot.category, snapshot.attributes)) {
            continue;
          }
        } else {
          if (!valid_.Get(local)) continue;
          if (category_filter != kNoCategoryFilter &&
              forward_.CategoryOf(local) != category_filter) {
            continue;
          }
        }
        adc_topk.Offer(local, dists[j]);
        threshold = adc_topk.Threshold();
      }
    }
  });
}

std::vector<SearchHit> IvfPqIndex::RankAndMaterialize(FeatureView query,
                                                      std::size_t k,
                                                      TopK& adc_topk) const {
  std::vector<ScoredImage> ranked = adc_topk.TakeSorted();
  if (config_.rerank_candidates > 0) {
    // Exact re-ranking against the refinement store (IVFADC+R).
    TopK exact(k);
    for (const ScoredImage& candidate : ranked) {
      const auto local = static_cast<LocalId>(candidate.image_id);
      exact.Offer(candidate.image_id,
                  L2SquaredDistance(query, raw_->At(local)));
    }
    ranked = exact.TakeSorted();
  } else if (ranked.size() > k) {
    ranked.resize(k);
  }

  std::vector<SearchHit> hits;
  hits.reserve(ranked.size());
  for (const ScoredImage& scored : ranked) hits.push_back(MaterializeHit(scored));
  return hits;
}

std::vector<SearchHit> IvfPqIndex::Search(FeatureView query, std::size_t k,
                                          std::size_t nprobe_override,
                                          CategoryId category_filter) const {
  return Search(query, k, nprobe_override, category_filter, nullptr, nullptr,
                /*io_budget_micros=*/0, /*tier_stats=*/nullptr);
}

std::vector<SearchHit> IvfPqIndex::Search(FeatureView query, std::size_t k,
                                          std::size_t nprobe_override,
                                          CategoryId category_filter,
                                          const FilterExpression& filter,
                                          FilterScanStats* stats) const {
  return Search(query, k, nprobe_override, category_filter, &filter, stats,
                /*io_budget_micros=*/0, /*tier_stats=*/nullptr);
}

std::vector<SearchHit> IvfPqIndex::Search(FeatureView query, std::size_t k,
                                          std::size_t nprobe_override,
                                          CategoryId category_filter,
                                          const FilterExpression* filter,
                                          FilterScanStats* stats,
                                          Micros io_budget_micros,
                                          TierScanStats* tier_stats) const {
  assert(query.size() == dim());
  const std::size_t nprobe =
      nprobe_override == 0 ? config_.nprobe : nprobe_override;
  // The PQ scan always honors validity, so it is always folded in.
  const FilterPlan plan = PlanFilteredScan(
      {forward_, filters_, &valid_, quantizer_->num_clusters(),
       config_.filter_post_threshold, config_.filter_widen_threshold,
       config_.filter_widen_factor},
      filter, category_filter, nprobe, stats);
  if (plan.empty_result) return {};
  // Per-query ADC table, built exactly once: num_subspaces x codebook_size
  // partial squared distances.
  const std::vector<float> table = pq_->BuildDistanceTable(query);
  const std::size_t adc_k =
      config_.rerank_candidates > 0 ? std::max(config_.rerank_candidates, k)
                                    : k;
  TopK adc_topk(adc_k);
  std::vector<std::uint32_t> probes =
      quantizer_->NearestCentroids(query, plan.nprobe);
  // Tiered mode: pin the probed code segments before the ADC kernel runs;
  // probes past the io budget are dropped (reduced effective nprobe).
  TieredListStore::PinGuard guard;
  if (tiered_store_ != nullptr) {
    guard = tiered_store_->Pin(probes, io_budget_micros, tier_stats);
    // Not a prefix: quarantined lists are skipped mid-set, over-budget
    // tails are dropped. Scan exactly what the guard holds pinned.
    probes = guard.pinned();
  }
  for (const std::uint32_t list : probes) {
    ScanListAdc(list, table.data(),
                plan.bits ? kNoCategoryFilter : category_filter,
                plan.bitmap(), plan.post_mode, plan.direct, stats,
                adc_topk);
  }
  return RankAndMaterialize(query, k, adc_topk);
}

void IvfPqIndex::ForEachEntry(
    const std::function<void(LocalId, const AttributeSnapshot&,
                             const std::uint8_t*, std::uint32_t, FeatureView,
                             bool)>& visit) const {
  const std::size_t n = forward_.size();
  for (std::size_t local = 0; local < n; ++local) {
    const auto id = static_cast<LocalId>(local);
    const FeatureView raw = raw_ ? raw_->At(local) : FeatureView();
    visit(id, forward_.Get(id), codes_.At(local), local_to_list_[local], raw,
          valid_.Get(local));
  }
}

LocalId IvfPqIndex::AddEncoded(std::string_view image_url,
                               ProductId product_id, CategoryId category,
                               const ProductAttributes& attributes,
                               std::string_view detail_url, const PqCode& code,
                               std::uint32_t list, FeatureView raw_or_empty) {
  assert(list < lists_.size());
  const ImageId image_id = Fnv1a64(image_url);
  const LocalId local = forward_.Append(image_id, product_id, category,
                                        attributes, image_url, detail_url);
  filters_.Append(category, attributes);
  codes_.Append(code);
  if (raw_) {
    if (raw_or_empty.empty()) {
      const FeatureVector decoded = pq_->Decode(code);
      raw_->Append(decoded);
    } else {
      raw_->Append(raw_or_empty);
    }
  }
  lists_[list]->Append(local);
  code_blocks_[list]->Append(local, code.data());
  local_to_list_.push_back(list);
  valid_.Set(local, true);
  url_to_local_.emplace(std::string(image_url), local);
  product_to_locals_[product_id].push_back(local);
  return local;
}

bool IvfPqIndex::code_storage_aligned() const noexcept {
  for (const auto& block : code_blocks_) {
    if (!block->storage_aligned()) return false;
  }
  return true;
}

IvfPqStats IvfPqIndex::Stats() const {
  IvfPqStats stats;
  stats.total_images = forward_.size();
  stats.valid_images = valid_.CountValid();
  stats.num_lists = lists_.size();
  stats.code_bytes_per_vector = pq_->code_bytes();
  stats.code_memory_bytes = codes_.memory_bytes();
  stats.raw_memory_bytes =
      raw_ ? raw_->size() * dim() * sizeof(float) : 0;
  return stats;
}

}  // namespace jdvs
