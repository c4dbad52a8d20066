#include "index/ivf_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "vecmath/kernels.h"

namespace jdvs {

namespace {
// Entries per contiguous scan run. Bounds the stack survivor buffers in
// ScanListPadded; 256 rows of a 960-d (padded) feature are ~1 MB, well past
// the L2 prefetch horizon, so longer runs buy nothing.
constexpr std::size_t kScanRunEntries = 256;

// Squared L2 norm with a float64 accumulator: appended once per row and
// reused by every query, so spend the extra precision here rather than in
// the hot kernel.
float SquaredNorm(const float* v, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return static_cast<float>(s);
}
}  // namespace

IvfIndex::IvfIndex(std::shared_ptr<const CoarseQuantizer> quantizer,
                   const IvfIndexConfig& config, CopyExecutor copy_executor)
    : quantizer_(std::move(quantizer)),
      config_(config),
      padded_dim_(PaddedDim(quantizer_->dim())),
      pad_scratch_(AllocateAligned<float>(PaddedDim(quantizer_->dim()))) {
  lists_.reserve(quantizer_->num_clusters());
  blocks_.reserve(quantizer_->num_clusters());
  for (std::size_t c = 0; c < quantizer_->num_clusters(); ++c) {
    lists_.push_back(std::make_unique<InvertedList>(
        config_.initial_list_capacity, copy_executor));
    blocks_.push_back(std::make_unique<ScanBlock>(
        padded_dim_ * sizeof(float), kScanRunEntries));
  }
}

LocalId IvfIndex::AddImage(std::string_view image_url, ProductId product_id,
                           CategoryId category,
                           const ProductAttributes& attributes,
                           std::string_view detail_url, FeatureView feature) {
  assert(feature.size() == dim());
  // 1. "a new index element plus the product's attributes are created in the
  //    forward index. The image URL is then inserted to the buffer and the
  //    offset is recorded" (Figure 8).
  const ImageId image_id = Fnv1a64(image_url);
  const LocalId local = forward_.Append(image_id, product_id, category,
                                        attributes, image_url, detail_url);
  // 2. "the inverted index list that the image belongs to is calculated
  //    based on its high-dimensional features. The image ID is then added to
  //    the end of the inverted list and the last element position ... is
  //    updated in the auxiliary array."
  // Attribute filter index in lockstep with the forward index: same local
  // id, same tag, same numeric values.
  filters_.Append(category, attributes);
  const std::uint32_t list = quantizer_->NearestCentroid(feature);
  lists_[list]->Append(local);
  // 3. Feature row into the list's scan block (padding lanes stay zero: the
  //    scratch row was zero-allocated and only dim() floats are rewritten).
  std::memcpy(pad_scratch_.get(), feature.data(),
              dim() * sizeof(float));
  ScanBlock& block = *blocks_[list];
  block.Append(local, pad_scratch_.get(),
               SquaredNorm(pad_scratch_.get(), dim()));
  local_feature_.push_back(
      reinterpret_cast<const float*>(block.PayloadAt(block.size() - 1)));
  // 4. Valid and searchable from this moment (data freshness).
  valid_.Set(local, true);
  // Writer-side lookup state.
  url_to_local_.emplace(std::string(image_url), local);
  product_to_locals_[product_id].push_back(local);
  return local;
}

bool IvfIndex::HasImage(std::string_view image_url) const {
  return url_to_local_.find(std::string(image_url)) != url_to_local_.end();
}

bool IvfIndex::HasProduct(ProductId product_id) const {
  return product_to_locals_.find(product_id) != product_to_locals_.end();
}

std::size_t IvfIndex::UpdateProductAttributes(ProductId product_id,
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

std::size_t IvfIndex::SetProductValidity(ProductId product_id, bool valid) {
  const auto it = product_to_locals_.find(product_id);
  if (it == product_to_locals_.end()) return 0;
  for (const LocalId local : it->second) valid_.Set(local, valid);
  return it->second.size();
}

bool IvfIndex::SetImageValidity(std::string_view image_url, bool valid) {
  const auto it = url_to_local_.find(std::string(image_url));
  if (it == url_to_local_.end()) return false;
  valid_.Set(it->second, valid);
  return true;
}

bool IvfIndex::IsImageValid(std::string_view image_url) const {
  const auto it = url_to_local_.find(std::string(image_url));
  return it != url_to_local_.end() && valid_.Get(it->second);
}

void IvfIndex::FinishPendingExpansions() {
  for (const auto& list : lists_) list->MaybeFinishExpansion();
}

LocalId IvfIndex::AddImageMetadata(std::string_view image_url,
                                   ProductId product_id, CategoryId category,
                                   const ProductAttributes& attributes,
                                   std::string_view detail_url) {
  const ImageId image_id = Fnv1a64(image_url);
  const LocalId local = forward_.Append(image_id, product_id, category,
                                        attributes, image_url, detail_url);
  filters_.Append(category, attributes);
  // Feature pointer resolved later by AttachFrozenList.
  local_feature_.push_back(nullptr);
  valid_.Set(local, true);
  url_to_local_.emplace(std::string(image_url), local);
  product_to_locals_[product_id].push_back(local);
  return local;
}

void IvfIndex::AttachFrozenList(std::size_t list, const LocalId* ids,
                                const float* norms,
                                const std::uint8_t* payload,
                                std::size_t count) {
  assert(list < lists_.size());
  if (count == 0) return;
  auto owned_ids = AllocateAligned<LocalId>(count);
  auto owned_norms = AllocateAligned<float>(count);
  std::memcpy(owned_ids.get(), ids, count * sizeof(LocalId));
  std::memcpy(owned_norms.get(), norms, count * sizeof(float));
  for (std::size_t i = 0; i < count; ++i) {
    lists_[list]->Append(ids[i]);
    assert(ids[i] < local_feature_.size());
    local_feature_[ids[i]] =
        reinterpret_cast<const float*>(payload + i * padded_dim_ *
                                                     sizeof(float));
  }
  blocks_[list]->AttachFrozen(std::move(owned_ids), std::move(owned_norms),
                              payload, count);
}

void IvfIndex::ForEachScanRun(
    std::size_t list,
    const std::function<void(const LocalId*, const std::uint8_t*,
                             const float*, std::size_t)>& fn) const {
  blocks_[list]->ForEachRun(fn);
}

const float* IvfIndex::PadQuery(FeatureView query, float* stack_buf,
                                AlignedArray<float>& heap_buf) const {
  float* dst;
  if (padded_dim_ <= kMaxStackQueryFloats) {
    dst = stack_buf;
    std::memset(dst + dim(), 0, (padded_dim_ - dim()) * sizeof(float));
  } else {
    heap_buf = AllocateAligned<float>(padded_dim_);  // zero-initialized
    dst = heap_buf.get();
  }
  std::memcpy(dst, query.data(), dim() * sizeof(float));
  return dst;
}

void IvfIndex::ScanListPadded(std::size_t list, const float* padded_query,
                              float query_norm, CategoryId category_filter,
                              const MaterializedFilter* filter,
                              bool post_filter,
                              const FilterExpression* direct,
                              FilterScanStats* stats, TopK& topk) const {
  const DistanceKernels& kernels = Kernels();
  const std::size_t stride = padded_dim_;
  blocks_[list]->ForEachRun([&](const LocalId* ids,
                                const std::uint8_t* payload,
                                const float* norms, std::size_t count) {
    const float* rows = reinterpret_cast<const float*>(payload);
    // Fused distance + admission: the kernel computes every distance in the
    // dot form against the block's precomputed row norms and compacts the
    // candidates at or under the top-k threshold (<=, because a distance
    // tie can still displace a larger id inside the heap) in one sweep —
    // no per-run distance buffer, no second pass. Distances for invalid /
    // off-category entries are computed and then discarded — on this layout
    // a branchless linear sweep beats the seed's per-candidate skip, and
    // removed products are rare.
    //
    // Sub-blocks of kFilterBlock entries refresh the threshold between
    // kernel calls: on the first probed list the top-k starts empty
    // (threshold +inf, everything "survives"), and the refresh caps that
    // flood at one sub-block instead of the whole run. The threshold only
    // tightens while offering, so a sub-block's survivors are a superset;
    // each is re-checked against the freshest threshold before its Offer.
    //
    // Hybrid pushdown: with a materialized filter in pre mode, the
    // sub-block's alive mask is gathered first (ids are in list-append
    // order, so each bit is a bitmap probe) and a wholly-dead sub-block
    // skips the kernel — its 64 feature rows are never touched. The bitmap
    // already folds validity and the category tag, so survivor admission is
    // a single mask test in place of the two legacy checks.
    constexpr std::size_t kFilterBlock = 64;
    std::uint32_t keep[kFilterBlock];
    float keep_dist[kFilterBlock];
    for (std::size_t b = 0; b < count; b += kFilterBlock) {
      const std::size_t block = std::min(kFilterBlock, count - b);
      std::uint64_t alive = 0;
      if (filter != nullptr && !post_filter) {
        for (std::size_t s = 0; s < block; ++s) {
          alive |= std::uint64_t{filter->Test(ids[b + s])} << s;
        }
        if (alive == 0) {
          if (stats != nullptr) ++stats->blocks_skipped;
          continue;
        }
      }
      if (stats != nullptr) ++stats->blocks_scanned;
      float threshold = topk.Threshold();
      const std::size_t kept = kernels.l2sq_scan_filter(
          padded_query, query_norm, rows + b * stride, norms + b, stride,
          stride, block, threshold, keep, keep_dist);
      for (std::size_t s = 0; s < kept; ++s) {
        const float dist = keep_dist[s];
        if (dist > threshold) continue;
        const LocalId local = ids[b + keep[s]];
        if (filter != nullptr) {
          const bool pass = post_filter ? filter->Test(local)
                                        : ((alive >> keep[s]) & 1) != 0;
          if (!pass) continue;
        } else if (direct != nullptr) {
          // Broad-filter direct post mode: no bitmap was materialized, so
          // validity / category / predicates are all evaluated here — but
          // only on the <= k survivors the kernel admitted, which is the
          // whole point of skipping materialization.
          if (config_.filter_invalid_during_scan && !valid_.Get(local)) {
            continue;
          }
          if (category_filter != kNoCategoryFilter &&
              forward_.CategoryOf(local) != category_filter) {
            continue;
          }
          const AttributeSnapshot snapshot = forward_.Get(local);
          if (!direct->Matches(snapshot.category, snapshot.attributes)) {
            continue;
          }
        } else {
          if (config_.filter_invalid_during_scan && !valid_.Get(local)) {
            continue;
          }
          if (category_filter != kNoCategoryFilter &&
              forward_.CategoryOf(local) != category_filter) {
            continue;
          }
        }
        topk.Offer(local, dist);
        threshold = topk.Threshold();
      }
    }
  });
}

SearchHit IvfIndex::MaterializeHit(const ScoredImage& scored) const {
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

std::vector<SearchHit> IvfIndex::MaterializeRanked(
    std::span<const ScoredImage> ranked) const {
  std::vector<SearchHit> hits;
  hits.reserve(ranked.size());
  for (const ScoredImage& scored : ranked) {
    if (!config_.filter_invalid_during_scan &&
        !valid_.Get(static_cast<LocalId>(scored.image_id))) {
      continue;  // late filtering (ablation baseline)
    }
    hits.push_back(MaterializeHit(scored));
  }
  return hits;
}

std::vector<ScoredImage> IvfIndex::ScanProbes(
    FeatureView query, std::size_t k, std::span<const std::uint32_t> probes,
    CategoryId category_filter, const MaterializedFilter* filter,
    bool post_filter, FilterScanStats* stats,
    const FilterExpression* direct_filter) const {
  assert(query.size() == dim());
  alignas(kCacheLineBytes) float stack_query[kMaxStackQueryFloats];
  AlignedArray<float> heap_query;
  const float* padded = PadQuery(query, stack_query, heap_query);
  const float query_norm = SquaredNorm(padded, dim());
  TopK topk(k);
  for (const std::uint32_t list : probes) {
    ScanListPadded(list, padded, query_norm, category_filter, filter,
                   post_filter, direct_filter, stats, topk);
  }
  return topk.TakeSorted();
}

std::vector<SearchHit> IvfIndex::Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe_override,
                                        CategoryId category_filter) const {
  return Search(query, k, nprobe_override, category_filter, nullptr, nullptr,
                /*io_budget_micros=*/0, /*tier_stats=*/nullptr);
}

std::vector<SearchHit> IvfIndex::Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe_override,
                                        CategoryId category_filter,
                                        const FilterExpression& filter,
                                        FilterScanStats* stats) const {
  return Search(query, k, nprobe_override, category_filter, &filter, stats,
                /*io_budget_micros=*/0, /*tier_stats=*/nullptr);
}

std::vector<SearchHit> IvfIndex::Search(FeatureView query, std::size_t k,
                                        std::size_t nprobe_override,
                                        CategoryId category_filter,
                                        const FilterExpression* filter,
                                        FilterScanStats* stats,
                                        Micros io_budget_micros,
                                        TierScanStats* tier_stats) const {
  assert(query.size() == dim());
  const std::size_t nprobe =
      nprobe_override == 0 ? config_.nprobe : nprobe_override;
  // The ablation flag keeps validity out of the bitmap (deferred to
  // materialization), matching the unfiltered scan's contract.
  const FilterPlan plan = PlanFilteredScan(
      {forward_, filters_,
       config_.filter_invalid_during_scan ? &valid_ : nullptr,
       quantizer_->num_clusters(), config_.filter_post_threshold,
       config_.filter_widen_threshold, config_.filter_widen_factor},
      filter, category_filter, nprobe, stats);
  // Zero matches: empty-but-successful, no scan work at all.
  if (plan.empty_result) return {};
  // "each searcher node identifies the cluster that is most similar to the
  // queried image based on its features" (Section 2.4), generalized to the
  // standard multi-probe recall knob.
  std::vector<std::uint32_t> probes =
      quantizer_->NearestCentroids(query, plan.nprobe);
  // Tiered mode: pin the probed lists before the fused kernel touches any
  // row. The guard keeps them evict-exempt for the whole scan; probes past
  // the io budget were dropped (reduced effective nprobe).
  TieredListStore::PinGuard guard;
  if (tiered_store_ != nullptr) {
    guard = tiered_store_->Pin(probes, io_budget_micros, tier_stats);
    // Not a prefix: quarantined lists are skipped mid-set, over-budget
    // tails are dropped. Scan exactly what the guard holds pinned.
    probes = guard.pinned();
  }
  // With a bitmap, category/validity are folded in already; direct mode and
  // the unfiltered scan carry the category filter through.
  std::vector<ScoredImage> ranked =
      ScanProbes(query, k, probes,
                 plan.bits ? kNoCategoryFilter : category_filter,
                 plan.bitmap(), plan.post_mode, stats, plan.direct);
  return MaterializeRanked(ranked);
}

std::vector<SearchHit> IvfIndex::SearchExhaustive(FeatureView query,
                                                  std::size_t k) const {
  assert(query.size() == dim());
  alignas(kCacheLineBytes) float stack_query[kMaxStackQueryFloats];
  AlignedArray<float> heap_query;
  const float* padded = PadQuery(query, stack_query, heap_query);
  const DistanceKernels& kernels = Kernels();
  const std::size_t stride = padded_dim_;
  TopK topk(k);
  // Every list's block, whole-run distances, validity always applied (ground
  // truth ignores the scan-filter ablation flag, as the seed did).
  for (const auto& block : blocks_) {
    block->ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                          const float* /*norms*/, std::size_t count) {
      const float* rows = reinterpret_cast<const float*>(payload);
      float dists[kScanRunEntries];
      kernels.l2sq_scan(padded, rows, stride, stride, count, dists);
      for (std::size_t j = 0; j < count; ++j) {
        if (!valid_.Get(ids[j])) continue;
        topk.Offer(static_cast<ImageId>(ids[j]), dists[j]);
      }
    });
  }
  std::vector<SearchHit> hits;
  for (const ScoredImage& scored : topk.TakeSorted()) {
    hits.push_back(MaterializeHit(scored));
  }
  return hits;
}

std::vector<SearchHit> IvfIndex::SearchExhaustive(
    FeatureView query, std::size_t k, const FilterExpression& filter) const {
  assert(query.size() == dim());
  alignas(kCacheLineBytes) float stack_query[kMaxStackQueryFloats];
  AlignedArray<float> heap_query;
  const float* padded = PadQuery(query, stack_query, heap_query);
  const DistanceKernels& kernels = Kernels();
  const std::size_t stride = padded_dim_;
  TopK topk(k);
  // Predicates evaluated per candidate straight off the forward index — the
  // slow, obviously-correct oracle the bitmap path is checked against.
  for (const auto& block : blocks_) {
    block->ForEachRun([&](const LocalId* ids, const std::uint8_t* payload,
                          const float* /*norms*/, std::size_t count) {
      const float* rows = reinterpret_cast<const float*>(payload);
      float dists[kScanRunEntries];
      kernels.l2sq_scan(padded, rows, stride, stride, count, dists);
      for (std::size_t j = 0; j < count; ++j) {
        if (!valid_.Get(ids[j])) continue;
        const AttributeSnapshot snapshot = forward_.Get(ids[j]);
        if (!filter.Matches(snapshot.category, snapshot.attributes)) continue;
        topk.Offer(static_cast<ImageId>(ids[j]), dists[j]);
      }
    });
  }
  std::vector<SearchHit> hits;
  for (const ScoredImage& scored : topk.TakeSorted()) {
    hits.push_back(MaterializeHit(scored));
  }
  return hits;
}

void IvfIndex::ForEachEntry(
    const std::function<void(LocalId, const AttributeSnapshot&, FeatureView,
                             bool)>& visit) const {
  const std::size_t n = forward_.size();
  for (std::size_t local = 0; local < n; ++local) {
    const auto id = static_cast<LocalId>(local);
    visit(id, forward_.Get(id), FeatureView(local_feature_[local], dim()),
          valid_.Get(local));
  }
}

bool IvfIndex::feature_storage_aligned() const noexcept {
  for (const auto& block : blocks_) {
    if (!block->storage_aligned()) return false;
  }
  return true;
}

IvfIndexStats IvfIndex::Stats() const {
  IvfIndexStats stats;
  stats.total_images = forward_.size();
  stats.valid_images = valid_.CountValid();
  stats.num_lists = lists_.size();
  for (const auto& list : lists_) {
    stats.largest_list = std::max(stats.largest_list, list->VisibleSize());
    stats.list_expansions += list->expansions();
  }
  stats.buffer_bytes = forward_.buffer_bytes_used();
  return stats;
}

}  // namespace jdvs
