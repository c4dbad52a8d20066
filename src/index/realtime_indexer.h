// Real-time incremental indexing (Section 2.3, Figures 4 and 6-8).
//
// Consumes product-update messages and applies them to a partition's
// IvfIndex "instantly":
//
//   Update   — numeric attributes rewritten atomically in the forward index;
//              a detail-URL change appends to the buffer and swaps the
//              offset (Figure 7).
//   Insertion — if the product/image is already known, only the validity bit
//              is set and its previously extracted features are reused
//              (the re-listing fast path Table 1 shows dominating: 513M of
//              521M daily additions). Otherwise the feature is fetched from
//              the feature DB — extracting on a miss — and a new index
//              element is created (Figure 8).
//   Deletion — validity bits flipped to 0; O(1) per image (Figure 6).
//
// One RealTimeIndexer instance runs per searcher and is that partition's
// single writer. A partition filter restricts which of a product's images
// this instance owns (partitioning by hash of the image URL, Section 2.4).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "index/ivf_index.h"
#include "mq/message.h"
#include "obs/registry.h"
#include "store/feature_db.h"

namespace jdvs {

// True for image URLs owned by this partition.
using PartitionFilter = std::function<bool(std::string_view)>;

PartitionFilter AcceptAllPartitionFilter();

struct RealTimeIndexerCounters {
  std::uint64_t attribute_updates = 0;
  std::uint64_t additions = 0;
  std::uint64_t deletions = 0;
  std::uint64_t images_added = 0;         // new forward-index entries
  std::uint64_t images_revalidated = 0;   // reuse path (re-listings)
  std::uint64_t images_invalidated = 0;
  std::uint64_t features_reused = 0;
  std::uint64_t features_extracted = 0;
  std::uint64_t entries_touched = 0;      // attribute-update fan-out

  std::uint64_t TotalMessages() const {
    return attribute_updates + additions + deletions;
  }

  void Add(const RealTimeIndexerCounters& other) {
    attribute_updates += other.attribute_updates;
    additions += other.additions;
    deletions += other.deletions;
    images_added += other.images_added;
    images_revalidated += other.images_revalidated;
    images_invalidated += other.images_invalidated;
    features_reused += other.features_reused;
    features_extracted += other.features_extracted;
    entries_touched += other.entries_touched;
  }
};

class RealTimeIndexer {
 public:
  // `index` may use either list codec (flat rows or PQ codes).
  // `registry` (null = process-global default) receives the cumulative
  // update counter `jdvs_realtime_updates_total{searcher=<owner>}` and the
  // apply-latency stage histogram; because instruments are looked up by
  // name, a re-created indexer (full-index install) keeps counting into the
  // same series.
  RealTimeIndexer(IvfIndex& index, FeatureDb& features,
                  PartitionFilter filter = AcceptAllPartitionFilter(),
                  std::uint64_t seed = 99,
                  const Clock& clock = MonotonicClock::Instance(),
                  obs::Registry* registry = nullptr,
                  std::string_view owner = "default");

  RealTimeIndexer(const RealTimeIndexer&) = delete;
  RealTimeIndexer& operator=(const RealTimeIndexer&) = delete;

  // Applies one message. Must be called from the partition's single writer
  // thread. Records end-to-end latency (including any extraction cost) in
  // the latency histogram.
  void Apply(const ProductUpdateMessage& message);

  const RealTimeIndexerCounters& counters() const { return counters_; }
  const Histogram& latency_micros() const { return latency_; }
  void ResetStats();

 private:
  void ApplyAttributeUpdate(const ProductUpdateMessage& message);
  void ApplyAddition(const ProductUpdateMessage& message);
  void ApplyDeletion(const ProductUpdateMessage& message);

  IvfIndex& index_;
  FeatureDb& features_;
  PartitionFilter filter_;
  Rng rng_;
  const Clock* clock_;
  RealTimeIndexerCounters counters_;
  Histogram latency_;
  obs::Counter* updates_total_;   // registry mirror of TotalMessages()
  Histogram* apply_stage_;        // jdvs_stage_micros{stage="rt_apply"}
};

}  // namespace jdvs
