#include "tier/tiered_snapshot.h"

#include <utility>
#include <vector>

namespace jdvs {

std::unique_ptr<IvfIndex> LoadTieredSnapshot(const std::string& path,
                                             const TieredStoreConfig& tier_config,
                                             std::uint64_t* update_hwm) {
  // The shared flock outlives the mapping (it rides the retained fd inside
  // MmapFile), so SaveIndexSnapshot's exclusive lock fails while any index
  // is still serving from this file.
  MmapFile file = [&] {
    try {
      return MmapFile::Open(path, /*lock_shared=*/true);
    } catch (const MmapError& e) {
      throw SnapshotError(std::string("cannot map snapshot: ") + e.what());
    }
  }();
  const internal::ParsedSnapshot snap =
      internal::ParseSnapshot({file.data(), file.size()}, path);
  if (snap.pq != nullptr) {
    throw SnapshotError("a PQ snapshot cannot be served mapped: " + path);
  }

  auto index = std::make_unique<IvfIndex>(snap.quantizer, snap.config);
  for (const internal::SnapshotEntry& e : snap.entries) {
    index->AddImageMetadata(e.image_url, e.product_id, e.category,
                            e.attributes, e.detail_url);
  }
  std::vector<TieredListStore::ListExtent> extents;
  std::vector<std::uint32_t> checksums;
  for (const SnapshotSegment& seg : snap.directory.segments) {
    extents.push_back({seg.offset, seg.bytes});
    checksums.push_back(seg.crc32c);
    index->AttachFrozenList(seg.list, snap.list_ids[seg.list].data(),
                            snap.list_norms[seg.list].data(),
                            file.data() + seg.offset,
                            static_cast<std::size_t>(seg.entry_count));
  }
  internal::FinishRestore(*index, snap);
  // The store owns the mapping; the frozen payload pointers installed above
  // stay valid because MmapFile moves transfer the mapping, never remap it.
  index->AttachTieredStore(std::make_shared<TieredListStore>(
      std::move(file), std::move(extents), std::move(checksums),
      tier_config));
  if (update_hwm != nullptr) *update_hwm = snap.directory.update_hwm;
  return index;
}

}  // namespace jdvs
