// Mapped load of a flat-row index snapshot (index/snapshot.h).
//
// The snapshot's payload region is exactly what the fused scan kernels
// read: each inverted list's padded feature rows as one contiguous,
// 64-byte-aligned segment. So a searcher can map the file and serve queries
// from it in place with zero deserialization: the sections (config,
// centroids, entry metadata, per-list ids and norms, verification) are
// parsed into RAM, and the payload segments are demand-paged through a
// TieredListStore residency cache (head-in-RAM, postings-on-disk).
//
// The mapped index matches the original bit for bit: it installs the stored
// ids, norms and rows directly (AttachFrozenList). Integrity: every section
// checksum is verified at load; each segment's CRC32C goes to the
// TieredListStore, which verifies a segment on its first fault-in per
// residency. The loader holds a shared flock on the file for the lifetime
// of the mapping, so SaveIndexSnapshot, which takes an exclusive flock
// first, refuses to rewrite a file under a live scan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "index/snapshot.h"
#include "tier/tiered_store.h"

namespace jdvs {

// Maps `path` and serves its payload through an attached TieredListStore
// built with `tier_config`. Throws SnapshotError on a PQ-codec file (its
// codes load through LoadIndexSnapshot), a writer's flock, or anything
// LoadIndexSnapshot rejects in the sections. The returned index's real-time
// delta path stays fully mutable: AddImage appends heap chunks behind each
// frozen prefix.
std::unique_ptr<IvfIndex> LoadTieredSnapshot(
    const std::string& path, const TieredStoreConfig& tier_config,
    std::uint64_t* update_hwm = nullptr);

}  // namespace jdvs
