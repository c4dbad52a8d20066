// Snapshot format v4: the tiered (mmap-able) index layout.
//
// Versions 1-3 interleave every entry's feature row with its metadata, so a
// loader must stream the whole file through AddImage and copy each row into
// heap scan storage. Version 4 splits the file into a "head" the loader keeps
// in RAM — config, quantizer centroids, per-entry metadata, per-list
// LocalId/norm arrays, the per-list payload directory, and the v3-style
// verification trailer — and a payload region of per-list ScanBlock segments:
// each inverted list's padded feature rows as one contiguous, 64-byte-aligned,
// independently-addressable extent. The payload region is exactly what the
// PR 7 fused kernels scan, so a searcher can mmap the file and serve queries
// from it in place with zero deserialization, demand-paging lists through a
// TieredListStore residency cache (head-in-RAM, postings-on-disk).
//
// Layout:
//   u64 magic "JDVSIDX1" | u32 version=4|5 | u64 update_hwm | u64 payload_base
//   head (byte stream, same Write/ReadPod idiom as v1-v3):
//     config block (6 fields, as v3)
//     quantizer: dim, num_clusters, centroid floats
//     padded_dim (payload row stride in floats; loader cross-checks its own)
//     entries: count, then per entry in LocalId order the v3 metadata fields
//       (url, product, category, sales/price/praise, detail url, valid) —
//       but NO feature floats
//     directory: num_lists, then per list {entry_count, rel_offset, bytes}
//       (v5 appends u32 crc32c over the segment's exact payload bytes);
//       rel_offset is 64-aligned and relative to payload_base
//     per-list head arrays: LocalId ids[entry_count], float norms[entry_count]
//     verification: per-category populations + numeric column checksum (v3)
//   zero padding to payload_base (64-aligned)
//   payload segments: list i's rows at payload_base + rel_offset[i]
//
// Both loaders restore bit-identical search behaviour: the mapped loader
// installs the stored ids/norms/rows directly (AttachFrozenList), the heap
// loader replays AddImage with features read from the payload rows — the
// coarse assignment and norm computations are deterministic, so the rebuilt
// structure matches the stored one exactly.
//
// Integrity (version 5, "v4.1"): each directory entry carries a CRC32C over
// the segment's exact payload bytes. The mapped loader hands the checksums
// to the TieredListStore, which verifies a segment on first fault-in per
// residency; the heap loader verifies while copying. Version 4 files still
// load everywhere with checksums marked absent. The mapped loader also
// holds a shared flock on the file for the lifetime of the mapping and
// refuses a file whose size disagrees with the directory's last segment
// extent; SaveTieredSnapshot takes an exclusive flock first, so a deploy
// rewriting a file under a live mapping fails loudly instead of scrambling
// a scan later.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/snapshot.h"
#include "tier/tiered_store.h"

namespace jdvs {

// Current tiered snapshot version written by SaveTieredSnapshot.
inline constexpr std::uint32_t kTieredSnapshotVersion = 5;

// Writes `index` (flat-row codec) to `path` in the tiered layout. Throws
// SnapshotError on I/O failure, a PQ-codec index, or when the file is
// flock'd by a live mapping. Must not race
// the index's writer. `version` must be 4 (no checksums, compatibility
// writer for tests/tools) or 5.
void SaveTieredSnapshot(const IvfIndex& index, const std::string& path,
                        std::uint64_t update_hwm = 0,
                        std::uint32_t version = kTieredSnapshotVersion);

// Mapped load of a v4/v5 snapshot: head in RAM, payload left in the file
// and served through an attached TieredListStore built with `tier_config`.
// Throws SnapshotError on bad magic, unknown version, truncation, a file
// size that disagrees with the directory, a writer's flock, or a corrupt
// directory (misaligned or out-of-range extents, id/count mismatches). The
// returned index's real-time delta path stays fully mutable: AddImage
// appends heap chunks behind each frozen prefix.
std::unique_ptr<IvfIndex> LoadTieredSnapshot(
    const std::string& path, const TieredStoreConfig& tier_config,
    std::uint64_t* update_hwm = nullptr);

// One payload segment as recorded in the directory (offsets absolute).
struct TieredSegmentInfo {
  std::uint32_t list = 0;
  std::uint64_t offset = 0;  // absolute file offset
  std::uint64_t bytes = 0;
  std::uint64_t entry_count = 0;
  std::uint32_t crc32c = 0;  // meaningful only when has_checksums
};

// Directory summary of a tiered snapshot file (chaos tools, inspection).
struct TieredDirectoryInfo {
  std::uint32_t version = 0;
  bool has_checksums = false;
  std::uint64_t payload_base = 0;
  std::vector<TieredSegmentInfo> segments;
};

// Parses just the head of a tiered snapshot. Throws SnapshotError on a
// malformed file.
TieredDirectoryInfo ReadTieredDirectory(const std::string& path);

// Offline integrity walk: recompute every segment's CRC32C against the
// directory (jdvs_snapshot_inspect --verify). On a v4 file, checked == 0
// and has_checksums == false.
struct TieredVerifyResult {
  bool has_checksums = false;
  std::size_t checked = 0;
  std::vector<std::uint32_t> corrupt_lists;
};
TieredVerifyResult VerifyTieredSnapshot(const std::string& path);

namespace internal {

// Heap load of a v4/v5 snapshot: everything copied to RAM via the AddImage
// replay path, no mapping, no tier store. LoadIndexSnapshot dispatches
// tiered files here so the generic loader keeps working on every version;
// the bit-exactness test compares this against LoadTieredSnapshot. v5
// checksums are verified during the copy (mismatch throws SnapshotError —
// a heap restore has no quarantine to degrade into).
std::unique_ptr<IvfIndex> LoadTieredSnapshotHeap(const std::string& path,
                                                 std::uint64_t* update_hwm);

}  // namespace internal

}  // namespace jdvs
