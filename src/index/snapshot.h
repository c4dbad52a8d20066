// Index snapshots: the one on-disk form of a partition index.
//
// The production pipeline builds the full index weekly (Section 2.2) and
// ships it to searcher nodes. A snapshot captures one partition's complete
// index — either list codec — and reloads into an IvfIndex whose search
// results and content digest are identical. The format is an interchange
// format between builder and searchers of the same build, not a long-term
// stable archive.
//
// Layout (little-endian):
//   u64 magic "JDVSNAP1"
//   framed sections, in this order; each frame is
//     u32 tag | u64 length | u32 crc32c | body[length]
//   where the CRC32C covers the tag, the length and the body:
//     HEADER     u32 format version, u32 codec (0 flat, 1 PQ), u64 update_hwm,
//                u64 dim, u64 payload stride (bytes per entry), u64 num_lists,
//                u64 payload_base
//     CONFIG     u64 nprobe, u8 filter_invalid_during_scan,
//                u64 rerank_candidates
//     CENTROIDS  num_lists x dim floats
//     CODEBOOKS  (PQ only) u64 subspaces, u64 codebook size, floats
//     ENTRIES    u64 count, then per entry in LocalId order: image url,
//                u64 product, u32 category, u64 sales, u64 price_cents,
//                u64 praise, detail url, u8 valid (strings are u32-length
//                prefixed)
//     DIRECTORY  per list: u64 entry_count, u64 rel_offset, u64 bytes,
//                u32 crc32c of the list's payload segment
//     LISTS      per list: LocalId ids[entry_count], then (flat only)
//                float norms[entry_count]
//     RAW        (PQ with rerank_candidates > 0 only) count x dim floats
//     VERIFY     u64 categories, per category {u32 id, u64 population},
//                u64 numeric column checksum
//   zero padding up to payload_base (64-byte aligned, right after VERIFY)
//   per list, its ScanBlock payload (padded flat rows or PQ codes) at
//   payload_base + rel_offset, zero-padded to the next 64-byte boundary.
//
// Every byte but the magic and the alignment padding sits under a CRC32C:
// the parser verifies every section before it uses a byte of it, and each
// payload segment carries its own checksum in the directory.
//
// Two loaders read the one file: LoadIndexSnapshot copies everything to the
// heap (either codec, payload checksums verified while it copies), and
// LoadTieredSnapshot (tier/tiered_snapshot.h) maps a flat-row file and
// serves the payload in place, verifying each segment when it faults in.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "index/ivf_index.h"

namespace jdvs {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// Writes `index` (either codec) to `path`, stamping `update_hwm` (the
// highest applied update sequence; 0 = none) into the header. Throws
// SnapshotError on I/O failure, or when a live mapped index holds `path`
// (its shared flock makes the rewrite refuse before the first byte). Must
// not race the index's writer (searchers snapshot between update batches).
void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm = 0);

// Reads a snapshot of either codec into a fresh, fully heap-resident index.
// Fills `update_hwm` (when non-null) with the header's high-water mark.
// Throws SnapshotError on I/O failure, bad magic, a section or payload
// checksum mismatch, truncation, or a structurally impossible file (a list
// naming an unknown or repeated entry, a PQ code past its codebook).
std::unique_ptr<IvfIndex> LoadIndexSnapshot(
    const std::string& path, std::uint64_t* update_hwm = nullptr);

// One framed section as found in the file.
struct SnapshotSection {
  std::string name;          // "HEADER", "CONFIG", ...
  std::uint64_t offset = 0;  // absolute offset of the frame
  std::uint64_t bytes = 0;   // frame bytes, header included
  std::uint32_t crc32c = 0;
};

// One list's payload segment as recorded in the directory.
struct SnapshotSegment {
  std::uint32_t list = 0;
  std::uint64_t offset = 0;  // absolute file offset
  std::uint64_t bytes = 0;
  std::uint64_t entry_count = 0;
  std::uint32_t crc32c = 0;
};

struct SnapshotDirectory {
  bool pq = false;  // list codec: PQ codes, else flat rows
  std::uint64_t update_hwm = 0;
  std::uint64_t payload_base = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SnapshotSection> sections;
  std::vector<SnapshotSegment> segments;
};

// Parses the sections of a snapshot (every section checksum verified) and
// returns its layout. Throws SnapshotError on a malformed file.
SnapshotDirectory ReadSnapshotDirectory(const std::string& path);

// Offline integrity walk: every section (a bad one throws SnapshotError
// naming it) and every payload segment, whose mismatches are listed.
struct SnapshotVerifyResult {
  SnapshotDirectory directory;
  std::vector<std::uint32_t> corrupt_lists;
};
SnapshotVerifyResult VerifySnapshot(const std::string& path);

namespace internal {

struct SnapshotEntry {
  std::string image_url;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string detail_url;
  bool valid = true;
};

// Everything the sections hold, checked for structure: each list names
// distinct entries, the directory lays the segments out end to end and the
// file ends where the last one does.
struct ParsedSnapshot {
  SnapshotDirectory directory;
  IvfIndexConfig config;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::shared_ptr<const ProductQuantizer> pq;  // null = flat rows
  std::uint64_t stride = 0;                    // payload bytes per entry
  std::vector<SnapshotEntry> entries;
  std::vector<std::vector<LocalId>> list_ids;
  std::vector<std::vector<float>> list_norms;  // flat rows only
  std::vector<float> raw;                      // RAW section, when present
  std::vector<std::pair<CategoryId, std::uint64_t>> category_populations;
  std::uint64_t column_checksum = 0;
};

// Parses the whole file `bytes` (read or mapped from `path`). Payload
// segments are located, not read.
ParsedSnapshot ParseSnapshot(std::span<const std::uint8_t> bytes,
                             const std::string& path);

// The last restore step of both loaders: applies the saved validity bits
// and checks the rebuilt attribute filter index and the storage alignment.
void FinishRestore(IvfIndex& index, const ParsedSnapshot& snapshot);

}  // namespace internal

}  // namespace jdvs
