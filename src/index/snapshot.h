// Index snapshot persistence.
//
// The production pipeline builds the full index weekly (Section 2.2) and
// ships it to searcher nodes; that requires a durable on-disk form. A
// snapshot captures one partition's complete index — quantizer centroids,
// every entry's attributes, feature and validity bit, and the index
// configuration — and reloads into an IvfIndex whose search results are
// bit-for-bit identical (inverted-list assignment is recomputed from the
// same centroids, so the structure reproduces deterministically).
//
// Format: a little-endian binary stream with a magic/version header. The
// format is an internal interchange format between builder and searchers of
// the same build, not a long-term stable archive. Version 2 stamps the
// header with the index's update high-water mark — the last applied
// ProductUpdateMessage::sequence — so a node restoring from the snapshot
// knows exactly which suffix of the message-log backlog to replay to catch
// up (the control plane's recovery protocol).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "index/ivf_index.h"

namespace jdvs {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// Writes `index` (flat-row codec) to `path`, stamping `update_hwm` (the
// highest applied update sequence; 0 = none) into the header. Throws
// SnapshotError on I/O failure or a PQ-codec index (see pq/pq_snapshot.h).
// Must not race the index's writer (searchers snapshot between update
// batches).
void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm = 0);

// Reads a snapshot back into a fresh index. Fills `update_hwm` (when
// non-null) with the header's high-water mark — 0 for version-1 snapshots,
// which predate the field. Throws SnapshotError on I/O failure, bad magic,
// unsupported version, or truncation.
std::unique_ptr<IvfIndex> LoadIndexSnapshot(
    const std::string& path, std::uint64_t* update_hwm = nullptr);

}  // namespace jdvs
