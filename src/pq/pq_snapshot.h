// Snapshot persistence for an IvfIndex with the PQ list codec.
//
// The compressed analogue of index/snapshot.h: serializes the coarse
// quantizer, the PQ codebooks, and every entry's attributes, PQ code,
// inverted-list assignment, validity bit and (when the refinement store is
// kept) raw feature. Restored indexes reproduce the original structure and
// search results exactly.
#pragma once

#include <memory>
#include <string>

#include "index/ivf_index.h"
#include "index/snapshot.h"  // SnapshotError

namespace jdvs {

// Writes `index` (which must have a ProductQuantizer) to `path`. Throws
// SnapshotError on I/O failure or a flat index. Must not race the index's
// writer.
void SaveIvfPqSnapshot(const IvfIndex& index, const std::string& path);

// Reads a snapshot back into a fresh PQ-codec index. Throws SnapshotError on
// I/O failure, bad magic, version mismatch, truncation, or an entry whose
// list id or code bytes fall outside the stored quantizers.
std::unique_ptr<IvfIndex> LoadIvfPqSnapshot(const std::string& path);

}  // namespace jdvs
