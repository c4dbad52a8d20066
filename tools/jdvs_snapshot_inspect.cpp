// jdvs_snapshot_inspect — print an index snapshot's layout and contents
// summary plus a content digest (replica verification).
//
//   jdvs_snapshot_inspect index.snap [--verify]
//
// Works on any snapshot, either list codec: codec, update high-water mark,
// every section with its size and checksum, the payload directory, and the
// content digest of the loaded index. --verify also recomputes every
// payload segment's CRC32C, lists each segment's status, and exits nonzero
// on any section or segment mismatch, so a deploy pipeline can gate on it.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "jdvs/jdvs.h"

int main(int argc, char** argv) {
  using namespace jdvs;
  const Flags flags(argc, argv);
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: jdvs_snapshot_inspect FILE [--verify]\n");
    return 2;
  }
  const std::string& path = flags.positional()[0];
  const bool verify = flags.GetBool("verify", false);

  try {
    // Every section checksum is verified by either call; a bad one throws.
    const SnapshotVerifyResult check =
        verify ? VerifySnapshot(path)
               : SnapshotVerifyResult{ReadSnapshotDirectory(path), {}};
    const SnapshotDirectory& dir = check.directory;
    std::printf("%s: %s snapshot, %.1f KB\n", path.c_str(),
                dir.pq ? "IVF-PQ" : "flat IVF",
                static_cast<double>(dir.file_bytes) / 1e3);
    std::printf("  update hwm:     %llu\n",
                static_cast<unsigned long long>(dir.update_hwm));
    std::printf("  sections:       (crc32c verified)\n");
    for (const SnapshotSection& section : dir.sections) {
      std::printf("    %-10s %10llu bytes at %10llu  crc32c %08x ok\n",
                  section.name.c_str(),
                  static_cast<unsigned long long>(section.bytes),
                  static_cast<unsigned long long>(section.offset),
                  section.crc32c);
    }
    std::uint64_t payload_bytes = 0;
    std::uint64_t largest_bytes = 0;
    std::size_t empty = 0;
    for (const SnapshotSegment& seg : dir.segments) {
      if (seg.bytes == 0) ++empty;
      payload_bytes += seg.bytes;
      largest_bytes = std::max(largest_bytes, seg.bytes);
    }
    std::printf("  payload dir:    %zu segments (%zu empty) from offset %llu, "
                "%.1f KB, largest %.1f KB\n",
                dir.segments.size(), empty,
                static_cast<unsigned long long>(dir.payload_base),
                static_cast<double>(payload_bytes) / 1e3,
                static_cast<double>(largest_bytes) / 1e3);
    if (verify) {
      for (const SnapshotSegment& seg : dir.segments) {
        const bool corrupt =
            std::find(check.corrupt_lists.begin(), check.corrupt_lists.end(),
                      seg.list) != check.corrupt_lists.end();
        std::printf("    list %5u: %8llu entries, %10llu bytes at %10llu, "
                    "crc32c %08x %s\n",
                    seg.list, static_cast<unsigned long long>(seg.entry_count),
                    static_cast<unsigned long long>(seg.bytes),
                    static_cast<unsigned long long>(seg.offset), seg.crc32c,
                    corrupt ? "CORRUPT" : "ok");
      }
      std::printf("  verified %zu sections and %zu segments: %zu corrupt\n",
                  dir.sections.size(), dir.segments.size(),
                  check.corrupt_lists.size());
      if (!check.corrupt_lists.empty()) {
        std::printf("  INTEGRITY FAILURE — do not deploy this file\n");
        return 1;
      }
      std::printf("  integrity ok\n");
    }

    const auto index = LoadIndexSnapshot(path);
    const IvfIndexStats stats = index->Stats();
    const IndexDigest digest = ComputeIndexDigest(*index);
    std::printf("  dim:            %zu\n", index->dim());
    std::printf("  entries:        %zu (%zu valid)\n", stats.total_images,
                stats.valid_images);
    std::printf("  inverted lists: %zu (largest %zu)\n", stats.num_lists,
                stats.largest_list);
    std::printf("  nprobe:         %zu\n", index->config().nprobe);
    std::printf("  payload/entry:  %zu bytes\n", stats.code_bytes_per_vector);
    if (index->pq() != nullptr) {
      std::printf("  PQ:             M=%zu, Ks=%zu, rerank %zu (%.1f MB raw)\n",
                  index->pq()->num_subspaces(), index->pq()->codebook_size(),
                  index->config().rerank_candidates,
                  static_cast<double>(stats.raw_memory_bytes) / 1e6);
    }
    std::printf("  content digest: %016llx over %llu entries\n",
                static_cast<unsigned long long>(digest.content_hash),
                static_cast<unsigned long long>(digest.entries));
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (verify) std::printf("  INTEGRITY FAILURE — do not deploy this file\n");
    return 1;
  }
  return 0;
}
