// jdvs_snapshot_inspect — load an index snapshot and print its contents
// summary plus a content digest (replica verification).
//
//   jdvs_snapshot_inspect index.snap [--pq] [--verify]
//
// --verify (tiered v4/v5 files) recomputes every payload segment's CRC32C
// against the directory and reports per-list status; exits nonzero on any
// mismatch, so a deploy pipeline can gate on it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "jdvs/jdvs.h"

namespace {

// Reads the common snapshot prefix; returns false when the file is too short
// or not a JDVS snapshot (the normal loaders then produce the real error).
bool PeekSnapshotVersion(const std::string& path, std::uint32_t* version) {
  std::ifstream is(path, std::ios::binary);
  std::uint64_t magic = 0;
  std::uint32_t v = 0;
  if (!is.read(reinterpret_cast<char*>(&magic), sizeof(magic))) return false;
  if (!is.read(reinterpret_cast<char*>(&v), sizeof(v))) return false;
  if (magic != 0x4A44565349445831ULL) return false;
  *version = v;
  return true;
}

// v4 tiered snapshots get a layout-aware report: per-list payload directory,
// segment alignment check, and the resident(head)-vs-disk(payload) byte
// split. v1/v2/v3 keep the classic report byte for byte.
// Offline integrity walk (no mapping, no load): recompute each segment's
// CRC32C through buffered reads and compare against the directory.
int VerifyTiered(const std::string& path) {
  using namespace jdvs;
  const TieredDirectoryInfo dir = ReadTieredDirectory(path);
  std::printf("%s: tiered snapshot v%u, %zu payload segments\n", path.c_str(),
              dir.version, dir.segments.size());
  if (!dir.has_checksums) {
    std::printf("  no checksums in directory (v4 file) — nothing to verify\n");
    return 0;
  }
  const TieredVerifyResult result = VerifyTieredSnapshot(path);
  std::size_t empty = 0;
  for (const TieredSegmentInfo& seg : dir.segments) {
    if (seg.bytes == 0) ++empty;
  }
  for (const std::uint32_t list : result.corrupt_lists) {
    const TieredSegmentInfo& seg = dir.segments[list];
    std::printf("  list %u: CORRUPT (%llu bytes at offset %llu, expected "
                "crc32c %08x)\n",
                list, (unsigned long long)seg.bytes,
                (unsigned long long)seg.offset, seg.crc32c);
  }
  std::printf("  verified %zu segments (%zu empty): %zu corrupt\n",
              result.checked, empty, result.corrupt_lists.size());
  if (!result.corrupt_lists.empty()) {
    std::printf("  INTEGRITY FAILURE — do not deploy this file\n");
    return 1;
  }
  std::printf("  integrity ok\n");
  return 0;
}

int InspectTiered(const std::string& path, std::uint32_t version) {
  using namespace jdvs;
  std::uint64_t update_hwm = 0;
  TieredStoreConfig tier_config;
  tier_config.drop_pages_on_load = false;  // inspection, not serving
  const auto index =
      LoadTieredSnapshot(path, tier_config, &update_hwm);
  const auto& store = *index->tiered_store();
  const IvfIndexStats stats = index->Stats();
  const IndexDigest digest = ComputeIndexDigest(*index);

  std::uint64_t payload_bytes = 0;
  std::uint64_t largest_bytes = 0;
  std::uint64_t payload_base = store.file().size();
  std::size_t nonempty = 0;
  bool aligned = true;
  for (std::size_t i = 0; i < store.num_lists(); ++i) {
    const auto extent = store.extent(i);
    if (extent.bytes == 0) continue;
    ++nonempty;
    payload_bytes += extent.bytes;
    largest_bytes = std::max(largest_bytes, extent.bytes);
    payload_base = std::min(payload_base, extent.offset);
    if (extent.offset % 64 != 0) aligned = false;
  }
  // head = everything before the first payload segment; the id/norm arrays
  // are re-materialized in RAM next to it at 8 bytes per entry.
  const std::uint64_t head_bytes = payload_base;
  const std::uint64_t ram_arrays = stats.total_images * 8ULL;

  std::printf("%s: flat IVF snapshot (v%u tiered%s)\n", path.c_str(), version,
              store.has_checksums() ? ", checksummed" : "");
  std::printf("  update hwm:     %llu\n", (unsigned long long)update_hwm);
  std::printf("  dim:            %zu\n", index->dim());
  std::printf("  entries:        %zu (%zu valid)\n", stats.total_images,
              stats.valid_images);
  std::printf("  inverted lists: %zu (largest %zu)\n", stats.num_lists,
              stats.largest_list);
  std::printf("  nprobe:         %zu\n", index->config().nprobe);
  std::printf("  payload dir:    %zu segments (%zu empty), largest %.1f KB\n",
              nonempty, store.num_lists() - nonempty,
              static_cast<double>(largest_bytes) / 1e3);
  std::printf("  alignment:      64-byte segment alignment %s\n",
              aligned ? "ok" : "VIOLATED");
  std::printf("  resident head:  %.1f MB on-disk head + %.1f MB id/norm arrays\n",
              static_cast<double>(head_bytes) / 1e6,
              static_cast<double>(ram_arrays) / 1e6);
  std::printf("  disk payload:   %.1f MB demand-paged (file %.1f MB)\n",
              static_cast<double>(payload_bytes) / 1e6,
              static_cast<double>(store.file().size()) / 1e6);
  std::printf("  content digest: %016llx over %llu entries\n",
              (unsigned long long)digest.content_hash,
              (unsigned long long)digest.entries);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jdvs;
  const Flags flags(argc, argv);
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "usage: jdvs_snapshot_inspect FILE [--pq]\n");
    return 2;
  }
  const std::string& path = flags.positional()[0];

  try {
    if (flags.GetBool("pq", false)) {
      const auto index = LoadIvfPqSnapshot(path);
      const IvfIndexStats stats = index->Stats();
      std::printf("%s: IVF-PQ snapshot\n", path.c_str());
      std::printf("  dim:            %zu\n", index->dim());
      std::printf("  entries:        %zu (%zu valid)\n", stats.total_images,
                  stats.valid_images);
      std::printf("  inverted lists: %zu\n", stats.num_lists);
      std::printf("  code bytes/vec: %zu (%.1f MB codes, %.1f MB raw)\n",
                  stats.code_bytes_per_vector,
                  static_cast<double>(stats.code_memory_bytes) / 1e6,
                  static_cast<double>(stats.raw_memory_bytes) / 1e6);
      std::printf("  PQ: M=%zu, Ks=%zu\n", index->pq()->num_subspaces(),
                  index->pq()->codebook_size());
    } else if (std::uint32_t version = 0;
               PeekSnapshotVersion(path, &version) &&
               (version == 4 || version == 5)) {
      if (flags.GetBool("verify", false)) return VerifyTiered(path);
      return InspectTiered(path, version);
    } else if (flags.GetBool("verify", false)) {
      std::fprintf(stderr, "error: --verify requires a tiered (v4/v5) file\n");
      return 2;
    } else {
      std::uint64_t update_hwm = 0;
      const auto index =
          LoadIndexSnapshot(path, &update_hwm);
      const IvfIndexStats stats = index->Stats();
      const IndexDigest digest = ComputeIndexDigest(*index);
      std::printf("%s: flat IVF snapshot\n", path.c_str());
      std::printf("  update hwm:     %llu%s\n",
                  (unsigned long long)update_hwm,
                  update_hwm == 0 ? " (none / v1 snapshot)" : "");
      std::printf("  dim:            %zu\n", index->dim());
      std::printf("  entries:        %zu (%zu valid)\n", stats.total_images,
                  stats.valid_images);
      std::printf("  inverted lists: %zu (largest %zu)\n", stats.num_lists,
                  stats.largest_list);
      std::printf("  nprobe:         %zu\n", index->config().nprobe);
      std::printf("  var buffer:     %.1f MB\n",
                  static_cast<double>(stats.buffer_bytes) / 1e6);
      std::printf("  content digest: %016llx over %llu entries\n",
                  (unsigned long long)digest.content_hash,
                  (unsigned long long)digest.entries);
    }
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
