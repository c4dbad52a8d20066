#include "tier/tiered_snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "vecmath/aligned.h"

#if defined(__linux__) || defined(__APPLE__)
#define JDVS_HAVE_FLOCK 1
#include <cerrno>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace jdvs {
namespace {

constexpr std::uint64_t kMagic = 0x4A44565349445831ULL;  // "JDVSIDX1"
constexpr std::uint32_t kTieredVersion = 4;
constexpr std::uint32_t kTieredVersionChecksummed = 5;
constexpr std::uint64_t kSegmentAlign = kCacheLineBytes;
static_assert(kTieredSnapshotVersion == kTieredVersionChecksummed);
// Constants written into the config fields whose knobs are gone (list
// capacity and the filter strategy knobs); readers skip them.
constexpr std::uint64_t kUnusedListCapacity = 64;
constexpr double kUnusedPostThreshold = 0.5;
constexpr double kUnusedWidenThreshold = 0.01;
constexpr std::uint64_t kUnusedWidenFactor = 4;

std::uint64_t AlignUp(std::uint64_t value) {
  return (value + kSegmentAlign - 1) & ~(kSegmentAlign - 1);
}

void WriteRaw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) throw SnapshotError("snapshot write failed");
}

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteRaw(os, &value, sizeof(T));
}

void WriteString(std::ostream& os, std::string_view s) {
  WritePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  WriteRaw(os, s.data(), s.size());
}

void ReadRaw(std::istream& is, void* data, std::size_t bytes) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    throw SnapshotError("snapshot truncated");
  }
}

template <typename T>
T ReadPod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  ReadRaw(is, &value, sizeof(T));
  return value;
}

std::string ReadString(std::istream& is) {
  const auto size = ReadPod<std::uint32_t>(is);
  if (size > (1u << 24)) throw SnapshotError("snapshot string too large");
  std::string s(size, '\0');
  ReadRaw(is, s.data(), size);
  return s;
}

struct ListDirEntry {
  std::uint64_t entry_count = 0;
  std::uint64_t rel_offset = 0;  // from payload_base, kSegmentAlign-aligned
  std::uint64_t bytes = 0;
};

struct EntryMeta {
  std::string image_url;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string detail_url;
  bool valid = true;
};

// Everything a loader needs before it decides heap-vs-mapped for the
// payload: the full head section plus where the payload region starts.
struct ParsedHead {
  std::uint32_t version = 0;
  std::uint64_t update_hwm = 0;
  std::uint64_t payload_base = 0;
  IvfIndexConfig config;
  std::size_t dim = 0;
  std::vector<float> centroids;
  std::size_t padded_dim = 0;
  std::vector<EntryMeta> entries;
  std::vector<ListDirEntry> directory;
  std::vector<std::vector<LocalId>> list_ids;
  std::vector<std::vector<float>> list_norms;
  std::vector<std::pair<CategoryId, std::uint64_t>> category_populations;
  std::uint64_t column_checksum = 0;
  // v5: per-list CRC32C over each segment's exact payload bytes. Empty on
  // v4 files (checksums absent).
  std::vector<std::uint32_t> list_crcs;
};

// The file size the directory implies: payload_base when every list is
// empty, otherwise the end of the furthest segment. The writer emits
// nothing after the last segment, so any other size means the file was
// rewritten or truncated under us.
std::uint64_t ExpectedFileSize(const ParsedHead& head) {
  std::uint64_t end = head.payload_base;
  for (const ListDirEntry& dir : head.directory) {
    if (dir.bytes == 0) continue;
    end = std::max(end, head.payload_base + dir.rel_offset + dir.bytes);
  }
  return end;
}

ParsedHead ParseHead(std::istream& is, const std::string& path) {
  if (ReadPod<std::uint64_t>(is) != kMagic) {
    throw SnapshotError("bad snapshot magic: " + path);
  }
  const auto version = ReadPod<std::uint32_t>(is);
  if (version != kTieredVersion && version != kTieredVersionChecksummed) {
    throw SnapshotError("not a tiered snapshot (version " +
                        std::to_string(version) + "): " + path);
  }
  ParsedHead head;
  head.version = version;
  head.update_hwm = ReadPod<std::uint64_t>(is);
  head.payload_base = ReadPod<std::uint64_t>(is);
  if (head.payload_base % kSegmentAlign != 0) {
    throw SnapshotError("v4 payload base not 64-byte aligned");
  }

  head.config.nprobe = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  ReadPod<std::uint64_t>(is);  // list capacity: no longer a knob
  head.config.filter_invalid_during_scan = ReadPod<std::uint8_t>(is) != 0;
  // Filter strategy knobs: constants of the planner now.
  ReadPod<double>(is);
  ReadPod<double>(is);
  ReadPod<std::uint64_t>(is);

  head.dim = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  const auto num_clusters =
      static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (head.dim == 0 || head.dim > (1u << 20) || num_clusters == 0 ||
      num_clusters > (1u << 24)) {
    throw SnapshotError("implausible snapshot dimensions");
  }
  head.centroids.resize(num_clusters * head.dim);
  ReadRaw(is, head.centroids.data(),
          head.centroids.size() * sizeof(float));
  head.padded_dim = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (head.padded_dim < head.dim || head.padded_dim > (1u << 20)) {
    throw SnapshotError("implausible v4 padded row stride");
  }

  const auto count = ReadPod<std::uint64_t>(is);
  head.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    EntryMeta entry;
    entry.image_url = ReadString(is);
    entry.product_id = ReadPod<std::uint64_t>(is);
    entry.category = ReadPod<std::uint32_t>(is);
    entry.attributes.sales = ReadPod<std::uint64_t>(is);
    entry.attributes.price_cents = ReadPod<std::uint64_t>(is);
    entry.attributes.praise = ReadPod<std::uint64_t>(is);
    entry.detail_url = ReadString(is);
    entry.valid = ReadPod<std::uint8_t>(is) != 0;
    head.entries.push_back(std::move(entry));
  }

  const auto num_lists = static_cast<std::size_t>(ReadPod<std::uint64_t>(is));
  if (num_lists != num_clusters) {
    throw SnapshotError("v4 directory list count does not match quantizer");
  }
  head.directory.resize(num_lists);
  const bool has_checksums = version >= kTieredVersionChecksummed;
  if (has_checksums) head.list_crcs.reserve(num_lists);
  const std::uint64_t row_bytes = head.padded_dim * sizeof(float);
  std::uint64_t total_entries = 0;
  for (ListDirEntry& dir : head.directory) {
    dir.entry_count = ReadPod<std::uint64_t>(is);
    dir.rel_offset = ReadPod<std::uint64_t>(is);
    dir.bytes = ReadPod<std::uint64_t>(is);
    if (has_checksums) head.list_crcs.push_back(ReadPod<std::uint32_t>(is));
    if (dir.rel_offset % kSegmentAlign != 0) {
      throw SnapshotError("v4 directory segment not 64-byte aligned");
    }
    if (dir.bytes != dir.entry_count * row_bytes) {
      throw SnapshotError("v4 directory segment size mismatch");
    }
    total_entries += dir.entry_count;
  }
  if (total_entries != count) {
    throw SnapshotError("v4 directory entry counts do not sum to the "
                        "entry-section count");
  }

  head.list_ids.resize(num_lists);
  head.list_norms.resize(num_lists);
  for (std::size_t list = 0; list < num_lists; ++list) {
    const auto n = static_cast<std::size_t>(head.directory[list].entry_count);
    head.list_ids[list].resize(n);
    head.list_norms[list].resize(n);
    if (n == 0) continue;
    ReadRaw(is, head.list_ids[list].data(), n * sizeof(LocalId));
    ReadRaw(is, head.list_norms[list].data(), n * sizeof(float));
    for (const LocalId id : head.list_ids[list]) {
      if (id >= count) {
        throw SnapshotError("v4 list references a local id past the entry "
                            "section");
      }
    }
  }

  const auto num_categories = ReadPod<std::uint64_t>(is);
  if (num_categories > (1u << 24)) {
    throw SnapshotError("implausible category count in snapshot");
  }
  head.category_populations.reserve(
      static_cast<std::size_t>(num_categories));
  for (std::uint64_t i = 0; i < num_categories; ++i) {
    const auto category = ReadPod<std::uint32_t>(is);
    const auto population = ReadPod<std::uint64_t>(is);
    head.category_populations.emplace_back(category, population);
  }
  head.column_checksum = ReadPod<std::uint64_t>(is);
  return head;
}

// The v3 verification contract, applied after whichever restore path rebuilt
// the attribute filter index.
void VerifyFilters(const IvfIndex& index, const ParsedHead& head) {
  const AttributeFilterIndex& filters = index.attribute_filters();
  for (const auto& [category, population] : head.category_populations) {
    const ValidityBitmap* bitmap = filters.CategoryBitmap(category);
    const std::uint64_t rebuilt = bitmap == nullptr ? 0 : bitmap->CountValid();
    if (rebuilt != population) {
      throw SnapshotError("filter index verification failed: category " +
                          std::to_string(category) + " has " +
                          std::to_string(rebuilt) + " images, snapshot " +
                          "recorded " + std::to_string(population));
    }
  }
  if (filters.ColumnChecksum() != head.column_checksum) {
    throw SnapshotError(
        "filter index verification failed: numeric column checksum "
        "mismatch after rebuild");
  }
}

// Holds LOCK_EX on an existing snapshot file across a rewrite. A mapped
// loader holds LOCK_SH for the lifetime of its mapping, so a deploy trying
// to rewrite a file that a live index is scanning fails here, loudly,
// before the first truncating byte.
class ExclusiveWriteLock {
 public:
  explicit ExclusiveWriteLock(const std::string& path) {
#if JDVS_HAVE_FLOCK
    do {
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ < 0) return;  // no existing file: nothing can be mapping it
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX | LOCK_NB);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd_);
      fd_ = -1;
      throw SnapshotError(
          "snapshot file is mapped by a live index (shared flock held), "
          "refusing to rewrite: " + path);
    }
#else
    (void)path;
#endif
  }
  ~ExclusiveWriteLock() {
#if JDVS_HAVE_FLOCK
    if (fd_ >= 0) ::close(fd_);
#endif
  }
  ExclusiveWriteLock(const ExclusiveWriteLock&) = delete;
  ExclusiveWriteLock& operator=(const ExclusiveWriteLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

void SaveTieredSnapshot(const IvfIndex& index, const std::string& path,
                        std::uint64_t update_hwm, std::uint32_t version) {
  if (version != kTieredVersion && version != kTieredVersionChecksummed) {
    throw SnapshotError("unsupported tiered snapshot version " +
                        std::to_string(version));
  }
  if (index.pq() != nullptr) {
    throw SnapshotError("tiered snapshot of a PQ-codec index");
  }
  const std::size_t num_lists = index.num_lists();
  const std::uint64_t row_bytes = index.padded_dim() * sizeof(float);

  // Per-list directory first: counts now, relative offsets by running sum.
  std::vector<ListDirEntry> directory(num_lists);
  std::uint64_t running = 0;
  for (std::size_t list = 0; list < num_lists; ++list) {
    ListDirEntry& dir = directory[list];
    dir.entry_count = index.ListEntryCount(list);
    dir.rel_offset = running;
    dir.bytes = dir.entry_count * row_bytes;
    running += AlignUp(dir.bytes);
  }

  // v5: CRC32C per segment, over the exact payload bytes the segment will
  // contain (alignment padding between segments is not covered — it is
  // never scanned). One extra pass over the rows, paid only at save time.
  std::vector<std::uint32_t> list_crcs;
  if (version >= kTieredVersionChecksummed) {
    list_crcs.resize(num_lists, 0);
    for (std::size_t list = 0; list < num_lists; ++list) {
      std::uint32_t crc = 0;
      index.ForEachScanRun(
          list, [&](const LocalId* /*ids*/, const std::uint8_t* payload,
                    const float* /*norms*/, std::size_t count) {
            crc = Crc32c(payload, count * row_bytes, crc);
          });
      list_crcs[list] = crc;
    }
  }

  // Head section in memory: its size determines payload_base.
  std::ostringstream head(std::ios::binary);
  const IvfIndexConfig& config = index.config();
  WritePod<std::uint64_t>(head, config.nprobe);
  WritePod<std::uint64_t>(head, kUnusedListCapacity);
  WritePod<std::uint8_t>(head, config.filter_invalid_during_scan ? 1 : 0);
  WritePod<double>(head, kUnusedPostThreshold);
  WritePod<double>(head, kUnusedWidenThreshold);
  WritePod<std::uint64_t>(head, kUnusedWidenFactor);

  const CoarseQuantizer& quantizer = index.quantizer();
  WritePod<std::uint64_t>(head, quantizer.dim());
  WritePod<std::uint64_t>(head, quantizer.num_clusters());
  for (std::size_t c = 0; c < quantizer.num_clusters(); ++c) {
    const FeatureView centroid = quantizer.Centroid(c);
    WriteRaw(head, centroid.data(), centroid.size() * sizeof(float));
  }
  WritePod<std::uint64_t>(head, index.padded_dim());

  WritePod<std::uint64_t>(head, index.size());
  std::map<CategoryId, std::uint64_t> category_populations;
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         const std::uint8_t*, FeatureView, bool valid) {
    WriteString(head, snapshot.image_url);
    WritePod<std::uint64_t>(head, snapshot.product_id);
    WritePod<std::uint32_t>(head, snapshot.category);
    WritePod<std::uint64_t>(head, snapshot.attributes.sales);
    WritePod<std::uint64_t>(head, snapshot.attributes.price_cents);
    WritePod<std::uint64_t>(head, snapshot.attributes.praise);
    WriteString(head, snapshot.detail_url);
    WritePod<std::uint8_t>(head, valid ? 1 : 0);
    ++category_populations[snapshot.category];
  });

  WritePod<std::uint64_t>(head, static_cast<std::uint64_t>(num_lists));
  for (std::size_t list = 0; list < num_lists; ++list) {
    const ListDirEntry& dir = directory[list];
    WritePod<std::uint64_t>(head, dir.entry_count);
    WritePod<std::uint64_t>(head, dir.rel_offset);
    WritePod<std::uint64_t>(head, dir.bytes);
    if (version >= kTieredVersionChecksummed) {
      WritePod<std::uint32_t>(head, list_crcs[list]);
    }
  }
  for (std::size_t list = 0; list < num_lists; ++list) {
    index.ForEachScanRun(
        list, [&](const LocalId* ids, const std::uint8_t* /*payload*/,
                  const float* /*norms*/, std::size_t count) {
          WriteRaw(head, ids, count * sizeof(LocalId));
        });
    index.ForEachScanRun(
        list, [&](const LocalId* /*ids*/, const std::uint8_t* /*payload*/,
                  const float* norms, std::size_t count) {
          WriteRaw(head, norms, count * sizeof(float));
        });
  }

  WritePod<std::uint64_t>(head, category_populations.size());
  for (const auto& [category, population] : category_populations) {
    WritePod<std::uint32_t>(head, category);
    WritePod<std::uint64_t>(head, population);
  }
  WritePod<std::uint64_t>(head, index.attribute_filters().ColumnChecksum());

  const std::string head_bytes = head.str();
  constexpr std::uint64_t kPrefixBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
      sizeof(std::uint64_t);  // magic + version + hwm + payload_base
  const std::uint64_t payload_base =
      AlignUp(kPrefixBytes + head_bytes.size());

  // Refuses (throws) when a live mapping holds the shared lock; held until
  // the rewrite below completes.
  const ExclusiveWriteLock write_lock(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw SnapshotError("cannot open for writing: " + path);
  WritePod(os, kMagic);
  WritePod(os, version);
  WritePod<std::uint64_t>(os, update_hwm);
  WritePod<std::uint64_t>(os, payload_base);
  WriteRaw(os, head_bytes.data(), head_bytes.size());

  // Zero padding up to payload_base, then the aligned payload segments with
  // zero padding between them (rel offsets are AlignUp'd).
  const std::string zeros(kSegmentAlign, '\0');
  std::uint64_t pos = kPrefixBytes + head_bytes.size();
  auto pad_to = [&](std::uint64_t target) {
    while (pos < target) {
      const std::uint64_t n =
          std::min<std::uint64_t>(zeros.size(), target - pos);
      WriteRaw(os, zeros.data(), n);
      pos += n;
    }
  };
  pad_to(payload_base);
  for (std::size_t list = 0; list < num_lists; ++list) {
    pad_to(payload_base + directory[list].rel_offset);
    index.ForEachScanRun(
        list, [&](const LocalId* /*ids*/, const std::uint8_t* payload,
                  const float* /*norms*/, std::size_t count) {
          WriteRaw(os, payload, count * row_bytes);
          pos += count * row_bytes;
        });
  }
  os.flush();
  if (!os) throw SnapshotError("snapshot flush failed");
}

std::unique_ptr<IvfIndex> LoadTieredSnapshot(const std::string& path,
                                             const TieredStoreConfig& tier_config,
                                             std::uint64_t* update_hwm) {
  ParsedHead head = [&] {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw SnapshotError("cannot open for reading: " + path);
    return ParseHead(is, path);
  }();
  if (update_hwm != nullptr) *update_hwm = head.update_hwm;

  // The shared flock outlives the mapping (it rides the retained fd inside
  // MmapFile), so SaveTieredSnapshot's exclusive lock fails while any index
  // is still serving from this file.
  MmapFile file = [&] {
    try {
      return MmapFile::Open(path, /*lock_shared=*/true);
    } catch (const MmapError& e) {
      throw SnapshotError(std::string("cannot map tiered snapshot: ") +
                          e.what());
    }
  }();
  const std::uint64_t expected_size = ExpectedFileSize(head);
  if (file.size() != expected_size) {
    throw SnapshotError(
        "tiered snapshot size disagrees with its directory (file " +
        std::to_string(file.size()) + " bytes, directory implies " +
        std::to_string(expected_size) +
        " — truncated or rewritten under us?): " + path);
  }

  auto quantizer = std::make_shared<const CoarseQuantizer>(
      std::move(head.centroids), head.dim);
  auto index = std::make_unique<IvfIndex>(std::move(quantizer), head.config);
  if (index->padded_dim() != head.padded_dim) {
    throw SnapshotError(
        "v4 row stride mismatch: snapshot rows are " +
        std::to_string(head.padded_dim) + " floats, this build pads to " +
        std::to_string(index->padded_dim()));
  }

  for (const EntryMeta& entry : head.entries) {
    index->AddImageMetadata(entry.image_url, entry.product_id, entry.category,
                            entry.attributes, entry.detail_url);
  }
  for (const EntryMeta& entry : head.entries) {
    if (!entry.valid) index->SetImageValidity(entry.image_url, false);
  }
  std::vector<TieredListStore::ListExtent> extents;
  extents.reserve(head.directory.size());
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    extents.push_back({head.payload_base + dir.rel_offset, dir.bytes});
    if (dir.entry_count == 0) continue;
    index->AttachFrozenList(
        list, head.list_ids[list].data(), head.list_norms[list].data(),
        file.data() + head.payload_base + dir.rel_offset,
        static_cast<std::size_t>(dir.entry_count));
  }
  VerifyFilters(*index, head);
  if (!index->storage_aligned()) {
    throw SnapshotError("mapped feature storage is not 64-byte aligned");
  }
  // The store owns the mapping; the frozen payload pointers installed above
  // stay valid because MmapFile moves transfer the mapping, never remap it.
  index->AttachTieredStore(std::make_shared<TieredListStore>(
      std::move(file), std::move(extents), std::move(head.list_crcs),
      tier_config));
  return index;
}

TieredDirectoryInfo ReadTieredDirectory(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  const ParsedHead head = ParseHead(is, path);
  TieredDirectoryInfo info;
  info.version = head.version;
  info.has_checksums = !head.list_crcs.empty();
  info.payload_base = head.payload_base;
  info.segments.reserve(head.directory.size());
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    TieredSegmentInfo seg;
    seg.list = static_cast<std::uint32_t>(list);
    seg.offset = head.payload_base + dir.rel_offset;
    seg.bytes = dir.bytes;
    seg.entry_count = dir.entry_count;
    if (info.has_checksums) seg.crc32c = head.list_crcs[list];
    info.segments.push_back(seg);
  }
  return info;
}

TieredVerifyResult VerifyTieredSnapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  const ParsedHead head = ParseHead(is, path);
  TieredVerifyResult result;
  result.has_checksums = !head.list_crcs.empty();
  if (!result.has_checksums) return result;
  std::vector<char> buf(1 << 18);
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    if (dir.bytes == 0) continue;
    is.clear();
    is.seekg(static_cast<std::streamoff>(head.payload_base + dir.rel_offset));
    std::uint32_t crc = 0;
    for (std::uint64_t off = 0; off < dir.bytes;) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(dir.bytes - off, buf.size()));
      ReadRaw(is, buf.data(), n);
      crc = Crc32c(buf.data(), n, crc);
      off += n;
    }
    ++result.checked;
    if (crc != head.list_crcs[list]) {
      result.corrupt_lists.push_back(static_cast<std::uint32_t>(list));
    }
  }
  return result;
}

namespace internal {

std::unique_ptr<IvfIndex> LoadTieredSnapshotHeap(const std::string& path,
                                                 std::uint64_t* update_hwm) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open for reading: " + path);
  ParsedHead head = ParseHead(is, path);
  if (update_hwm != nullptr) *update_hwm = head.update_hwm;

  // Gather every entry's feature from its list's payload segment, keyed back
  // to LocalId, so AddImage can replay in LocalId order (the order the
  // lookup maps and forward index expect).
  const std::size_t count = head.entries.size();
  std::vector<float> features(count * head.dim);
  std::vector<float> row(head.padded_dim);
  for (std::size_t list = 0; list < head.directory.size(); ++list) {
    const ListDirEntry& dir = head.directory[list];
    if (dir.entry_count == 0) continue;
    is.clear();
    is.seekg(static_cast<std::streamoff>(head.payload_base + dir.rel_offset));
    if (!is) throw SnapshotError("v4 payload seek failed (truncated?)");
    std::uint32_t crc = 0;
    for (std::uint64_t j = 0; j < dir.entry_count; ++j) {
      ReadRaw(is, row.data(), head.padded_dim * sizeof(float));
      if (!head.list_crcs.empty()) {
        crc = Crc32c(row.data(), head.padded_dim * sizeof(float), crc);
      }
      const LocalId local = head.list_ids[list][static_cast<std::size_t>(j)];
      std::memcpy(features.data() + static_cast<std::size_t>(local) * head.dim,
                  row.data(), head.dim * sizeof(float));
    }
    if (!head.list_crcs.empty() && crc != head.list_crcs[list]) {
      throw SnapshotError("payload checksum mismatch on list " +
                          std::to_string(list) + " (bitrot?): " + path);
    }
  }

  auto quantizer = std::make_shared<const CoarseQuantizer>(
      std::move(head.centroids), head.dim);
  auto index = std::make_unique<IvfIndex>(std::move(quantizer), head.config);
  for (std::size_t i = 0; i < count; ++i) {
    const EntryMeta& entry = head.entries[i];
    index->AddImage(entry.image_url, entry.product_id, entry.category,
                    entry.attributes, entry.detail_url,
                    FeatureView(features.data() + i * head.dim, head.dim));
  }
  for (const EntryMeta& entry : head.entries) {
    if (!entry.valid) index->SetImageValidity(entry.image_url, false);
  }
  VerifyFilters(*index, head);
  if (!index->storage_aligned()) {
    throw SnapshotError("restored feature storage is not 64-byte aligned");
  }
  return index;
}

}  // namespace internal

}  // namespace jdvs
