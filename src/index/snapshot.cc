#include "index/snapshot.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <map>

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

constexpr std::uint64_t kMagic = 0x3150414E5356444AULL;  // "JDVSNAP1"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kSegmentAlign = kCacheLineBytes;
constexpr std::size_t kFrameBytes = 4 + 8 + 4;  // tag, length, crc32c
constexpr std::size_t kHeaderBodyBytes = 4 + 4 + 5 * 8;

enum class Tag : std::uint32_t {
  kHeader = 1,
  kConfig,
  kCentroids,
  kCodebooks,
  kEntries,
  kDirectory,
  kLists,
  kRaw,
  kVerify,
};

const char* TagName(Tag tag) {
  static constexpr const char* kNames[] = {
      "?",         "HEADER", "CONFIG", "CENTROIDS", "CODEBOOKS",
      "ENTRIES", "DIRECTORY", "LISTS", "RAW",       "VERIFY"};
  const auto i = static_cast<std::uint32_t>(tag);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::uint64_t AlignUp(std::uint64_t value) {
  return (value + kSegmentAlign - 1) & ~(kSegmentAlign - 1);
}

// ---- Writing: sections are built in memory, then framed. ----

template <typename T>
void Put(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutBytes(std::string& out, const void* data, std::size_t bytes) {
  out.append(static_cast<const char*>(data), bytes);
}

void PutString(std::string& out, std::string_view s) {
  Put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void AppendSection(std::string& out, Tag tag, const std::string& body) {
  const std::size_t frame = out.size();
  Put(out, static_cast<std::uint32_t>(tag));
  Put<std::uint64_t>(out, body.size());
  const std::uint32_t crc =
      Crc32c(body.data(), body.size(), Crc32c(out.data() + frame, 12));
  Put(out, crc);
  out += body;
}

void WriteRaw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) throw SnapshotError("snapshot write failed");
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

// ---- Reading: a bounds-checked cursor over verified bytes. ----

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  const std::uint8_t* Take(std::size_t bytes) {
    if (bytes > size_ - pos_) {
      throw SnapshotError(std::string("snapshot ") + what_ + " truncated");
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += bytes;
    return p;
  }
  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, Take(sizeof(T)), sizeof(T));
    return value;
  }
  template <typename T>
  void Array(std::vector<T>& out, std::size_t count) {
    if (count > (size_ - pos_) / sizeof(T)) {
      throw SnapshotError(std::string("snapshot ") + what_ + " truncated");
    }
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), Take(count * sizeof(T)), count * sizeof(T));
    }
  }
  std::string String() {
    const auto size = Pod<std::uint32_t>();
    const std::uint8_t* p = Take(size);
    return std::string(reinterpret_cast<const char*>(p), size);
  }
  std::size_t pos() const { return pos_; }
  void ExpectEnd() const {
    if (pos_ != size_) {
      throw SnapshotError(std::string("snapshot ") + what_ + " has " +
                          std::to_string(size_ - pos_) + " trailing bytes");
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is ? static_cast<std::streamoff>(is.tellg()) : -1;
  if (size < 0) throw SnapshotError("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.seekg(0);
  if (!is.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw SnapshotError("snapshot read failed: " + path);
  }
  return bytes;
}

}  // namespace

void SaveIndexSnapshot(const IvfIndex& index, const std::string& path,
                       std::uint64_t update_hwm) {
  const ProductQuantizer* pq = index.pq();
  const IvfIndexConfig& config = index.config();
  const std::size_t num_lists = index.num_lists();
  const std::uint64_t stride =
      pq != nullptr ? pq->code_bytes() : index.padded_dim() * sizeof(float);

  std::string sections;
  std::string body;
  Put<std::uint64_t>(body, config.nprobe);
  Put<std::uint8_t>(body, config.filter_invalid_during_scan ? 1 : 0);
  Put<std::uint64_t>(body, config.rerank_candidates);
  AppendSection(sections, Tag::kConfig, body);

  body.clear();
  const CoarseQuantizer& quantizer = index.quantizer();
  for (std::size_t c = 0; c < quantizer.num_clusters(); ++c) {
    const FeatureView centroid = quantizer.Centroid(c);
    PutBytes(body, centroid.data(), centroid.size() * sizeof(float));
  }
  AppendSection(sections, Tag::kCentroids, body);

  if (pq != nullptr) {
    body.clear();
    Put<std::uint64_t>(body, pq->num_subspaces());
    Put<std::uint64_t>(body, pq->codebook_size());
    PutBytes(body, pq->codebooks().data(),
             pq->codebooks().size() * sizeof(float));
    AppendSection(sections, Tag::kCodebooks, body);
  }

  // One pass over the entries fills ENTRIES, RAW and the populations.
  const bool keep_raw = pq != nullptr && config.rerank_candidates > 0;
  body.clear();
  std::string raw;
  std::map<CategoryId, std::uint64_t> category_populations;
  Put<std::uint64_t>(body, index.size());
  index.ForEachEntry([&](LocalId, const AttributeSnapshot& snapshot,
                         const std::uint8_t*, FeatureView feature,
                         bool valid) {
    PutString(body, snapshot.image_url);
    Put<std::uint64_t>(body, snapshot.product_id);
    Put<std::uint32_t>(body, snapshot.category);
    Put<std::uint64_t>(body, snapshot.attributes.sales);
    Put<std::uint64_t>(body, snapshot.attributes.price_cents);
    Put<std::uint64_t>(body, snapshot.attributes.praise);
    PutString(body, snapshot.detail_url);
    Put<std::uint8_t>(body, valid ? 1 : 0);
    if (keep_raw) PutBytes(raw, feature.data(), feature.size() * sizeof(float));
    // Category bitmaps count every appended image, valid or not.
    ++category_populations[snapshot.category];
  });
  AppendSection(sections, Tag::kEntries, body);

  // Directory and lists: one pass per list over its scan runs.
  body.clear();
  std::string lists;
  std::uint64_t rel_offset = 0;
  for (std::size_t list = 0; list < num_lists; ++list) {
    std::uint32_t crc = 0;
    std::uint64_t count = 0;
    std::string norms;
    index.ForEachScanRun(list, [&](const LocalId* ids,
                                   const std::uint8_t* payload,
                                   const float* run_norms, std::size_t n) {
      crc = Crc32c(payload, n * stride, crc);
      count += n;
      PutBytes(lists, ids, n * sizeof(LocalId));
      PutBytes(norms, run_norms, n * sizeof(float));
    });
    if (pq == nullptr) lists += norms;
    Put<std::uint64_t>(body, count);
    Put<std::uint64_t>(body, rel_offset);
    Put<std::uint64_t>(body, count * stride);
    Put<std::uint32_t>(body, crc);
    rel_offset += AlignUp(count * stride);
  }
  AppendSection(sections, Tag::kDirectory, body);
  AppendSection(sections, Tag::kLists, lists);
  if (keep_raw) AppendSection(sections, Tag::kRaw, raw);

  body.clear();
  Put<std::uint64_t>(body, category_populations.size());
  for (const auto& [category, population] : category_populations) {
    Put<std::uint32_t>(body, category);
    Put<std::uint64_t>(body, population);
  }
  Put<std::uint64_t>(body, index.attribute_filters().ColumnChecksum());
  AppendSection(sections, Tag::kVerify, body);

  // The header goes first but is fixed-size, so payload_base is known now.
  std::string head;
  Put(head, kMagic);
  const std::uint64_t payload_base = AlignUp(
      sizeof(kMagic) + kFrameBytes + kHeaderBodyBytes + sections.size());
  body.clear();
  Put<std::uint32_t>(body, kFormatVersion);
  Put<std::uint32_t>(body, pq != nullptr ? 1 : 0);
  Put<std::uint64_t>(body, update_hwm);
  Put<std::uint64_t>(body, index.dim());
  Put<std::uint64_t>(body, stride);
  Put<std::uint64_t>(body, num_lists);
  Put<std::uint64_t>(body, payload_base);
  AppendSection(head, Tag::kHeader, body);
  head += sections;
  head.resize(payload_base, '\0');

  // Refuses (throws) when a live mapping holds the shared lock; held until
  // the rewrite below completes.
  const ExclusiveWriteLock write_lock(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw SnapshotError("cannot open for writing: " + path);
  WriteRaw(os, head.data(), head.size());
  const char zeros[kSegmentAlign] = {};
  for (std::size_t list = 0; list < num_lists; ++list) {
    std::uint64_t written = 0;
    index.ForEachScanRun(list, [&](const LocalId*, const std::uint8_t* payload,
                                   const float*, std::size_t n) {
      WriteRaw(os, payload, n * stride);
      written += n * stride;
    });
    WriteRaw(os, zeros, AlignUp(written) - written);
  }
  os.flush();
  if (!os) throw SnapshotError("snapshot flush failed");
}

namespace internal {

ParsedSnapshot ParseSnapshot(std::span<const std::uint8_t> bytes,
                             const std::string& path) {
  ParsedSnapshot snap;
  SnapshotDirectory& dir = snap.directory;
  dir.file_bytes = bytes.size();
  Reader file(bytes.data(), bytes.size(), "file");
  if (bytes.size() < sizeof(kMagic) || file.Pod<std::uint64_t>() != kMagic) {
    throw SnapshotError("bad snapshot magic: " + path);
  }
  // The next frame must carry `tag`; its checksum is verified before any
  // byte of the body is handed out.
  const auto section = [&](Tag tag) {
    const std::size_t offset = file.pos();
    const std::uint8_t* frame = file.Take(kFrameBytes);
    std::uint32_t found = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&found, frame, 4);
    std::memcpy(&length, frame + 4, 8);
    std::memcpy(&crc, frame + 12, 4);
    const std::string where = std::string("snapshot section ") + TagName(tag) +
                              " at offset " + std::to_string(offset);
    if (length > bytes.size() - file.pos()) {
      throw SnapshotError(where + " runs past the end of the file: " + path);
    }
    const std::uint8_t* body = file.Take(static_cast<std::size_t>(length));
    if (Crc32c(body, length, Crc32c(frame, 12)) != crc) {
      throw SnapshotError(where + ": crc32c mismatch: " + path);
    }
    if (found != static_cast<std::uint32_t>(tag)) {
      throw SnapshotError(where + ": found tag " + std::to_string(found) +
                          ": " + path);
    }
    dir.sections.push_back({TagName(tag), offset, kFrameBytes + length, crc});
    return Reader(body, static_cast<std::size_t>(length), TagName(tag));
  };

  Reader header = section(Tag::kHeader);
  const auto version = header.Pod<std::uint32_t>();
  const auto codec = header.Pod<std::uint32_t>();
  dir.update_hwm = header.Pod<std::uint64_t>();
  const auto dim = header.Pod<std::uint64_t>();
  snap.stride = header.Pod<std::uint64_t>();
  const auto num_lists = header.Pod<std::uint64_t>();
  dir.payload_base = header.Pod<std::uint64_t>();
  header.ExpectEnd();
  if (version != kFormatVersion || codec > 1) {
    throw SnapshotError("unsupported snapshot format " +
                        std::to_string(version) + " codec " +
                        std::to_string(codec) + ": " + path);
  }
  dir.pq = codec == 1;
  if (dim == 0 || dim > (1u << 20) || num_lists == 0 ||
      num_lists > (1u << 24)) {
    throw SnapshotError("implausible snapshot dimensions: " + path);
  }

  Reader config = section(Tag::kConfig);
  snap.config.nprobe = static_cast<std::size_t>(config.Pod<std::uint64_t>());
  snap.config.filter_invalid_during_scan = config.Pod<std::uint8_t>() != 0;
  snap.config.rerank_candidates =
      static_cast<std::size_t>(config.Pod<std::uint64_t>());
  config.ExpectEnd();

  Reader centroids = section(Tag::kCentroids);
  std::vector<float> centroid_floats;
  centroids.Array(centroid_floats, num_lists * dim);
  centroids.ExpectEnd();
  snap.quantizer = std::make_shared<const CoarseQuantizer>(
      std::move(centroid_floats), dim);

  if (dir.pq) {
    Reader codebooks = section(Tag::kCodebooks);
    const auto subspaces = codebooks.Pod<std::uint64_t>();
    const auto codebook_size = codebooks.Pod<std::uint64_t>();
    if (subspaces == 0 || subspaces > dim || dim % subspaces != 0 ||
        codebook_size == 0 || codebook_size > 256 || snap.stride != subspaces) {
      throw SnapshotError("implausible pq codebook shape: " + path);
    }
    std::vector<float> floats;
    codebooks.Array(floats, codebook_size * dim);
    codebooks.ExpectEnd();
    snap.pq = std::make_shared<const ProductQuantizer>(
        dim, subspaces, codebook_size, std::move(floats));
  } else if (snap.stride != PaddedDim(dim) * sizeof(float)) {
    throw SnapshotError("snapshot rows are " + std::to_string(snap.stride) +
                        " bytes, this build pads to " +
                        std::to_string(PaddedDim(dim) * sizeof(float)) +
                        ": " + path);
  }

  Reader entries = section(Tag::kEntries);
  const auto count = entries.Pod<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    SnapshotEntry entry;
    entry.image_url = entries.String();
    entry.product_id = entries.Pod<std::uint64_t>();
    entry.category = entries.Pod<std::uint32_t>();
    entry.attributes.sales = entries.Pod<std::uint64_t>();
    entry.attributes.price_cents = entries.Pod<std::uint64_t>();
    entry.attributes.praise = entries.Pod<std::uint64_t>();
    entry.detail_url = entries.String();
    entry.valid = entries.Pod<std::uint8_t>() != 0;
    snap.entries.push_back(std::move(entry));
  }
  entries.ExpectEnd();

  // Segments lie end to end from payload_base, each 64-byte aligned, and
  // the file ends with the last one's padding.
  Reader directory = section(Tag::kDirectory);
  std::uint64_t rel_offset = 0;
  std::uint64_t total_entries = 0;
  for (std::uint32_t list = 0; list < num_lists; ++list) {
    SnapshotSegment seg;
    seg.list = list;
    seg.entry_count = directory.Pod<std::uint64_t>();
    const auto rel = directory.Pod<std::uint64_t>();
    seg.bytes = directory.Pod<std::uint64_t>();
    seg.crc32c = directory.Pod<std::uint32_t>();
    if (seg.entry_count > count || rel != rel_offset ||
        seg.bytes != seg.entry_count * snap.stride) {
      throw SnapshotError("snapshot directory entry for list " +
                          std::to_string(list) + " is inconsistent: " + path);
    }
    seg.offset = dir.payload_base + rel;
    rel_offset += AlignUp(seg.bytes);
    total_entries += seg.entry_count;
    dir.segments.push_back(seg);
  }
  directory.ExpectEnd();
  if (total_entries != count) {
    throw SnapshotError("snapshot lists hold " +
                        std::to_string(total_entries) + " entries, not " +
                        std::to_string(count) + ": " + path);
  }

  Reader lists = section(Tag::kLists);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(count), 0);
  snap.list_ids.resize(num_lists);
  if (!dir.pq) snap.list_norms.resize(num_lists);
  for (std::size_t list = 0; list < num_lists; ++list) {
    const auto n = static_cast<std::size_t>(dir.segments[list].entry_count);
    lists.Array(snap.list_ids[list], n);
    if (!dir.pq) lists.Array(snap.list_norms[list], n);
    for (const LocalId id : snap.list_ids[list]) {
      if (id >= count || seen[id]++ != 0) {
        throw SnapshotError("snapshot list " + std::to_string(list) +
                            " names entry " + std::to_string(id) + " of " +
                            std::to_string(count) + " twice or past the end: " +
                            path);
      }
    }
  }
  lists.ExpectEnd();

  if (dir.pq && snap.config.rerank_candidates > 0) {
    Reader raw = section(Tag::kRaw);
    raw.Array(snap.raw, count * dim);
    raw.ExpectEnd();
  }

  Reader verify = section(Tag::kVerify);
  const auto num_categories = verify.Pod<std::uint64_t>();
  for (std::uint64_t i = 0; i < num_categories; ++i) {
    const auto category = verify.Pod<std::uint32_t>();
    snap.category_populations.emplace_back(category,
                                           verify.Pod<std::uint64_t>());
  }
  snap.column_checksum = verify.Pod<std::uint64_t>();
  verify.ExpectEnd();

  if (dir.payload_base != AlignUp(file.pos()) ||
      dir.file_bytes != dir.payload_base + rel_offset) {
    throw SnapshotError(
        "snapshot size disagrees with its directory (file " +
        std::to_string(dir.file_bytes) + " bytes, directory implies " +
        std::to_string(dir.payload_base + rel_offset) +
        " — truncated or rewritten?): " + path);
  }
  return snap;
}

void FinishRestore(IvfIndex& index, const ParsedSnapshot& snapshot) {
  for (const SnapshotEntry& entry : snapshot.entries) {
    if (!entry.valid) index.SetImageValidity(entry.image_url, false);
  }
  // The restore replayed every entry through the attribute filter index;
  // a mismatch means filtered queries would silently return wrong results.
  const AttributeFilterIndex& filters = index.attribute_filters();
  for (const auto& [category, population] : snapshot.category_populations) {
    const ValidityBitmap* bitmap = filters.CategoryBitmap(category);
    const std::uint64_t rebuilt = bitmap == nullptr ? 0 : bitmap->CountValid();
    if (rebuilt != population) {
      throw SnapshotError("filter index verification failed: category " +
                          std::to_string(category) + " has " +
                          std::to_string(rebuilt) + " images, snapshot " +
                          "recorded " + std::to_string(population));
    }
  }
  if (filters.ColumnChecksum() != snapshot.column_checksum) {
    throw SnapshotError(
        "filter index verification failed: numeric column checksum "
        "mismatch after rebuild");
  }
  // Every payload run the SIMD kernels will touch must sit on a cache-line
  // boundary; a foreign build/libc combination would surface here.
  if (!index.storage_aligned()) {
    throw SnapshotError("restored payload storage is not 64-byte aligned");
  }
}

}  // namespace internal

std::unique_ptr<IvfIndex> LoadIndexSnapshot(const std::string& path,
                                            std::uint64_t* update_hwm) {
  const std::vector<std::uint8_t> file = ReadFile(path);
  const internal::ParsedSnapshot snap = internal::ParseSnapshot(file, path);
  const std::size_t count = snap.entries.size();

  // Every entry's payload and list, by local id, out of checksummed
  // segments.
  std::vector<const std::uint8_t*> payload_of(count);
  std::vector<std::uint32_t> list_of(count);
  for (const SnapshotSegment& seg : snap.directory.segments) {
    const std::uint8_t* base = file.data() + seg.offset;
    if (Crc32c(base, seg.bytes) != seg.crc32c) {
      throw SnapshotError("payload checksum mismatch on list " +
                          std::to_string(seg.list) + " (bitrot?): " + path);
    }
    for (std::size_t j = 0; j < seg.entry_count; ++j) {
      const LocalId local = snap.list_ids[seg.list][j];
      payload_of[local] = base + j * snap.stride;
      list_of[local] = seg.list;
    }
  }

  auto index = std::make_unique<IvfIndex>(snap.quantizer, snap.config, snap.pq);
  const std::size_t dim = index->dim();
  std::vector<float> row(dim);
  for (std::size_t local = 0; local < count; ++local) {
    const internal::SnapshotEntry& e = snap.entries[local];
    if (snap.pq == nullptr) {
      std::memcpy(row.data(), payload_of[local], dim * sizeof(float));
      index->AddImage(e.image_url, e.product_id, e.category, e.attributes,
                      e.detail_url, FeatureView(row.data(), dim));
      continue;
    }
    const std::uint8_t* code = payload_of[local];
    for (std::size_t m = 0; m < snap.stride; ++m) {
      // Each code byte indexes a codebook_size-wide row of the ADC table.
      if (code[m] >= snap.pq->codebook_size()) {
        throw SnapshotError("snapshot entry " + std::to_string(local) +
                            " has code " + std::to_string(code[m]) +
                            " past codebook size " +
                            std::to_string(snap.pq->codebook_size()) + ": " +
                            path);
      }
    }
    const FeatureView raw =
        snap.raw.empty() ? FeatureView()
                         : FeatureView(snap.raw.data() + local * dim, dim);
    index->AddEncoded(e.image_url, e.product_id, e.category, e.attributes,
                      e.detail_url, code, list_of[local], raw);
  }
  internal::FinishRestore(*index, snap);
  if (update_hwm != nullptr) *update_hwm = snap.directory.update_hwm;
  return index;
}

SnapshotDirectory ReadSnapshotDirectory(const std::string& path) {
  return internal::ParseSnapshot(ReadFile(path), path).directory;
}

SnapshotVerifyResult VerifySnapshot(const std::string& path) {
  const std::vector<std::uint8_t> file = ReadFile(path);
  SnapshotVerifyResult result;
  result.directory = internal::ParseSnapshot(file, path).directory;
  for (const SnapshotSegment& seg : result.directory.segments) {
    if (Crc32c(file.data() + seg.offset, seg.bytes) != seg.crc32c) {
      result.corrupt_lists.push_back(seg.list);
    }
  }
  return result;
}

}  // namespace jdvs
