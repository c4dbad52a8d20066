// Tests for index snapshot persistence: round trips of both codecs through
// the one format, corruption handling, and a bit-flip sweep over every
// section and payload segment.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/crc32c.h"
#include "index/digest.h"
#include "index/full_index_builder.h"
#include "index/snapshot.h"
#include "net/fault_injector.h"
#include "search/searcher.h"
#include "tier/tiered_snapshot.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("jdvs_snapshot_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

struct Built {
  Built() : features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 80;
    cg.num_categories = 8;
    GenerateCatalog(cg, catalog, images);
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 16;
    fc.index_config.nprobe = 4;
    FullIndexBuilder builder(catalog, images, features, fc);
    index = builder.Build(builder.TrainQuantizer());
  }
  SyntheticEmbedder embedder{{.dim = 24, .num_categories = 8, .seed = 2}};
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
  std::unique_ptr<IvfIndex> index;
};

TEST_F(SnapshotTest, RoundTripPreservesSearchResults) {
  Built built;
  built.index->SetProductValidity(3, false);  // some invalid state too
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);

  ASSERT_EQ(loaded->size(), built.index->size());
  EXPECT_EQ(loaded->Stats().valid_images, built.index->Stats().valid_images);
  EXPECT_EQ(loaded->Stats().num_lists, built.index->Stats().num_lists);

  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query =
        built.embedder.ExtractQuery(pid, record->category, pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
      EXPECT_EQ(original[i].attributes, restored[i].attributes);
      EXPECT_EQ(original[i].image_url, restored[i].image_url);
      EXPECT_EQ(original[i].detail_url, restored[i].detail_url);
    }
  }
}

TEST_F(SnapshotTest, RoundTripPreservesConfig) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded->config().nprobe, built.index->config().nprobe);
  EXPECT_EQ(loaded->dim(), built.index->dim());
}

// Snapshot v3 persists the attribute filter state (category bitmaps +
// numeric columns): a loaded index answers hybrid filtered queries
// identically.
TEST_F(SnapshotTest, RoundTripPreservesFilteredSearch) {
  Built built;
  built.index->SetProductValidity(7, false);
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);

  EXPECT_EQ(loaded->attribute_filters().ColumnChecksum(),
            built.index->attribute_filters().ColumnChecksum());

  FilterExpression filter;
  filter.WithCategoryRange(0, 3).WithMin(FilterField::kSales, 1);
  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto record = built.catalog.Get(pid);
    const auto query =
        built.embedder.ExtractQuery(pid, record->category, pid);
    const auto original =
        built.index->Search(query, 5, 16, kNoCategoryFilter, filter);
    const auto restored =
        loaded->Search(query, 5, 16, kNoCategoryFilter, filter);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_TRUE(filter.Matches(restored[i].category,
                                 restored[i].attributes));
    }
  }
}

TEST_F(SnapshotTest, LoadedIndexAcceptsNewWrites) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  auto loaded = LoadIndexSnapshot(path);
  const auto feature = built.embedder.Extract({"new-image", 999, 3});
  loaded->AddImage("new-image", 999, 3, {.sales = 1}, "", feature);
  const auto hits = loaded->Search(feature, 1, /*nprobe=*/16);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].product_id, 999u);
}

TEST_F(SnapshotTest, MissingFileThrows) {
  EXPECT_THROW(LoadIndexSnapshot(PathFor("nope.snap")), SnapshotError);
}

TEST_F(SnapshotTest, BadMagicThrows) {
  const std::string path = PathFor("garbage.snap");
  std::ofstream(path, std::ios::binary) << "this is not a snapshot at all";
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, TruncatedFileThrows) {
  Built built;
  const std::string path = PathFor("index.snap");
  SaveIndexSnapshot(*built.index, path);
  // Truncate to 60% of its size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 6 / 10);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, HighWaterMarkRoundTrips) {
  Built built;
  const std::string path = PathFor("hwm.snap");
  SaveIndexSnapshot(*built.index, path, /*update_hwm=*/42);
  std::uint64_t hwm = 0;
  const auto loaded = LoadIndexSnapshot(path, &hwm);
  EXPECT_EQ(hwm, 42u);
  EXPECT_EQ(loaded->size(), built.index->size());
  // Omitting the out-param still loads.
  EXPECT_EQ(LoadIndexSnapshot(path)->size(), built.index->size());
}

TEST_F(SnapshotTest, SearcherSnapshotDuringConcurrentUpdates) {
  // A snapshot save racing a real-time update batch must capture a
  // consistent (index, high-water mark) cut: every product with sequence
  // <= hwm present, everything past it absent. The searcher's writer mutex
  // is the contract under test.
  SyntheticEmbedder embedder({.dim = 16, .num_categories = 4, .seed = 7});
  FeatureDb features(embedder, ExtractionCostModel{.mean_micros = 0});
  Searcher searcher("snap-race", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  auto quantizer =
      std::make_shared<CoarseQuantizer>(std::vector<float>(16, 0.f), 16);
  searcher.InstallIndex(std::make_unique<IvfIndex>(quantizer), 0);

  constexpr std::uint64_t kMessages = 200;
  std::thread writer([&searcher] {
    for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
      ProductUpdateMessage add;
      add.type = UpdateType::kAddProduct;
      add.product_id = 1000 + seq;
      add.category_id = 1;
      add.image_urls = {MakeImageUrl(1000 + seq, 0)};
      add.sequence = seq;
      searcher.ApplyUpdate(add);
    }
  });
  const std::string path = PathFor("race.snap");
  searcher.SaveTieredSnapshot(path);
  writer.join();

  std::uint64_t hwm = 0;
  const auto loaded = LoadIndexSnapshot(path, &hwm);
  EXPECT_LE(hwm, kMessages);
  for (std::uint64_t seq = 1; seq <= kMessages; ++seq) {
    EXPECT_EQ(loaded->HasProduct(1000 + seq), seq <= hwm) << "seq " << seq;
  }
  EXPECT_EQ(searcher.applied_sequence(), kMessages);
  // Duplicates at or below the mark are skipped, not re-applied.
  ProductUpdateMessage dup;
  dup.type = UpdateType::kAddProduct;
  dup.product_id = 1001;
  dup.image_urls = {MakeImageUrl(1001, 0)};
  dup.sequence = 1;
  EXPECT_FALSE(searcher.ApplyUpdate(dup));
}

TEST_F(SnapshotTest, EmptyIndexRoundTrips) {
  auto quantizer = std::make_shared<CoarseQuantizer>(
      std::vector<float>(8, 0.f), 8);
  IvfIndex empty(quantizer);
  const std::string path = PathFor("empty.snap");
  SaveIndexSnapshot(empty, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_EQ(loaded->size(), 0u);
}

// ---- IVF-PQ snapshots ----

struct PqBuilt {
  PqBuilt(bool keep_raw = false) {
    std::vector<FeatureVector> training;
    for (ProductId pid = 1; pid <= 100; ++pid) {
      training.push_back(embedder.Extract(
          {MakeImageUrl(pid, 0), pid, static_cast<CategoryId>(pid % 8)}));
    }
    KMeansConfig kc;
    kc.num_clusters = 8;
    auto quantizer =
        std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));
    ProductQuantizerConfig pc;
    pc.num_subspaces = 4;
    pc.codebook_size = 32;
    auto pq = std::make_shared<ProductQuantizer>(
        ProductQuantizer::Train(training, pc));
    IvfIndexConfig config;
    config.nprobe = 8;
    config.rerank_candidates = keep_raw ? 20 : 0;
    index = std::make_unique<IvfIndex>(quantizer, config, pq);
    const ProductAttributes attrs{.sales = 4, .price_cents = 99, .praise = 2};
    for (ProductId pid = 1; pid <= 60; ++pid) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        const std::string url = MakeImageUrl(pid, k);
        index->AddImage(url, pid, static_cast<CategoryId>(pid % 8), attrs, "",
                        embedder.Extract(
                            {url, pid, static_cast<CategoryId>(pid % 8)}));
      }
    }
    index->SetProductValidity(9, false);
  }
  SyntheticEmbedder embedder{{.dim = 24, .num_categories = 8, .seed = 6}};
  std::unique_ptr<IvfIndex> index;
};

TEST_F(SnapshotTest, PqRoundTripPreservesSearchResults) {
  PqBuilt built;
  const std::string path = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  ASSERT_NE(loaded->pq(), nullptr);
  ASSERT_EQ(loaded->size(), built.index->size());
  EXPECT_EQ(loaded->Stats().valid_images, built.index->Stats().valid_images);
  EXPECT_EQ(ComputeIndexDigest(*loaded), ComputeIndexDigest(*built.index));
  for (ProductId pid = 1; pid <= 30; ++pid) {
    const auto query = built.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size()) << "pid " << pid;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
    }
  }
}

TEST_F(SnapshotTest, PqRoundTripWithRefinementStore) {
  PqBuilt built(/*keep_raw=*/true);
  const std::string path = PathFor("pq_raw.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto loaded = LoadIndexSnapshot(path);
  EXPECT_GT(loaded->Stats().raw_memory_bytes, 0u);
  EXPECT_EQ(ComputeIndexDigest(*loaded), ComputeIndexDigest(*built.index));
  for (ProductId pid = 1; pid <= 20; ++pid) {
    const auto query = built.embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % 8), pid);
    const auto original = built.index->Search(query, 5);
    const auto restored = loaded->Search(query, 5);
    ASSERT_EQ(original.size(), restored.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].image_id, restored[i].image_id);
      EXPECT_FLOAT_EQ(original[i].distance, restored[i].distance);
    }
  }
}

TEST_F(SnapshotTest, PqBadMagicThrows) {
  const std::string path = PathFor("pq_garbage.snap");
  std::ofstream(path, std::ios::binary) << "junk junk junk junk";
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, PqTruncatedThrows) {
  PqBuilt built;
  const std::string path = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(LoadIndexSnapshot(path), SnapshotError);
}

// ---- Corruption helpers, following the layout in index/snapshot.h ----

constexpr std::uint64_t kFrameBytes = 16;  // u32 tag | u64 length | u32 crc
constexpr std::uint64_t kDirectoryEntryBytes = 28;

std::vector<char> ReadBytes(const std::string& path, std::uint64_t offset,
                            std::uint64_t n) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  std::vector<char> bytes(n);
  f.read(bytes.data(), static_cast<std::streamsize>(n));
  EXPECT_TRUE(f.good());
  return bytes;
}

void Patch(const std::string& path, std::uint64_t offset, const void* bytes,
           std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
  ASSERT_TRUE(f.good());
}

// Rewrites a section's CRC32C (over tag, length and body) to match its
// current bytes, so a test can plant a value the checksum would catch and
// reach the structural check behind it.
void ResealSection(const std::string& path, const SnapshotSection& section) {
  const std::vector<char> frame = ReadBytes(path, section.offset, section.bytes);
  const std::uint32_t crc =
      Crc32c(frame.data() + kFrameBytes, frame.size() - kFrameBytes,
             Crc32c(frame.data(), 12));
  Patch(path, section.offset + 12, &crc, sizeof(crc));
}

const SnapshotSection& SectionNamed(const SnapshotDirectory& dir,
                                    const std::string& name) {
  for (const SnapshotSection& section : dir.sections) {
    if (section.name == name) return section;
  }
  ADD_FAILURE() << "no section " << name;
  return dir.sections.front();
}

const SnapshotSegment& FirstNonEmptySegment(const SnapshotDirectory& dir) {
  for (const SnapshotSegment& seg : dir.segments) {
    if (seg.bytes > 0) return seg;
  }
  ADD_FAILURE() << "no non-empty segment";
  return dir.segments.front();
}

// A list naming an entry past the end, or a code byte past the codebook, is
// rejected at load instead of indexing past the entries or the ADC table at
// search time — even when every checksum matches.
TEST_F(SnapshotTest, PqCorruptListOrCodeThrows) {
  PqBuilt built;
  const std::string good = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, good);
  const SnapshotDirectory dir = ReadSnapshotDirectory(good);
  ASSERT_TRUE(dir.pq);
  const auto copy = [&](const std::string& name) {
    const std::string path = PathFor(name);
    std::filesystem::copy_file(good, path);
    return path;
  };

  // LISTS starts with the first non-empty list's first id.
  const std::string bad_list = copy("bad_list.snap");
  const SnapshotSection& lists = SectionNamed(dir, "LISTS");
  const LocalId past_end = 1000000;
  Patch(bad_list, lists.offset + kFrameBytes, &past_end, sizeof(past_end));
  EXPECT_THROW(LoadIndexSnapshot(bad_list), SnapshotError);  // crc32c
  ResealSection(bad_list, lists);
  EXPECT_THROW(LoadIndexSnapshot(bad_list), SnapshotError);  // range check

  // A code byte past codebook_size (32), with the segment's checksum in the
  // directory and the directory's own checksum both made to match.
  const std::string bad_code = copy("bad_code.snap");
  const SnapshotSegment& seg = FirstNonEmptySegment(dir);
  const std::uint8_t past_codebook = 250;
  Patch(bad_code, seg.offset, &past_codebook, 1);
  EXPECT_THROW(LoadIndexSnapshot(bad_code), SnapshotError);  // crc32c
  const std::vector<char> payload = ReadBytes(bad_code, seg.offset, seg.bytes);
  const std::uint32_t crc = Crc32c(payload.data(), payload.size());
  const SnapshotSection& directory = SectionNamed(dir, "DIRECTORY");
  Patch(bad_code,
        directory.offset + kFrameBytes + seg.list * kDirectoryEntryBytes + 24,
        &crc, sizeof(crc));
  ResealSection(bad_code, directory);
  EXPECT_TRUE(VerifySnapshot(bad_code).corrupt_lists.empty());
  EXPECT_THROW(LoadIndexSnapshot(bad_code), SnapshotError);  // range check
}

// ---- Bit-flip sweep: every byte is checked or harmless ----

using Answers = std::vector<std::vector<SearchHit>>;

Answers AnswersOf(const IvfIndex& index,
                  const std::vector<FeatureVector>& queries) {
  Answers answers;
  for (const FeatureVector& query : queries) {
    answers.push_back(index.Search(query, 5, index.num_lists()));
  }
  return answers;
}

void ExpectSameAnswers(const Answers& want, const Answers& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(want[q].size(), got[q].size()) << what << " query " << q;
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(want[q][i].image_id, got[q][i].image_id) << what;
      EXPECT_EQ(want[q][i].distance, got[q][i].distance) << what;
    }
  }
}

// Serves `queries` from a mapped index after a payload or padding flip:
// each answer is the original's, or is flagged degraded (a quarantined
// list was skipped) and holds only true distances. Returns the number of
// degraded answers.
int ExpectExactOrDegraded(const IvfIndex& original, const IvfIndex& mapped,
                          const std::vector<FeatureVector>& queries,
                          const Answers& want, const std::string& what) {
  int degraded = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    TierScanStats tier;
    const auto hits =
        mapped.Search(queries[q], 5, mapped.num_lists(), kNoCategoryFilter,
                      nullptr, nullptr, /*io_budget_micros=*/0, &tier);
    if (tier.lists_quarantined == 0) {
      ExpectSameAnswers({want[q]}, {hits}, what);
      continue;
    }
    ++degraded;
    std::map<ImageId, float> truth;
    for (const SearchHit& hit :
         original.SearchExhaustive(queries[q], original.size())) {
      truth[hit.image_id] = hit.distance;
    }
    for (const SearchHit& hit : hits) {
      const auto it = truth.find(hit.image_id);
      if (it == truth.end()) {
        ADD_FAILURE() << what << ": a degraded answer holds an unknown image";
        continue;
      }
      // Dot-form scan vs subtract-form oracle: ulps apart, not units.
      EXPECT_NEAR(hit.distance, it->second, 0.01f) << what;
    }
  }
  return degraded;
}

struct Region {
  std::string what;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  bool padding = false;
  bool payload = false;
};

std::uint64_t AlignUp64(std::uint64_t v) { return (v + 63) / 64 * 64; }

// The file as regions: the magic, each section, each payload segment and
// the alignment padding between them. Asserts that they tile the file.
std::vector<Region> RegionsOf(const SnapshotDirectory& dir) {
  std::vector<Region> regions;
  regions.push_back({"magic", 0, 8});
  std::uint64_t end = 8;
  for (const SnapshotSection& section : dir.sections) {
    EXPECT_EQ(section.offset, end) << section.name;
    regions.push_back({section.name, section.offset, section.bytes});
    end = section.offset + section.bytes;
  }
  EXPECT_EQ(dir.payload_base, AlignUp64(end));
  regions.push_back({"head padding", end, dir.payload_base - end, true});
  end = dir.payload_base;
  for (const SnapshotSegment& seg : dir.segments) {
    EXPECT_EQ(seg.offset, end) << "list " << seg.list;
    const std::string list = "list " + std::to_string(seg.list);
    regions.push_back({list + " payload", seg.offset, seg.bytes, false, true});
    end = AlignUp64(seg.offset + seg.bytes);
    regions.push_back({list + " padding", seg.offset + seg.bytes,
                       end - seg.offset - seg.bytes, true});
  }
  EXPECT_EQ(end, dir.file_bytes);
  // Fields a flip could silently mislead search through, flipped byte by
  // byte: the high-water mark (HEADER body bytes 8..15) and, for flat rows,
  // the last norm, which ends LISTS.
  const SnapshotSection& header = SectionNamed(dir, "HEADER");
  regions.push_back({"HEADER update_hwm", header.offset + kFrameBytes + 8, 8});
  if (!dir.pq) {
    const SnapshotSection& lists = SectionNamed(dir, "LISTS");
    regions.push_back({"LISTS last norm", lists.offset + lists.bytes - 4, 4});
  }
  std::erase_if(regions, [](const Region& r) { return r.bytes == 0; });
  return regions;
}

// Flips seeded bits in every region of `good` (a snapshot of `original`)
// and checks each copy against both loaders.
void SweepBitFlips(const IvfIndex& original, const std::string& good,
                   const std::vector<FeatureVector>& queries,
                   const std::string& scratch) {
  const Answers want = AnswersOf(original, queries);
  const SnapshotDirectory dir = ReadSnapshotDirectory(good);
  std::uint64_t seed = 1;
  int trials = 0;
  int padding_trials = 0;
  int quarantined = 0;
  for (const Region& region : RegionsOf(dir)) {
    // Small fields get one flip per byte; larger regions a few seeded ones.
    const std::uint64_t flips = region.bytes <= 8 ? region.bytes : 4;
    for (std::uint64_t f = 0; f < flips; ++f, ++seed) {
      const std::string what = region.what + " flip " + std::to_string(f);
      std::filesystem::copy_file(
          good, scratch, std::filesystem::copy_options::overwrite_existing);
      const std::uint64_t offset =
          region.bytes <= 8 ? region.offset + f : region.offset;
      const std::uint64_t span = region.bytes <= 8 ? 1 : region.bytes;
      ASSERT_TRUE(FaultInjector::FlipBit(scratch, offset, span, seed)) << what;
      ++trials;

      std::unique_ptr<IvfIndex> heap;
      try {
        heap = LoadIndexSnapshot(scratch);
      } catch (const SnapshotError&) {
      }
      if (region.padding) {
        ++padding_trials;
        ASSERT_NE(heap, nullptr) << what;
        ExpectSameAnswers(want, AnswersOf(*heap, queries), what);
      } else {
        EXPECT_EQ(heap, nullptr) << what << " loaded to the heap";
      }

      TieredStoreConfig tier;
      tier.drop_pages_on_load = false;
      std::unique_ptr<IvfIndex> mapped;
      try {
        mapped = LoadTieredSnapshot(scratch, tier);
      } catch (const SnapshotError&) {
      }
      if (dir.pq || !(region.padding || region.payload)) {
        EXPECT_EQ(mapped, nullptr) << what << " mapped";
        continue;
      }
      ASSERT_NE(mapped, nullptr) << what;
      const int degraded =
          ExpectExactOrDegraded(original, *mapped, queries, want, what);
      const std::uint64_t poisoned =
          mapped->tiered_store()->quarantined_lists();
      // Every query probes every list, so a corrupt segment is found.
      EXPECT_EQ(poisoned, region.payload ? 1u : 0u) << what;
      if (region.padding) {
        EXPECT_EQ(degraded, 0) << what;
      }
      quarantined += static_cast<int>(poisoned);
    }
  }
  EXPECT_GT(trials, 40);
  EXPECT_GT(padding_trials, 0);
  if (!dir.pq) {
    EXPECT_GT(quarantined, 0);
  }
}

std::vector<FeatureVector> QueriesFor(const SyntheticEmbedder& embedder,
                                      std::size_t categories) {
  std::vector<FeatureVector> queries;
  for (ProductId pid = 1; pid <= 8; ++pid) {
    queries.push_back(embedder.ExtractQuery(
        pid, static_cast<CategoryId>(pid % categories), pid));
  }
  return queries;
}

TEST_F(SnapshotTest, BitFlipSweepFlatRows) {
  Built built;
  built.index->SetProductValidity(3, false);
  const std::string good = PathFor("flat.snap");
  SaveIndexSnapshot(*built.index, good, /*update_hwm=*/77);
  SweepBitFlips(*built.index, good, QueriesFor(built.embedder, 8),
                PathFor("flipped.snap"));
}

TEST_F(SnapshotTest, BitFlipSweepPqCodes) {
  PqBuilt built(/*keep_raw=*/true);  // RAW section present too
  const std::string good = PathFor("pq.snap");
  SaveIndexSnapshot(*built.index, good, /*update_hwm=*/77);
  SweepBitFlips(*built.index, good, QueriesFor(built.embedder, 8),
                PathFor("flipped.snap"));
}

}  // namespace
}  // namespace jdvs
