// Tests for index snapshot persistence: round trips, corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "index/full_index_builder.h"
#include "index/snapshot.h"
#include "pq/pq_snapshot.h"
#include "search/searcher.h"
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
  searcher.SaveIndexSnapshot(path);
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
  SaveIvfPqSnapshot(*built.index, path);
  const auto loaded = LoadIvfPqSnapshot(path);
  ASSERT_EQ(loaded->size(), built.index->size());
  EXPECT_EQ(loaded->Stats().valid_images, built.index->Stats().valid_images);
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
  SaveIvfPqSnapshot(*built.index, path);
  const auto loaded = LoadIvfPqSnapshot(path);
  EXPECT_GT(loaded->Stats().raw_memory_bytes, 0u);
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
  EXPECT_THROW(LoadIvfPqSnapshot(path), SnapshotError);
}

TEST_F(SnapshotTest, PqTruncatedThrows) {
  PqBuilt built;
  const std::string path = PathFor("pq.snap");
  SaveIvfPqSnapshot(*built.index, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(LoadIvfPqSnapshot(path), SnapshotError);
}

// Byte offset of entry 0 in a PQ snapshot of `index`, following the layout
// pq/pq_snapshot.cc writes.
std::size_t FirstPqEntryOffset(const IvfIndex& index) {
  const std::size_t header = 8 + 4 + 8 + 8 + 8 + 1;  // magic..raw flag
  const std::size_t coarse =
      16 + index.quantizer().num_clusters() * index.dim() * sizeof(float);
  const std::size_t codebooks =
      16 + index.pq()->codebooks().size() * sizeof(float);
  return header + coarse + codebooks + 8;  // + entry count
}

// A list id or a code byte out of range in the file is rejected at load
// instead of indexing past the lists or the ADC table at search time.
TEST_F(SnapshotTest, PqCorruptListOrCodeThrows) {
  PqBuilt built;
  const std::string good = PathFor("pq.snap");
  SaveIvfPqSnapshot(*built.index, good);
  // Entry 0 starts with its URL; its detail URL is empty.
  const std::string url = MakeImageUrl(1, 0);
  const std::size_t entry = FirstPqEntryOffset(*built.index);
  {
    std::ifstream f(good, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(entry));
    std::uint32_t length = 0;
    f.read(reinterpret_cast<char*>(&length), sizeof(length));
    std::string stored(length, '\0');
    f.read(stored.data(), length);
    ASSERT_EQ(stored, url);
  }
  const std::size_t list_offset = entry + 4 + url.size() + 8 + 4 + 3 * 8 + 4;
  const auto corrupt = [&](const std::string& name, std::size_t offset,
                           const void* bytes, std::size_t n) {
    const std::string path = PathFor(name);
    std::filesystem::copy_file(good, path);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
    return path;
  };
  const std::uint32_t bad_list = 1000000;
  EXPECT_THROW(LoadIvfPqSnapshot(corrupt("bad_list.snap", list_offset,
                                         &bad_list, sizeof(bad_list))),
               SnapshotError);
  const std::uint8_t bad_code = 250;  // codebook_size is 32
  // The code follows the list id and the validity byte.
  EXPECT_THROW(LoadIvfPqSnapshot(corrupt("bad_code.snap",
                                         list_offset + 4 + 1, &bad_code, 1)),
               SnapshotError);
}

}  // namespace
}  // namespace jdvs
