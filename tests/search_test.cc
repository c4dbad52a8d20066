// Tests for the search tier: hit merging, ranking, searcher, broker
// failover, blender end-to-end on a hand-built mini-cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/kmeans.h"
#include "common/hash.h"
#include "common/rng.h"
#include "index/full_index_builder.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "search/blender.h"
#include "search/broker.h"
#include "search/cluster_builder.h"
#include "search/ranking.h"
#include "search/searcher.h"
#include "search/types.h"
#include "workload/catalog_gen.h"

namespace jdvs {
namespace {

SearchHit Hit(ImageId id, float distance, std::uint64_t sales = 0) {
  SearchHit hit;
  hit.image_id = id;
  hit.distance = distance;
  hit.attributes.sales = sales;
  return hit;
}

// MergeHitLists over lists given as SearchHits (each already sorted).
HitList Merge(const std::vector<std::vector<SearchHit>>& partials,
              std::size_t k) {
  std::vector<HitList> lists;
  for (const auto& p : partials) lists.push_back(HitList::FromSearchHits(p));
  std::vector<const HitList*> views;
  for (const HitList& list : lists) views.push_back(&list);
  return MergeHitLists(views, k);
}

TEST(MergeHitsTest, MergesAndTruncates) {
  const HitList merged = Merge(
      {
          {Hit(1, 1.f), Hit(2, 4.f)},
          {Hit(3, 2.f), Hit(4, 5.f)},
          {Hit(5, 3.f)},
      },
      3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].image_id, 1u);
  EXPECT_EQ(merged[1].image_id, 3u);
  EXPECT_EQ(merged[2].image_id, 5u);
}

TEST(MergeHitsTest, DeduplicatesSameImage) {
  const HitList merged = Merge(
      {
          {Hit(1, 1.f), Hit(2, 2.f)},
          {Hit(1, 1.f), Hit(3, 3.f)},  // replica returned the same image
      },
      4);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].image_id, 1u);
}

TEST(MergeHitsTest, EmptyInputs) {
  EXPECT_TRUE(Merge({}, 5).empty());
  EXPECT_TRUE(Merge({{}, {}}, 5).empty());
}

// Seeded property test against a reference merge: concatenate every
// partial in order, stable-sort by (distance, image id), keep the k
// closest, then drop repeated images (first occurrence wins). Distances
// come from four values (ties), image ids from a small range (the same
// image in two partials), some partials are empty and k runs past the
// total.
TEST(MergeHitsTest, MatchesReferenceMergeOnRandomPartials) {
  Rng rng(20261019);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t num_partials = rng.Below(7);
    std::vector<std::vector<SearchHit>> partials(num_partials);
    std::size_t total = 0;
    for (std::size_t p = 0; p < num_partials; ++p) {
      const std::size_t n = rng.Below(3) == 0 ? 0 : rng.Below(9);
      for (std::size_t r = 0; r < n; ++r) {
        SearchHit hit = Hit(1 + rng.Below(12), 0.5f * (1 + rng.Below(4)),
                            rng.Below(100));
        hit.product_id = 100 + hit.image_id;
        hit.category = static_cast<CategoryId>(rng.Below(5));
        hit.attributes.price_cents = rng.Below(10'000);
        hit.attributes.praise = rng.Below(50);
        // URLs name their partial and row, so the test sees which copy of a
        // repeated image survived; lengths vary from empty to a few dozen.
        hit.image_url = std::string(rng.Below(40), 'i') + "/" +
                        std::to_string(p) + "/" + std::to_string(r);
        hit.detail_url = std::string(rng.Below(3) == 0 ? 0 : rng.Below(60),
                                     static_cast<char>('a' + p));
        partials[p].push_back(std::move(hit));
      }
      std::sort(partials[p].begin(), partials[p].end(),
                [](const SearchHit& a, const SearchHit& b) {
                  return a.distance != b.distance ? a.distance < b.distance
                                                  : a.image_id < b.image_id;
                });
      total += n;
    }
    const std::size_t k = rng.Below(total + 4);

    std::vector<SearchHit> expected;
    for (const auto& p : partials) {
      expected.insert(expected.end(), p.begin(), p.end());
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const SearchHit& a, const SearchHit& b) {
                       return a.distance != b.distance
                                  ? a.distance < b.distance
                                  : a.image_id < b.image_id;
                     });
    if (expected.size() > k) expected.resize(k);
    std::vector<SearchHit> deduped;
    for (const SearchHit& hit : expected) {
      if (std::none_of(deduped.begin(), deduped.end(),
                       [&](const SearchHit& h) {
                         return h.image_id == hit.image_id;
                       })) {
        deduped.push_back(hit);
      }
    }

    const HitList merged = Merge(partials, k);
    ASSERT_EQ(merged.size(), deduped.size()) << "trial " << trial;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const SearchHit got = merged.ToSearchHit(i);
      EXPECT_EQ(got.image_id, deduped[i].image_id) << "trial " << trial;
      EXPECT_EQ(got.distance, deduped[i].distance) << "trial " << trial;
      EXPECT_EQ(got.product_id, deduped[i].product_id);
      EXPECT_EQ(got.category, deduped[i].category);
      EXPECT_EQ(got.attributes, deduped[i].attributes);
      EXPECT_EQ(got.image_url, deduped[i].image_url) << "trial " << trial;
      EXPECT_EQ(got.detail_url, deduped[i].detail_url) << "trial " << trial;
    }
    // The SearchHit form the benchmark's gates use agrees hit for hit.
    const std::vector<SearchHit> fat = MergeHits(partials, k);
    ASSERT_EQ(fat.size(), deduped.size());
    for (std::size_t i = 0; i < fat.size(); ++i) {
      EXPECT_EQ(fat[i].image_url, deduped[i].image_url);
    }
  }
}

TEST(RankingTest, SimilarityDominates) {
  const RankingConfig config;
  const SearchHit close = Hit(1, 0.1f, /*sales=*/0);
  const SearchHit far = Hit(2, 50.f, /*sales=*/100000);
  EXPECT_GT(RankScore(close, 0, config), RankScore(far, 0, config));
}

TEST(RankingTest, AttributesBreakTies) {
  const RankingConfig config;
  SearchHit poor = Hit(1, 1.0f);
  SearchHit popular = Hit(2, 1.0f);
  popular.attributes.sales = 10000;
  popular.attributes.praise = 5000;
  EXPECT_GT(RankScore(popular, 0, config), RankScore(poor, 0, config));
}

TEST(RankingTest, PricePenalizes) {
  const RankingConfig config;
  SearchHit cheap = Hit(1, 1.0f);
  cheap.attributes.price_cents = 100;
  SearchHit expensive = Hit(2, 1.0f);
  expensive.attributes.price_cents = 10'000'000;
  EXPECT_GT(RankScore(cheap, 0, config), RankScore(expensive, 0, config));
}

TEST(RankingTest, CategoryMatchBoosts) {
  const RankingConfig config;
  SearchHit match = Hit(1, 1.0f);
  match.category = 7;
  SearchHit other = Hit(2, 1.0f);
  other.category = 3;
  EXPECT_GT(RankScore(match, 7, config), RankScore(other, 7, config));
}

TEST(RankingTest, RankResultsSortsDescendingAndTruncates) {
  std::vector<SearchHit> hits = {Hit(1, 5.f), Hit(2, 0.1f), Hit(3, 1.f)};
  const auto ranked = RankResults(std::move(hits), 0, RankingConfig{}, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].hit.image_id, 2u);
  EXPECT_EQ(ranked[1].hit.image_id, 3u);
  EXPECT_GE(ranked[0].score, ranked[1].score);
}

// ---- Mini-cluster fixture: 2 searchers (disjoint fake partitions), one
// broker, one blender. ----
struct MiniCluster {
  MiniCluster()
      : embedder({.dim = 16, .num_categories = 6, .seed = 3}),
        detector({.num_categories = 6, .top1_accuracy = 1.0}),
        features(embedder, ExtractionCostModel{.mean_micros = 0}) {
    CatalogGenConfig cg;
    cg.num_products = 60;
    cg.num_categories = 6;
    GenerateCatalog(cg, catalog, images);

    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 6;
    fc.index_config.nprobe = 6;
    FullIndexBuilder builder(catalog, images, features, fc);
    quantizer = builder.TrainQuantizer();

    const auto even = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 0;
    };
    const auto odd = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 1;
    };
    searcher_a = std::make_unique<Searcher>("s-a", Searcher::Config{},
                                            features, even);
    searcher_b = std::make_unique<Searcher>("s-b", Searcher::Config{},
                                            features, odd);
    searcher_a_backup = std::make_unique<Searcher>(
        "s-a2", Searcher::Config{}, features, even);
    searcher_a->InstallIndex(builder.Build(quantizer, even));
    searcher_b->InstallIndex(builder.Build(quantizer, odd));
    searcher_a_backup->InstallIndex(builder.Build(quantizer, even));

    broker = std::make_unique<Broker>("b-0", Broker::Config{});
    broker->AddPartition({searcher_a.get(), searcher_a_backup.get()});
    broker->AddPartition({searcher_b.get()});

    Blender::Config bc;
    bc.default_k = 6;
    blender = std::make_unique<Blender>("bl-0", bc, embedder, detector,
                                        std::vector<Broker*>{broker.get()});
  }

  QueryImage QueryFor(ProductId id, std::uint64_t seed = 1) {
    const auto record = catalog.Get(id);
    return QueryImage{id, record->category, seed};
  }

  SyntheticEmbedder embedder;
  CategoryDetector detector;
  ProductCatalog catalog;
  ImageStore images;
  FeatureDb features;
  std::shared_ptr<const CoarseQuantizer> quantizer;
  std::unique_ptr<Searcher> searcher_a;
  std::unique_ptr<Searcher> searcher_a_backup;
  std::unique_ptr<Searcher> searcher_b;
  std::unique_ptr<Broker> broker;
  std::unique_ptr<Blender> blender;
};

TEST(SearcherTest, SearchBeforeInstallThrows) {
  SyntheticEmbedder embedder({.dim = 8, .num_categories = 2, .seed = 1});
  FeatureDb features(embedder, {.mean_micros = 0});
  Searcher searcher("empty", Searcher::Config{}, features,
                    AcceptAllPartitionFilter());
  EXPECT_FALSE(searcher.HasIndex());
  EXPECT_THROW(searcher.SearchLocal(FeatureVector(8, 0.f), 5),
               std::runtime_error);
}

TEST(SearcherTest, SearchAsyncReturnsPartitionResults) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(10);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 1);
  auto hits_a = mini.searcher_a->SearchAsync(query, 10).get();
  auto hits_b = mini.searcher_b->SearchAsync(query, 10).get();
  EXPECT_FALSE(hits_a.empty() && hits_b.empty());
  // All of searcher A's results belong to its partition.
  for (const auto& hit : hits_a) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 0u);
  }
  for (const auto& hit : hits_b) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 1u);
  }
}

TEST(SearcherTest, ApplyUpdateMakesProductSearchable) {
  MiniCluster mini;
  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 5000;
  add.category_id = 2;
  add.attributes = {.sales = 1, .price_cents = 1, .praise = 1};
  for (std::uint32_t k = 0; k < 4; ++k) {
    add.image_urls.push_back(MakeImageUrl(5000, k));
  }
  mini.searcher_a->ApplyUpdate(add);
  mini.searcher_b->ApplyUpdate(add);
  const auto query = mini.embedder.ExtractQuery(5000, 2, 9);
  auto hits_a = mini.searcher_a->SearchLocal(query, 4);
  auto hits_b = mini.searcher_b->SearchLocal(query, 4);
  std::size_t found = 0;
  for (const auto& h : hits_a) found += (h.product_id == 5000u);
  for (const auto& h : hits_b) found += (h.product_id == 5000u);
  EXPECT_GT(found, 0u);
  // Partition split: the 4 images are spread over both searchers, total 4.
  const auto counters_a = mini.searcher_a->update_counters();
  const auto counters_b = mini.searcher_b->update_counters();
  EXPECT_EQ(counters_a.images_added + counters_b.images_added, 4u);
}

TEST(SearcherTest, InstallIndexSwapsUnderSearches) {
  MiniCluster mini;
  // Rebuild searcher A's index and install; old searches still complete.
  FullIndexBuilderConfig fc;
  fc.kmeans.num_clusters = 6;
  FullIndexBuilder builder(mini.catalog, mini.images, mini.features, fc);
  const auto even = [](std::string_view url) { return Fnv1a64(url) % 2 == 0; };
  auto new_index = builder.Build(mini.quantizer, even);
  const std::size_t new_size = new_index->size();
  mini.searcher_a->InstallIndex(std::move(new_index));
  EXPECT_EQ(mini.searcher_a->index_stats().total_images, new_size);
}

TEST(BrokerTest, MergesAcrossPartitions) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  ASSERT_FALSE(hits.empty());
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
  // Top hit should be an image of the queried product.
  EXPECT_EQ(hits[0].product_id, record->id);
}

TEST(BrokerTest, FailsOverToReplica) {
  MiniCluster mini;
  mini.searcher_a->node().set_failed(true);
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  EXPECT_FALSE(hits.empty());
  EXPECT_GE(mini.broker->failovers(), 1u);
  EXPECT_EQ(mini.broker->partition_failures(), 0u);
}

TEST(BrokerTest, PartitionFailureWhenAllReplicasDown) {
  MiniCluster mini;
  mini.searcher_b->node().set_failed(true);  // partition B has no replica
  const auto record = mini.catalog.Get(20);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 2);
  const auto hits = mini.broker->SearchAsync(query, 10).get();
  // Partial results: partition A still answers.
  EXPECT_GE(mini.broker->partition_failures(), 1u);
  for (const auto& hit : hits) {
    EXPECT_EQ(Fnv1a64(hit.image_url) % 2, 0u);
  }
}

TEST(BlenderTest, EndToEndQueryFindsSubject) {
  MiniCluster mini;
  const auto response = mini.blender->Search(mini.QueryFor(33));
  ASSERT_FALSE(response.results.empty());
  EXPECT_LE(response.results.size(), 6u);
  EXPECT_EQ(response.brokers_asked, 1u);
  EXPECT_EQ(response.broker_failures, 0u);
  EXPECT_GT(response.total_micros, 0);
  bool found = false;
  for (const auto& r : response.results) {
    if (r.hit.product_id == 33u) found = true;
  }
  EXPECT_TRUE(found);
  // Scores are descending.
  for (std::size_t i = 1; i < response.results.size(); ++i) {
    EXPECT_GE(response.results[i - 1].score, response.results[i].score);
  }
}

// URLs of 0, 1 and 70 000 bytes, in both the image and the detail slot,
// travel searcher -> broker -> blender inside flat hit lists and arrive
// byte for byte; ids, distances and attributes equal the searchers' own
// SearchLocal answers.
TEST(BlenderTest, UrlsOfAnyLengthArriveByteForByte) {
  const SyntheticEmbedder embedder(
      {.dim = 16, .num_categories = 3, .seed = 5});
  const CategoryDetector detector({.num_categories = 3, .top1_accuracy = 1.0});
  FeatureDb features(embedder, ExtractionCostModel{.mean_micros = 0});
  constexpr ProductId kProducts = 12;
  const auto category_of = [](ProductId pid) {
    return static_cast<CategoryId>(pid % 3);
  };
  // The long URL carries every byte value, NUL included.
  std::string long_url(70'000, '\0');
  for (std::size_t i = 0; i < long_url.size(); ++i) {
    long_url[i] = static_cast<char>(i * 131 + 7);
  }
  const auto image_url_of = [&](ProductId pid) -> std::string {
    switch (pid) {
      case 1: return "";
      case 2: return "i";
      case 3: return long_url;
      default: return MakeImageUrl(pid, 0);
    }
  };
  const auto detail_url_of = [&](ProductId pid) -> std::string {
    switch (pid) {
      case 3: return "d";
      case 4: return "";
      case 5: return long_url + "d";
      default: return "detail/" + std::to_string(pid);
    }
  };
  const auto attributes_of = [](ProductId pid) {
    return ProductAttributes{
        .sales = pid * 7, .price_cents = pid * 100 + 1, .praise = pid};
  };

  std::vector<FeatureVector> sample;
  for (ProductId pid = 1; pid <= kProducts; ++pid) {
    sample.push_back(
        embedder.Extract({MakeImageUrl(pid, 0), pid, category_of(pid)}));
  }
  KMeansConfig kc;
  kc.num_clusters = 2;
  const auto quantizer =
      std::make_shared<const CoarseQuantizer>(TrainKMeans(sample, kc));
  IvfIndexConfig ic;
  ic.nprobe = 2;  // every list: each searcher answers with all its images
  auto even = std::make_unique<IvfIndex>(quantizer, ic);
  auto odd = std::make_unique<IvfIndex>(quantizer, ic);
  for (ProductId pid = 1; pid <= kProducts; ++pid) {
    (pid % 2 == 0 ? *even : *odd)
        .AddImage(image_url_of(pid), pid, category_of(pid), attributes_of(pid),
                  detail_url_of(pid), sample[pid - 1]);
  }
  Searcher s0("url-s0", Searcher::Config{}, features,
              AcceptAllPartitionFilter());
  Searcher s1("url-s1", Searcher::Config{}, features,
              AcceptAllPartitionFilter());
  s0.InstallIndex(std::move(even));
  s1.InstallIndex(std::move(odd));
  Broker broker("url-b", Broker::Config{});
  broker.AddPartition({&s0});
  broker.AddPartition({&s1});
  Blender blender("url-bl", Blender::Config{}, embedder, detector,
                  {&broker});

  for (ProductId subject = 1; subject <= 6; ++subject) {
    const QueryImage query{subject, category_of(subject), subject};
    const FeatureVector feature = embedder.ExtractQuery(
        query.subject_product, query.true_category, query.query_seed);
    std::unordered_map<ImageId, SearchHit> local;
    for (const Searcher* s : {&s0, &s1}) {
      for (SearchHit& hit : s->SearchLocal(feature, kProducts)) {
        local.emplace(hit.image_id, std::move(hit));
      }
    }
    ASSERT_EQ(local.size(), kProducts);

    QueryOptions options;
    options.k = kProducts;
    const QueryResponse response = blender.Search(query, options);
    const std::vector<SearchHit> brokered =
        broker.SearchAsync(feature, kProducts).get();
    ASSERT_EQ(response.results.size(), kProducts);
    ASSERT_EQ(brokered.size(), kProducts);
    std::vector<const SearchHit*> arrived;
    for (const RankedResult& r : response.results) arrived.push_back(&r.hit);
    for (const SearchHit& hit : brokered) arrived.push_back(&hit);
    for (const SearchHit* hit : arrived) {
      const auto it = local.find(hit->image_id);
      ASSERT_NE(it, local.end());
      EXPECT_EQ(hit->distance, it->second.distance);
      EXPECT_EQ(hit->attributes, it->second.attributes);
      EXPECT_EQ(hit->product_id, it->second.product_id);
      EXPECT_EQ(hit->category, it->second.category);
      EXPECT_EQ(hit->attributes, attributes_of(hit->product_id));
      EXPECT_TRUE(hit->image_url == image_url_of(hit->product_id))
          << "image URL of product " << hit->product_id << " arrived with "
          << hit->image_url.size() << " bytes";
      EXPECT_TRUE(hit->detail_url == detail_url_of(hit->product_id))
          << "detail URL of product " << hit->product_id << " arrived with "
          << hit->detail_url.size() << " bytes";
    }
  }
}

TEST(BlenderTest, DetectorOutputPropagates) {
  MiniCluster mini;
  const auto query = mini.QueryFor(12);
  const auto response = mini.blender->Search(query);
  EXPECT_EQ(response.detected_category, query.true_category);  // 100% detector
}

TEST(BlenderTest, AdmissionControlShedsExcessLoad) {
  MiniCluster mini;
  Blender::Config bc;
  bc.threads = 1;
  bc.default_k = 5;
  bc.query_extraction_micros = 20'000;  // slow queries to pile up load
  bc.max_in_flight = 2;
  Blender limited("bl-limited", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{mini.broker.get()});
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        limited.SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const BlenderOverloadedError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + shed, 10u);
  EXPECT_EQ(limited.queries_shed(), shed);
  EXPECT_EQ(limited.in_flight(), 0u);
}

// Regression: a query failing before the fan-out (blender node marked
// failed) must still release its admission slot. The old thread-per-tier
// path threw NodeFailedError before the in-flight guard existed, leaking a
// slot per failure until a recovered blender shed everything forever.
TEST(BlenderTest, FailedNodeReleasesAdmissionSlots) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 5;
  bc.max_in_flight = 1;
  Blender limited("bl-failing", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{mini.broker.get()});
  limited.node().set_failed(true);
  // Sequential, so each failure must release its slot before the next query
  // is admitted: any leak turns the NodeFailedError into an overload shed.
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(limited.Search(mini.QueryFor(1 + i)), NodeFailedError);
  }
  EXPECT_EQ(limited.in_flight(), 0u);
  EXPECT_EQ(limited.queries_shed(), 0u);
  limited.node().set_failed(false);
  // Recovered: with max_in_flight = 1, a single leaked slot would shed this.
  const auto response = limited.Search(mini.QueryFor(7));
  EXPECT_FALSE(response.results.empty());
  EXPECT_EQ(limited.queries_shed(), 0u);
}

// The simulated GPU time waits in the blender pool's delay heap, not on a
// worker: one blender thread overlaps eight 20 ms extractions. Sleeping on
// the thread would serialize them to >= 160 ms.
TEST(BlenderTest, ExtractionDoesNotHoldAWorker) {
  MiniCluster mini;
  Blender::Config bc;
  bc.threads = 1;
  bc.default_k = 5;
  bc.query_extraction_micros = 20'000;
  Blender blender("bl-gpu", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{mini.broker.get()});
  const Stopwatch watch(MonotonicClock::Instance());
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        blender.SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  for (auto& f : futures) EXPECT_FALSE(f.get().results.empty());
  EXPECT_LT(watch.ElapsedMicros(), 80'000);
  EXPECT_EQ(blender.in_flight(), 0u);
}

// A one-thread broker over far-away copies of the mini-cluster's partitions:
// every searcher call spends `hop_micros` on the wire each way, so fan-outs
// stay outstanding long enough to fill the blender's fan-out window.
struct FarTier {
  FarTier(MiniCluster& mini, Micros hop_micros) {
    FullIndexBuilderConfig fc;
    fc.kmeans.num_clusters = 6;
    fc.index_config.nprobe = 6;
    FullIndexBuilder builder(mini.catalog, mini.images, mini.features, fc);
    const auto even = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 0;
    };
    const auto odd = [](std::string_view url) {
      return Fnv1a64(url) % 2 == 1;
    };
    Searcher::Config sc;
    sc.latency = LatencyModel{.base_micros = hop_micros};
    searcher_a =
        std::make_unique<Searcher>("far-a", sc, mini.features, even);
    searcher_b = std::make_unique<Searcher>("far-b", sc, mini.features, odd);
    searcher_a->InstallIndex(builder.Build(mini.quantizer, even));
    searcher_b->InstallIndex(builder.Build(mini.quantizer, odd));
    Broker::Config bc;
    bc.threads = 1;
    bc.registry = &registry;
    broker = std::make_unique<Broker>("far-broker", bc);
    broker->AddPartition({searcher_a.get()});
    broker->AddPartition({searcher_b.get()});
  }

  // Fan-outs this broker started (each records one broker_fanout sample).
  std::uint64_t fanouts_seen() const {
    const Histogram* fanouts = registry.FindHistogram(
        obs::Labeled("jdvs_stage_micros", "stage", "broker_fanout"));
    return fanouts == nullptr ? 0 : fanouts->Count();
  }

  obs::Registry registry;
  std::unique_ptr<Searcher> searcher_a;
  std::unique_ptr<Searcher> searcher_b;
  std::unique_ptr<Broker> broker;
};

std::vector<ImageId> ImageIds(const QueryResponse& response) {
  std::vector<ImageId> ids;
  for (const auto& r : response.results) ids.push_back(r.hit.image_id);
  return ids;
}

// Forty concurrent queries, one broker thread, slow searchers: the blender
// keeps exactly 32 fan-outs outstanding and dispatches the rest as earlier
// fan-outs complete. Every query still gets the answer the fast tier gives.
TEST(BlenderTest, FanOutWindowBoundsOutstandingFanOuts) {
  MiniCluster mini;
  FarTier far(mini, 20'000);
  Blender::Config bc;
  bc.default_k = 5;
  Blender blender("bl-window", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{far.broker.get()});
  constexpr int kQueries = 40;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(
        blender.SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  for (int i = 0; i < kQueries; ++i) {
    const QueryResponse response = futures[i].get();
    const QueryResponse reference =
        mini.blender->Search(mini.QueryFor(1 + i), QueryOptions{.k = 5});
    ASSERT_FALSE(response.results.empty());
    EXPECT_EQ(ImageIds(response), ImageIds(reference)) << "query " << i;
  }
  EXPECT_EQ(far.broker->peak_in_flight(), 32u);
  EXPECT_EQ(far.fanouts_seen(), static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(far.broker->in_flight(), 0u);
  EXPECT_EQ(blender.in_flight(), 0u);
}

// A query whose budget dies while it waits in the window fails typed when
// its turn comes, and its fan-out never leaves the blender.
TEST(BlenderTest, DeadlineExpiredWhileParkedSkipsFanOut) {
  MiniCluster mini;
  FarTier far(mini, 50'000);  // each fan-out stays open >= 100 ms
  Blender::Config bc;
  bc.threads = 1;  // FIFO: the first 32 queries take the window's slots
  bc.default_k = 5;
  Blender blender("bl-parked", bc, mini.embedder, mini.detector,
                  std::vector<Broker*>{far.broker.get()});
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        blender.SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  auto late = blender.SearchAsync(
      mini.QueryFor(40), QueryOptions{.k = 5, .budget_micros = 30'000});
  EXPECT_THROW(late.get(), qos::DeadlineExceededError);
  for (auto& f : futures) EXPECT_FALSE(f.get().results.empty());
  EXPECT_EQ(far.fanouts_seen(), 32u);
  const obs::Counter* broker_deadlines = far.registry.FindCounter(
      obs::Labeled("jdvs_qos_deadline_exceeded_total", "tier", "broker"));
  EXPECT_TRUE(broker_deadlines == nullptr || broker_deadlines->Value() == 0);
  EXPECT_EQ(far.broker->in_flight(), 0u);
  EXPECT_EQ(blender.in_flight(), 0u);
}

TEST(BlenderTest, NoAdmissionLimitByDefault) {
  MiniCluster mini;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        mini.blender->SearchAsync(mini.QueryFor(1 + i), QueryOptions{.k = 5}));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(mini.blender->queries_shed(), 0u);
}

TEST(SearcherTest, SnapshotSaveAndInstallRoundTrip) {
  MiniCluster mini;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jdvs_searcher_snap_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const auto stats_before = mini.searcher_a->index_stats();
  mini.searcher_a->SaveTieredSnapshot(path);

  // A different searcher (same partition) installs from the snapshot.
  Searcher restored("s-restored", Searcher::Config{}, mini.features,
                    mini.searcher_a->partition_filter());
  restored.InstallFromSnapshot(path);
  EXPECT_EQ(restored.index_stats().total_images, stats_before.total_images);

  const auto record = mini.catalog.Get(25);
  const auto query =
      mini.embedder.ExtractQuery(record->id, record->category, 4);
  const auto original = mini.searcher_a->SearchLocal(query, 5);
  const auto loaded = restored.SearchLocal(query, 5);
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].image_id, loaded[i].image_id);
  }
  std::filesystem::remove(path);
}

TEST(BlenderTest, CategoryFilterNarrowsResults) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 10;
  bc.use_category_filter = true;  // detector output scopes the scan
  Blender scoped("bl-scoped", bc, mini.embedder, mini.detector,
                 std::vector<Broker*>{mini.broker.get()});
  const QueryImage query = mini.QueryFor(14, 2);
  const auto response = scoped.Search(query);
  ASSERT_FALSE(response.results.empty());
  for (const auto& r : response.results) {
    EXPECT_EQ(r.hit.category, response.detected_category);
  }
  // The subject is still found (detector is 100% accurate in this fixture).
  bool found = false;
  for (const auto& r : response.results) {
    found |= (r.hit.product_id == 14u);
  }
  EXPECT_TRUE(found);
}

TEST(BlenderTest, ExplicitCategoryFilterInOptions) {
  MiniCluster mini;
  const auto record = mini.catalog.Get(14);
  QueryOptions qo;
  qo.k = 10;
  // Filter to a *different* category: the subject must not appear.
  qo.category_filter = (record->category + 1) % 6;
  const auto response = mini.blender->Search(mini.QueryFor(14, 2), qo);
  for (const auto& r : response.results) {
    EXPECT_EQ(r.hit.category, qo.category_filter);
    EXPECT_NE(r.hit.product_id, 14u);
  }
}

TEST(BlenderTest, MisdetectionWithFilterExcludesSubject) {
  MiniCluster mini;
  // A detector that is always wrong.
  CategoryDetector bad_detector({.num_categories = 6, .top1_accuracy = 0.0});
  Blender::Config bc;
  bc.default_k = 10;
  bc.use_category_filter = true;
  Blender scoped("bl-wrong", bc, mini.embedder, bad_detector,
                 std::vector<Broker*>{mini.broker.get()});
  const auto response = scoped.Search(mini.QueryFor(14, 2));
  for (const auto& r : response.results) {
    EXPECT_NE(r.hit.product_id, 14u);  // filtered out by the wrong category
  }
}

TEST(BlenderTest, ResultCacheServesRepeatQueries) {
  MiniCluster mini;
  Blender::Config bc;
  bc.default_k = 5;
  bc.enable_result_cache = true;
  bc.cache.ttl_micros = 60'000'000;
  Blender cached("bl-cached", bc, mini.embedder, mini.detector,
                 std::vector<Broker*>{mini.broker.get()});
  const QueryImage query = mini.QueryFor(9, /*seed=*/4);
  const auto first = cached.Search(query);
  EXPECT_FALSE(first.from_cache);
  const auto second = cached.Search(query);  // identical photo
  EXPECT_TRUE(second.from_cache);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].hit.image_id, second.results[i].hit.image_id);
  }
  ASSERT_NE(cached.result_cache(), nullptr);
  EXPECT_EQ(cached.result_cache()->stats().hits, 1u);
}

TEST(BlenderTest, CacheDisabledByDefault) {
  MiniCluster mini;
  EXPECT_EQ(mini.blender->result_cache(), nullptr);
  const QueryImage query = mini.QueryFor(9, 4);
  EXPECT_FALSE(mini.blender->Search(query).from_cache);
  EXPECT_FALSE(mini.blender->Search(query).from_cache);
}

TEST(BlenderTest, QueriesServedCounter) {
  MiniCluster mini;
  EXPECT_EQ(mini.blender->queries_served(), 0u);
  mini.blender->Search(mini.QueryFor(1));
  mini.blender->Search(mini.QueryFor(2));
  EXPECT_EQ(mini.blender->queries_served(), 2u);
}

// ---- Observability through the full ClusterBuilder topology ----

ClusterConfig SmallTracedClusterConfig() {
  ClusterConfig config;
  config.num_partitions = 4;
  config.num_brokers = 2;
  config.num_blenders = 1;
  config.hop_latency = {.base_micros = 100};
  config.embedder = {.dim = 16, .num_categories = 6, .seed = 11};
  config.detector = {.num_categories = 6, .top1_accuracy = 1.0};
  config.extraction = {.mean_micros = 0};
  config.kmeans.num_clusters = 6;
  config.ivf.nprobe = 6;
  config.trace_sample_every = 1;
  return config;
}

std::unique_ptr<VisualSearchCluster> BuildSmallCluster(
    const ClusterConfig& config) {
  auto cluster = std::make_unique<VisualSearchCluster>(config);
  CatalogGenConfig cg;
  cg.num_products = 120;
  cg.num_categories = 6;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  return cluster;
}

TEST(ClusterTracingTest, TracedQueryProducesFullSpanTree) {
  const ClusterConfig config = SmallTracedClusterConfig();
  auto cluster = BuildSmallCluster(config);
  const auto record = cluster->catalog().Get(42);
  const QueryResponse response =
      cluster->Query(QueryImage{42, record->category, 1});
  ASSERT_NE(response.trace_id, 0u);

  const auto spans = cluster->trace_sink().SpansFor(response.trace_id);
  std::size_t roots = 0, brokers = 0, scans = 0, extracts = 0, ranks = 0;
  for (const auto& span : spans) {
    if (span.name == "query") ++roots;
    if (span.name == "broker.search") ++brokers;
    if (span.name == "searcher.scan") ++scans;
    if (span.name == "extract") ++extracts;
    if (span.name == "rank") ++ranks;
    EXPECT_GE(span.DurationMicros(), 0);
    EXPECT_TRUE(span.ok) << span.name << ": " << span.status;
  }
  // Exactly one blender root, one broker span per broker, one searcher span
  // per probed partition.
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(brokers, config.num_brokers);
  EXPECT_EQ(scans, config.num_partitions);
  EXPECT_EQ(extracts, 1u);
  EXPECT_EQ(ranks, 1u);

  // The root and broker spans cover real work (fan-out over >=100us hops).
  for (const auto& span : spans) {
    if (span.name == "query" || span.name == "broker.search") {
      EXPECT_GT(span.DurationMicros(), 0) << span.name;
    }
    if (span.name != "query") {
      EXPECT_NE(span.parent_span_id, 0u) << span.name;
    }
  }

  const std::string tree = cluster->trace_sink().Render(response.trace_id);
  EXPECT_NE(tree.find("query @blender-0"), std::string::npos);
  EXPECT_NE(tree.find("broker.search @broker-"), std::string::npos);
  EXPECT_NE(tree.find("searcher.scan @searcher-p"), std::string::npos);
  cluster->Stop();
}

TEST(ClusterTracingTest, SamplingTracesEveryNthQuery) {
  ClusterConfig config = SmallTracedClusterConfig();
  config.trace_sample_every = 2;
  auto cluster = BuildSmallCluster(config);
  std::vector<bool> traced;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto record = cluster->catalog().Get(1 + i);
    const auto response =
        cluster->Query(QueryImage{1 + i, record->category, i});
    traced.push_back(response.trace_id != 0);
  }
  EXPECT_EQ(traced, std::vector<bool>({true, false, true, false}));
  cluster->Stop();
}

TEST(ClusterTracingTest, TracedUpdateReachesEveryPartition) {
  const ClusterConfig config = SmallTracedClusterConfig();
  auto cluster = BuildSmallCluster(config);

  ProductUpdateMessage add;
  add.type = UpdateType::kAddProduct;
  add.product_id = 9001;
  add.category_id = 3;
  add.attributes = {.sales = 1, .price_cents = 999, .praise = 1};
  for (std::uint32_t k = 0; k < 4; ++k) {
    add.image_urls.push_back(MakeImageUrl(9001, k));
  }
  cluster->PublishUpdate(add);
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  // Find the update's root span and its rt.apply children: one per searcher
  // (every partition consumes the topic).
  std::uint64_t update_trace = 0;
  for (const auto& span : cluster->trace_sink().Collect()) {
    if (span.name == "update") update_trace = span.trace_id;
  }
  ASSERT_NE(update_trace, 0u);
  std::size_t applies = 0;
  for (const auto& span : cluster->trace_sink().SpansFor(update_trace)) {
    if (span.name == "rt.apply") ++applies;
  }
  EXPECT_EQ(applies, cluster->num_searchers());
  cluster->Stop();
}

TEST(ClusterObservabilityTest, RegistryMatchesComponentCounters) {
  ClusterConfig config = SmallTracedClusterConfig();
  config.trace_sample_every = 0;
  config.replicas_per_partition = 2;
  config.num_blenders = 1;
  config.blender_result_cache = true;
  config.blender_cache.ttl_micros = 60'000'000;
  auto cluster = BuildSmallCluster(config);

  // Provoke one failover (replica 0 of partition 0 down), one cache hit
  // (identical query photo twice), and a few real-time updates.
  cluster->searcher(0, 0).node().set_failed(true);
  const auto record = cluster->catalog().Get(7);
  const QueryImage query{7, record->category, 5};
  cluster->Query(query);
  cluster->Query(query);

  for (int i = 0; i < 3; ++i) {
    ProductUpdateMessage update;
    update.type = UpdateType::kAttributeUpdate;
    update.product_id = 10 + i;
    update.attributes = {.sales = 100, .price_cents = 500, .praise = 10};
    cluster->PublishUpdate(std::move(update));
  }
  ASSERT_TRUE(cluster->WaitForUpdatesDrained());

  const obs::Registry& registry = cluster->registry();

  // Broker failovers: registry series sum == component getter sum, >= 1.
  std::uint64_t getter_failovers = 0, registry_failovers = 0;
  for (std::size_t b = 0; b < cluster->num_brokers(); ++b) {
    getter_failovers += cluster->broker(b).failovers();
    const obs::Counter* counter = registry.FindCounter(obs::Labeled(
        "jdvs_broker_failovers_total", "broker", cluster->broker(b).name()));
    ASSERT_NE(counter, nullptr);
    registry_failovers += counter->Value();
  }
  EXPECT_GE(getter_failovers, 1u);
  EXPECT_EQ(registry_failovers, getter_failovers);

  // Cache hits: registry mirror == QueryCache::stats().
  ASSERT_NE(cluster->blender(0).result_cache(), nullptr);
  const auto cache_stats = cluster->blender(0).result_cache()->stats();
  EXPECT_EQ(cache_stats.hits, 1u);
  const obs::Counter* hits = registry.FindCounter(
      obs::Labeled("jdvs_cache_hits_total", "owner", "blender-0"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->Value(), cache_stats.hits);

  // Real-time updates: per-searcher registry series sum == aggregate getter.
  std::uint64_t registry_updates = 0;
  for (std::size_t i = 0; i < cluster->num_searchers(); ++i) {
    const obs::Counter* counter = registry.FindCounter(
        obs::Labeled("jdvs_realtime_updates_total", "searcher",
                     cluster->searcher_flat(i).name()));
    ASSERT_NE(counter, nullptr);
    registry_updates += counter->Value();
  }
  EXPECT_EQ(registry_updates, cluster->TotalUpdateCounters().TotalMessages());
  EXPECT_GT(registry_updates, 0u);

  // And the exposition dump carries all three families.
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE jdvs_broker_failovers_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("jdvs_cache_hits_total{owner=\"blender-0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jdvs_realtime_updates_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jdvs_stage_micros histogram"), std::string::npos);
  EXPECT_NE(text.find("jdvs_stage_micros_bucket{"), std::string::npos);
  cluster->Stop();
}

}  // namespace
}  // namespace jdvs
