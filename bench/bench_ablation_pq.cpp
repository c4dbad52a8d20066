// Ablation — product quantization (reference [19] of the paper).
//
// At the paper's 100-billion-image scale, raw float features are
// prohibitively large; PQ compression is what makes per-searcher in-memory
// indexes feasible. This harness compares the flat IVF index (raw floats)
// against IVF-PQ variants on the same data: bytes per vector, recall@10
// against exact search, and per-query latency — the memory/recall/latency
// triangle a deployment picks its operating point in.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace jdvs;
  using namespace jdvs::bench;

  PrintHeader("Ablation: IVF (raw floats) vs IVF-PQ compression",
              "PQ makes the '100 billion images' scale feasible: 16-32x "
              "smaller vectors for a modest recall cost");

  const SyntheticEmbedder embedder({.dim = 64, .num_categories = 50,
                                    .seed = 41});
  constexpr std::size_t kProducts = 10000;
  constexpr std::size_t kImagesPerProduct = 5;

  // Shared training sample and coarse quantizer.
  std::vector<FeatureVector> training;
  Rng rng(1);
  for (int i = 0; i < 4096; ++i) {
    const ProductId pid = 1 + rng.Below(kProducts);
    training.push_back(embedder.Extract(
        {MakeImageUrl(pid, 0), pid, static_cast<CategoryId>(pid % 50)}));
  }
  KMeansConfig kc;
  kc.num_clusters = 64;
  auto quantizer = std::make_shared<CoarseQuantizer>(TrainKMeans(training, kc));

  // Flat IVF.
  IvfIndexConfig flat_config;
  flat_config.nprobe = 8;
  IvfIndex flat(quantizer, flat_config);

  // IVF-PQ variants: M=8 (8 B/vec) and M=16 (16 B/vec), plus M=16 with
  // exact re-ranking.
  const auto make_pq = [&](std::size_t m) {
    ProductQuantizerConfig pc;
    pc.num_subspaces = m;
    pc.codebook_size = 256;
    return std::make_shared<ProductQuantizer>(
        ProductQuantizer::Train(training, pc));
  };
  auto pq8 = make_pq(8);
  auto pq16 = make_pq(16);
  IvfIndexConfig pq_config;
  pq_config.nprobe = 8;
  IvfIndex ivfpq8(quantizer, pq_config, pq8);
  IvfIndex ivfpq16(quantizer, pq_config, pq16);
  IvfIndexConfig rerank_config = pq_config;
  rerank_config.rerank_candidates = 100;
  IvfIndex ivfpq16r(quantizer, rerank_config, pq16);

  std::printf("indexing %zu images...\n",
              kProducts * kImagesPerProduct);
  const ProductAttributes attrs{.sales = 3, .price_cents = 500, .praise = 1};
  for (ProductId pid = 1; pid <= kProducts; ++pid) {
    const auto cat = static_cast<CategoryId>(pid % 50);
    for (std::uint32_t k = 0; k < kImagesPerProduct; ++k) {
      const std::string url = MakeImageUrl(pid, k);
      const auto feature = embedder.Extract({url, pid, cat});
      flat.AddImage(url, pid, cat, attrs, "", feature);
      ivfpq8.AddImage(url, pid, cat, attrs, "", feature);
      ivfpq16.AddImage(url, pid, cat, attrs, "", feature);
      ivfpq16r.AddImage(url, pid, cat, attrs, "", feature);
    }
  }

  // Ground truth from the flat index's exhaustive scan.
  constexpr int kQueries = 200;
  std::vector<FeatureVector> queries;
  std::vector<std::vector<ImageId>> truth(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    const ProductId pid = 1 + rng.Below(kProducts);
    queries.push_back(
        embedder.ExtractQuery(pid, static_cast<CategoryId>(pid % 50), q));
    for (const auto& hit : flat.SearchExhaustive(queries.back(), 10)) {
      truth[q].push_back(hit.image_id);
    }
  }

  const auto& clock = MonotonicClock::Instance();
  const auto evaluate = [&](auto&& search, const char* label,
                            double bytes_per_vec) {
    double recall_sum = 0.0;
    Histogram latency;
    for (int q = 0; q < kQueries; ++q) {
      const Micros start = clock.NowMicros();
      const auto hits = search(queries[q]);
      latency.Record(clock.NowMicros() - start);
      int found = 0;
      for (const ImageId id : truth[q]) {
        for (const auto& hit : hits) {
          if (hit.image_id == id) {
            ++found;
            break;
          }
        }
      }
      recall_sum += static_cast<double>(found) / 10.0;
    }
    std::printf("%-24s %12.1f %12.3f %12.1f\n", label, bytes_per_vec,
                recall_sum / kQueries, latency.Mean());
  };

  std::printf("\n%-24s %12s %12s %12s\n", "index", "bytes/vec", "recall@10",
              "mean us");
  evaluate([&](const FeatureVector& q) { return flat.Search(q, 10); },
           "IVF flat (float32)", 64 * sizeof(float));
  evaluate([&](const FeatureVector& q) { return ivfpq8.Search(q, 10); },
           "IVF-PQ M=8", 8);
  evaluate([&](const FeatureVector& q) { return ivfpq16.Search(q, 10); },
           "IVF-PQ M=16", 16);
  evaluate([&](const FeatureVector& q) { return ivfpq16r.Search(q, 10); },
           "IVF-PQ M=16 + rerank", 16 + 64 * sizeof(float));

  const auto stats = ivfpq16.Stats();
  std::printf("\nIVF-PQ M=16 code store: %.1f MB for %zu vectors "
              "(flat floats would need %.1f MB)\n",
              static_cast<double>(stats.code_memory_bytes) / 1e6,
              stats.total_images,
              static_cast<double>(stats.total_images * 64 * sizeof(float)) /
                  1e6);
  return 0;
}
