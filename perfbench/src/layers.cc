// Per-layer probes for the traced run. Each probe cycle times one call into
// the searcher (through its node, so the charged hops are included), the
// index behind it (SearchLocal, no node) for each filter class, and the
// broker that owns the partition, and records them as spans of one trace.
#include <chrono>
#include <random>

#include "harness.h"
#include "stats.h"
#include "vecmath/aligned.h"
#include "vecmath/kernels.h"

namespace perfbench {
namespace {

FilterExpression FilterFor(const Testbed& bed, const QueryImage& q,
                           FilterClass c) {
  FilterExpression f;
  if (c == FilterClass::kNarrow) {
    f.WithCategory(q.true_category)
        .WithMax(FilterField::kPriceCents, bed.narrow_price_max);
  } else if (c == FilterClass::kBroad) {
    f.WithMax(FilterField::kSales, bed.broad_sales_max);
  }
  return f;
}

const char* IndexSpanName(FilterClass c) {
  switch (c) {
    case FilterClass::kUnfiltered: return "index.search.unfiltered";
    case FilterClass::kNarrow: return "index.search.narrow";
    case FilterClass::kBroad: return "index.search.broad";
  }
  return "index.search.unfiltered";
}

}  // namespace

LayerProbe::LayerProbe(Testbed& bed, SpanRecorder& spans, std::uint64_t seed)
    : bed_(bed), spans_(spans), queries_(MakeQueries(bed, 4096, seed)) {}

LayerProbe::~LayerProbe() { Stop(); }

void LayerProbe::Start() {
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void LayerProbe::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void LayerProbe::Loop() {
  VisualSearchCluster& cluster = *bed_.cluster;
  const std::size_t partitions = cluster.num_searchers();
  constexpr std::size_t kFetch = 20;  // what a blender asks brokers for (2k)
  for (std::size_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    const QueryImage& q = queries_[i % queries_.size()];
    const FeatureVector f = cluster.embedder().ExtractQuery(
        q.subject_product, q.true_category, q.query_seed);
    const std::size_t p = i % partitions;
    Searcher& searcher = cluster.searcher_flat(p);
    Broker& broker = cluster.broker(p % cluster.num_brokers());
    const std::uint64_t trace = spans_.NextId();
    const std::uint64_t root = spans_.NextId();
    const std::int64_t cycle_start = SteadyNowMicros();

    std::int64_t t0 = SteadyNowMicros();
    searcher.SearchAsync(f, kFetch).get();
    std::int64_t t1 = SteadyNowMicros();
    spans_.Record("searcher.call", t0, t1, trace, root);

    for (FilterClass c : {FilterClass::kUnfiltered, FilterClass::kNarrow,
                          FilterClass::kBroad}) {
      const FilterExpression filter = FilterFor(bed_, q, c);
      FilterScanStats stats;
      t0 = SteadyNowMicros();
      searcher.SearchLocal(f, kFetch, 0, kNoCategoryFilter, filter, &stats);
      t1 = SteadyNowMicros();
      spans_.Record(IndexSpanName(c), t0, t1, trace, root);
      blocks_scanned_ += stats.blocks_scanned;
      blocks_skipped_ += stats.blocks_skipped;
      ++index_queries_;
    }

    t0 = SteadyNowMicros();
    broker.SearchAsync(f, kFetch).get();
    t1 = SteadyNowMicros();
    spans_.Record("broker.call", t0, t1, trace, root);
    spans_.Record("probe", cycle_start, t1, trace, 0, root);
    // Probing is sampling, not load: pace to ~200 cycles/s at most.
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::microseconds(cycle_start + 5000)));
  }
}

std::pair<double, double> MeasureScanKernel(std::size_t rows, std::size_t dim,
                                            std::int64_t budget_us) {
  const DistanceKernels& k = Kernels();
  const std::size_t stride = (dim + 15) / 16 * 16;
  AlignedArray<float> base = AllocateAligned<float>(rows * stride);
  AlignedArray<float> query = AllocateAligned<float>(stride);
  std::vector<float> out(rows);
  std::mt19937 rng(7);
  std::normal_distribution<float> g;
  for (std::size_t i = 0; i < rows * stride; ++i) base[i] = g(rng);
  for (std::size_t i = 0; i < stride; ++i) query[i] = g(rng);
  // Median of repeated timed sweeps over the buffer.
  std::vector<double> ns_per_row;
  volatile float sink = 0;
  const std::int64_t end = SteadyNowMicros() + budget_us;
  while (SteadyNowMicros() < end || ns_per_row.size() < 5) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 8; ++rep) {
      k.l2sq_scan(query.get(), base.get(), stride, dim, rows, out.data());
      sink = sink + out[rep % rows];
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ns_per_row.push_back(ns / (8.0 * static_cast<double>(rows)));
  }
  const double per_row = Median(ns_per_row);
  // Computed bytes: one row of `dim` floats per distance.
  const double gb_per_s =
      static_cast<double>(dim * sizeof(float)) / per_row;  // bytes/ns = GB/s
  return {per_row, gb_per_s};
}

}  // namespace perfbench
