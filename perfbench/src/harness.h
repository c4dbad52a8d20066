// The jdvs benchmark harness: workload definitions, cluster set-up, the
// open-loop query and update streams, the correctness and freshness gates,
// and the per-layer probes. main.cc strings them together.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "jdvs/jdvs.h"
#include "ladder.h"
#include "open_loop.h"
#include "spans.h"

namespace perfbench {

// The harness is a client of the whole jdvs API.
using namespace jdvs;  // NOLINT(build/namespaces)

// ---------------------------------------------------------------- workloads

// Every workload runs the paper's Fig. 13 testbed (workloads.cc) at the
// same nominal query rate; they differ in what runs beside the queries.
inline constexpr double kNominalQps = 900.0;

struct WorkloadSpec {
  std::string name;
  double update_qps = 0.0;  // background update stream (0 = none)
  int ladder_start = 10;    // rung where the capacity search starts (its guess)
  // The traced run ends with a tiered-serving phase (the tier layer's
  // metrics).
  bool tier_probe = false;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Filter classes the index probes run: none, ~0.1 % selective (own
// category and the cheapest 5 %), ~50 % (the lower half by sales).
enum class FilterClass : std::uint8_t { kUnfiltered, kNarrow, kBroad };

// Set-up phase timings of one cluster build (seconds).
struct SetupTimes {
  double catalog_s = 0, train_s = 0, build_s = 0, start_s = 0;
  double Total() const { return catalog_s + train_s + build_s + start_s; }
};

// A built, started cluster plus what the query generator needs from it.
struct Testbed {
  std::unique_ptr<VisualSearchCluster> cluster;
  std::vector<std::pair<ProductId, CategoryId>> targets;
  std::vector<double> zipf_cdf;  // empty = uniform
  std::uint64_t narrow_price_max = 0;  // ~5% price quantile
  std::uint64_t broad_sales_max = 0;   // ~50% sales quantile
  std::uint64_t seed = 0;              // the run's --seed
};

// Builds and starts the testbed cluster from `seed`.
std::unique_ptr<Testbed> BuildTestbed(std::uint64_t seed, SetupTimes* times);

// Switches query sampling to Zipf(`exponent`) popularity over products in
// product-id order, so the hot head is spread over every category.
void UseZipfPopularity(Testbed& bed, double exponent);

// Saves every partition as a v5 tiered snapshot under `dir` and serves it
// through InstallFromTieredSnapshot with a resident budget of
// `budget_share` of the partition's payload. Returns (save s, load s).
std::pair<double, double> ServeTiered(Testbed& bed, double budget_share,
                                      const std::string& dir);

// Deterministic query set drawn from the workload's traffic model.
std::vector<QueryImage> MakeQueries(const Testbed& bed, std::size_t count,
                                    std::uint64_t seed);

// ---------------------------------------------------------- query streams

struct PhaseResult {
  RequestBook::Summary summary;
  std::int64_t start_us = 0, end_us = 0;  // arrival window
  std::int64_t first_due_us = 0, last_done_us = 0;
  std::vector<std::pair<std::int64_t, double>> inflight;
  std::vector<QueryImage> queries;
  std::vector<std::vector<RankedResult>> answers;  // when kept
  double rate_qps = 0;
};

struct PhaseOptions {
  double rate_qps = 0;
  std::int64_t window_us = 0;
  std::uint64_t seed = 0;
  bool keep_answers = false;
  SpanRecorder* spans = nullptr;  // records client.query / blender.call
};

PhaseResult RunQueryPhase(Testbed& bed, const PhaseOptions& options);
// (due time, latency from due) of every completed request.
std::vector<std::pair<std::int64_t, double>> LatencySeries(
    const RequestBook::Summary& summary);
RungResult ToRung(const PhaseResult& phase);

// ---------------------------------------------------------- update stream

struct UpdateStats {
  std::uint64_t published = 0;
  std::uint64_t late = 0;  // not visible on every searcher within the limit
  std::vector<double> visible_us;        // due -> every searcher applied
  std::vector<std::int64_t> visible_due_us;  // due time of each of those
  std::vector<double> first_visible_us;  // due -> first searcher applied
  std::vector<double> publish_us;        // PublishUpdate call time
  std::vector<ProductUpdateMessage> messages;  // as published
};

// Open-loop publisher of Table 1-mix updates on its own thread; the same
// thread polls every searcher's applied_sequence() to time visibility.
class UpdateStream {
 public:
  UpdateStream(Testbed& bed, double rate_qps, std::uint64_t seed,
               std::int64_t visibility_limit_us);
  ~UpdateStream();
  UpdateStream(const UpdateStream&) = delete;
  UpdateStream& operator=(const UpdateStream&) = delete;

  // Starts publishing; runs until Stop(). Messages are generated up front.
  void Start(std::int64_t max_duration_us);
  // Stops publishing and waits (bounded by the visibility limit) for every
  // published update to become visible.
  UpdateStats Stop();

 private:
  void Loop(std::int64_t max_duration_us);

  Testbed& bed_;
  const double rate_qps_;
  const std::uint64_t seed_;
  const std::int64_t limit_us_;
  std::vector<ProductUpdateMessage> pool_;
  std::atomic<bool> stop_{false};
  UpdateStats stats_;  // written by the loop thread, read after join
  std::thread thread_;
};

// ------------------------------------------------------------------- gates

struct GateReport {
  std::vector<std::string> violations;
  std::uint64_t checks = 0;
  void Fail(std::string what) { violations.push_back(std::move(what)); }
  bool ok() const { return violations.empty(); }
};

// Top-k through every broker (distance order, merged), the retrieval path.
std::vector<SearchHit> BrokerTopK(VisualSearchCluster& cluster,
                                  const FeatureVector& feature, std::size_t k);
// Exact top-k: union of every partition's exhaustive scan.
std::vector<SearchHit> ExactTopK(VisualSearchCluster& cluster,
                                 const FeatureVector& feature, std::size_t k);

// recall@10 of the broker path against ExactTopK over `queries`.
double MeasureRecall(Testbed& bed, const std::vector<QueryImage>& queries,
                     GateReport& report);
// Recomputes every returned pair's distance from the FeatureDb.
void CheckAnswers(Testbed& bed, const PhaseResult& phase, GateReport& report);
// Image ids of the broker-path top-10 per query (tiered equality gate).
std::vector<std::vector<ImageId>> AnswerIds(Testbed& bed,
                                            const std::vector<QueryImage>& q);
// After an update stream drained: sampled added images are retrievable by
// their own feature, removed products are never returned.
void CheckFreshness(Testbed& bed, const UpdateStats& updates,
                    std::uint64_t seed, GateReport& report);

// ------------------------------------------------------------------ layers

// Per-layer probes run on one thread beside the traced query phase.
class LayerProbe {
 public:
  LayerProbe(Testbed& bed, SpanRecorder& spans, std::uint64_t seed);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;
  void Start();
  void Stop();
  // index.blocks_* accounting from SearchLocal's FilterScanStats.
  std::uint64_t blocks_scanned() const { return blocks_scanned_; }
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }
  std::uint64_t index_queries() const { return index_queries_; }

 private:
  void Loop();
  Testbed& bed_;
  SpanRecorder& spans_;
  std::vector<QueryImage> queries_;
  std::atomic<bool> stop_{false};
  std::uint64_t blocks_scanned_ = 0, blocks_skipped_ = 0, index_queries_ = 0;
  std::thread thread_;
};

// Resolved distance kernel over a partition-shaped buffer: ns per row and
// computed GB/s.
std::pair<double, double> MeasureScanKernel(std::size_t rows, std::size_t dim,
                                            std::int64_t budget_us);

}  // namespace perfbench
