// End-to-end tests for the performance-diagnosis layer: the always-on
// flight recorder catching an *unsampled* SLO breach, critical-path
// attribution pointing at an injected-slow stage, exemplars linking latency
// buckets back to flight records, QoS step-ups freezing the ring, and the
// slow-query log's critical-path summary line.
#include <gtest/gtest.h>

#include <string>

#include "jdvs/jdvs.h"

namespace jdvs {
namespace {

ClusterConfig SmallClusterConfig() {
  ClusterConfig config;
  config.num_partitions = 2;
  config.num_brokers = 1;
  config.num_blenders = 1;
  config.embedder = {.dim = 16, .num_categories = 4, .seed = 11};
  config.detector = {.num_categories = 4, .top1_accuracy = 1.0};
  config.kmeans.num_clusters = 4;
  config.ivf.nprobe = 4;
  config.hop_latency = {.base_micros = 100, .jitter_median_micros = 50,
                        .sigma = 0.5};
  return config;
}

void Populate(VisualSearchCluster& cluster) {
  CatalogGenConfig cg;
  cg.num_products = 60;
  cg.num_categories = 4;
  GenerateCatalog(cg, cluster.catalog(), cluster.image_store(),
                  &cluster.features());
  cluster.BuildAndInstallFullIndexes();
  cluster.Start();
}

QueryResponse RunQuery(VisualSearchCluster& cluster, std::size_t i) {
  const ProductId product = 1 + static_cast<ProductId>(i * 7) % 60;
  const auto record = cluster.catalog().Get(product);
  return cluster.Query(QueryImage{product, record->category, i + 1},
                       QueryOptions{.k = 5});
}

// The headline scenario: tracing is OFF (sample_every = 0), so the sampled
// tracer cannot see anything — yet an injected-slow searcher pushes one
// query over the SLO, the flight recorder freezes a dump, the record's
// critical path names the slow stage, the tracez page shows it, and the
// query-total latency histogram carries an exemplar whose flight ref leads
// back to the exact record.
TEST(DiagnosisTest, UnsampledSloBreachIsCapturedAndAttributed) {
  FaultInjector injector(23);
  ClusterConfig config = SmallClusterConfig();
  config.trace_sample_every = 0;  // tracing off: the recorder is the net
  config.flight_slo_micros = 20'000;
  config.fault_injector = &injector;
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.flight_recorder(), nullptr);

  // Fault-free traffic: well under the 20ms SLO, nothing dumps.
  for (std::size_t i = 0; i < 10; ++i) RunQuery(cluster, i);
  EXPECT_TRUE(cluster.flight_recorder()->armed());
  EXPECT_EQ(cluster.flight_recorder()->dumps_taken(), 0u);
  EXPECT_EQ(cluster.flight_recorder()->recorded(), 10u);

  // Gray failure: partition 0's only replica turns slow (not dead).
  injector.SetNode(cluster.searcher(0, 0).name(),
                   LinkFaults{.added_latency_micros = 40'000});
  const QueryResponse slow = RunQuery(cluster, 99);
  EXPECT_EQ(slow.trace_id, 0u) << "query must be unsampled";
  EXPECT_GT(slow.total_micros, 20'000);

  // The breach froze a once-only dump with the breaching query inside.
  ASSERT_EQ(cluster.flight_recorder()->dumps_taken(), 1u);
  EXPECT_FALSE(cluster.flight_recorder()->armed());
  const auto dumps = cluster.flight_recorder()->dumps();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].reason.find("slo breach"), std::string::npos);

  const obs::FlightRecord* culprit = nullptr;
  for (const auto& record : dumps[0].records) {
    if (culprit == nullptr || record.total_micros > culprit->total_micros) {
      culprit = &record;
    }
  }
  ASSERT_NE(culprit, nullptr);
  EXPECT_GT(culprit->total_micros, 20'000);
  EXPECT_EQ(culprit->trace_id, 0u);

  // Critical-path attribution names the injected-slow stage.
  const auto report = obs::CriticalPathFromFlightRecord(*culprit);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.ByStage()[0].first, "searcher_scan") << report.Summary();
  EXPECT_GT(report.ByStage()[0].second, 30'000);

  // The latency histogram's bucket links back to this flight record even
  // though the query has no trace id.
  const Histogram* total = cluster.registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "query_total"));
  ASSERT_NE(total, nullptr);
  const auto exemplar = total->ExemplarNear(slow.total_micros);
  ASSERT_TRUE(exemplar.has_value());
  EXPECT_EQ(exemplar->trace_id, 0u);
  EXPECT_EQ(exemplar->ref, culprit->ordinal);
  // ...and the exposition renders it as a flight="N" annotation.
  EXPECT_NE(cluster.registry().ExpositionText().find(
                "flight=\"" + std::to_string(culprit->ordinal) + "\""),
            std::string::npos);

  // tracez surfaces the anomaly with its attribution.
  const std::string tracez = cluster.introspection().TraceZ();
  EXPECT_NE(tracez.find("slo breach"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("searcher_scan"), std::string::npos) << tracez;
  const std::string statusz = cluster.introspection().StatusZ();
  EXPECT_NE(statusz.find("flight recorder"), std::string::npos);
  EXPECT_NE(statusz.find("armed=no"), std::string::npos) << statusz;

  // Rearm: the next anomaly dumps again.
  cluster.flight_recorder()->Rearm();
  const QueryResponse again = RunQuery(cluster, 100);
  EXPECT_GT(again.total_micros, 20'000);
  EXPECT_EQ(cluster.flight_recorder()->dumps_taken(), 2u);
  cluster.Stop();
}

// A QoS degradation step-up is an anomaly trigger too: when the load
// controller climbs the ladder, the recorder freezes the queries that drove
// it there.
TEST(DiagnosisTest, QosStepUpFreezesFlightRing) {
  ClusterConfig config = SmallClusterConfig();
  config.trace_sample_every = 0;
  // Aggressive triggers so plain traffic counts as overload: every query's
  // latency (ms-scale hops) exceeds the 500us p99 threshold.
  config.load_control.p99_degrade_micros = 500;
  config.load_control.window_micros = 10'000;
  config.load_control.min_window_samples = 4;
  // Keep the SLO out of the way: only the step-up may dump.
  config.flight_slo_micros = 10'000'000;
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.load_controller(), nullptr);
  ASSERT_NE(cluster.flight_recorder(), nullptr);

  for (std::size_t i = 0; i < 60 && cluster.load_controller()->steps_up() == 0;
       ++i) {
    RunQuery(cluster, i);
  }
  ASSERT_GE(cluster.load_controller()->steps_up(), 1u);
  const auto dumps = cluster.flight_recorder()->dumps();
  ASSERT_GE(dumps.size(), 1u);
  EXPECT_NE(dumps[0].reason.find("qos degradation stepped up"),
            std::string::npos);
  EXPECT_FALSE(dumps[0].records.empty());
  cluster.Stop();
}

// With tracing on, every sampled query's span tree is folded into the
// critical-path histograms, the slow log's entries carry a critical-path
// summary line, and the sampled scan histogram links exemplars to traces.
TEST(DiagnosisTest, SampledQueriesFeedCriticalPathAndSlowLog) {
  ClusterConfig config = SmallClusterConfig();
  config.trace_sample_every = 1;
  config.slow_query_threshold_micros = 1;  // every query is "slow"
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.critical_paths(), nullptr);

  for (std::size_t i = 0; i < 8; ++i) {
    const QueryResponse response = RunQuery(cluster, i);
    EXPECT_NE(response.trace_id, 0u);
  }
  EXPECT_GE(cluster.critical_paths()->observed(), 8u);

  // Per-stage critical-path histograms exist and the table renders them.
  const Histogram* scan = cluster.registry().FindHistogram(
      obs::Labeled("jdvs_critical_path_micros", "stage", "searcher.scan"));
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(scan->Count(), 0u);
  const std::string table =
      obs::RenderCriticalPathTable(cluster.registry());
  EXPECT_NE(table.find("searcher.scan"), std::string::npos) << table;

  // Slow-log entries carry the one-line attribution.
  const auto worst = cluster.slow_log().Worst();
  ASSERT_FALSE(worst.empty());
  EXPECT_FALSE(worst.front().critical_path.empty());
  EXPECT_NE(cluster.slow_log().Render().find("critical path: "),
            std::string::npos);

  // Sampled scans leave trace-linked exemplars on the scan-stage histogram.
  const Histogram* scan_stage = cluster.registry().FindHistogram(
      obs::Labeled("jdvs_stage_micros", "stage", "searcher_scan"));
  ASSERT_NE(scan_stage, nullptr);
  bool linked = false;
  for (const auto& exemplar : scan_stage->Exemplars()) {
    if (exemplar.trace_id != 0) linked = true;
  }
  EXPECT_TRUE(linked);
  cluster.Stop();
}

// The blender's submit-to-start gap splits into the front-end hop (kWire,
// up to the blender task's due time) and pool queue wait (kQueueWait, after
// it). Their sum is the old lumped queue-wait figure: the gap between the
// flight record's submit time and the start of the query's root span.
TEST(DiagnosisTest, WireAndQueueWaitSplitTheLeadIn) {
  ClusterConfig config = SmallClusterConfig();
  config.trace_sample_every = 1;
  config.hop_latency = {.base_micros = 2'000, .jitter_median_micros = 0};
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.flight_recorder(), nullptr);
  for (std::size_t i = 0; i < 6; ++i) RunQuery(cluster, i);

  const auto records = cluster.flight_recorder()->Snapshot();
  ASSERT_EQ(records.size(), 6u);
  for (const obs::FlightRecord& record : records) {
    ASSERT_NE(record.trace_id, 0u);
    Micros root_start = -1;
    for (const auto& span : cluster.trace_sink().SpansFor(record.trace_id)) {
      if (span.parent_span_id == 0) root_start = span.start_micros;
    }
    ASSERT_GE(root_start, record.start_micros);
    const Micros lumped = root_start - record.start_micros;
    const Micros wire = record.stage(obs::FlightStage::kWire);
    const Micros queue = record.stage(obs::FlightStage::kQueueWait);
    // The 2 ms front-end hop is wire time, not queue wait.
    EXPECT_GE(wire, 2'000);
    // Clock tolerance: the root span's clock read comes a few instructions
    // later (more if the thread is preempted in between on a loaded host).
    EXPECT_LE(wire + queue, lumped);
    EXPECT_LE(lumped - (wire + queue), 5'000);
  }
  // The critical-path table carries the wire row.
  const std::string table = obs::RenderCriticalPathTable(cluster.registry());
  EXPECT_NE(table.find("wire"), std::string::npos) << table;
  cluster.Stop();
}

// Extraction's simulated GPU time waits in the blender pool's delay heap.
// kExtract still covers the whole extraction; the pool wait after its due
// time goes to kFanOutWait, so the disjoint stages after the lead-in never
// add up to more than the query's response time, and the critical-path
// table gets a fanout_wait row.
TEST(DiagnosisTest, ExtractionAndFanOutWaitStayDisjoint) {
  ClusterConfig config = SmallClusterConfig();
  config.trace_sample_every = 1;
  config.query_extraction_micros = 3'000;
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.flight_recorder(), nullptr);
  for (std::size_t i = 0; i < 6; ++i) RunQuery(cluster, i);

  const auto records = cluster.flight_recorder()->Snapshot();
  ASSERT_EQ(records.size(), 6u);
  for (const obs::FlightRecord& record : records) {
    EXPECT_GE(record.stage(obs::FlightStage::kExtract), 3'000);
    Micros sum = 0;
    for (const obs::FlightStage stage :
         {obs::FlightStage::kExtract, obs::FlightStage::kFanOutWait,
          obs::FlightStage::kFilter, obs::FlightStage::kIo,
          obs::FlightStage::kScan, obs::FlightStage::kHedgeWait,
          obs::FlightStage::kFanIn, obs::FlightStage::kRank}) {
      sum += record.stage(stage);
    }
    EXPECT_LE(sum, record.total_micros);
  }
  // Sampled queries carry the wait as its own critical-path row.
  const std::string table = obs::RenderCriticalPathTable(cluster.registry());
  EXPECT_NE(table.find("fanout_wait"), std::string::npos) << table;
  cluster.Stop();
}

// The recorder's kill switch makes the whole layer inert (the overhead
// bench's baseline), and re-enabling resumes recording.
TEST(DiagnosisTest, RecorderKillSwitch) {
  ClusterConfig config = SmallClusterConfig();
  VisualSearchCluster cluster(config);
  Populate(cluster);
  ASSERT_NE(cluster.flight_recorder(), nullptr);

  cluster.flight_recorder()->set_enabled(false);
  RunQuery(cluster, 1);
  EXPECT_EQ(cluster.flight_recorder()->recorded(), 0u);
  cluster.flight_recorder()->set_enabled(true);
  RunQuery(cluster, 2);
  EXPECT_EQ(cluster.flight_recorder()->recorded(), 1u);
  cluster.Stop();
}

}  // namespace
}  // namespace jdvs
