// Tests for the observability subsystem: metrics registry semantics and
// exposition format, span/trace nesting and rendering, sampling
// determinism, the slow-query log, and multithreaded stress on the
// registry + sink (run under TSan to validate the lock-free paths).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/introspection.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace jdvs::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(GaugeTest, SetAddAndValue) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(5);
  gauge.Decrement();
  EXPECT_EQ(gauge.Value(), 14);
  gauge.Add(-20);
  EXPECT_EQ(gauge.Value(), -6);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.GetCounter("jdvs_x_total");
  Counter& b = registry.GetCounter("jdvs_x_total");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  EXPECT_NE(&registry.GetCounter("jdvs_y_total"), &a);
  EXPECT_EQ(&registry.GetHistogram("jdvs_h"), &registry.GetHistogram("jdvs_h"));
}

TEST(RegistryTest, LabeledBuildsPrometheusSeriesName) {
  EXPECT_EQ(Labeled("jdvs_cache_hits_total", "owner", "bl-0"),
            "jdvs_cache_hits_total{owner=\"bl-0\"}");
}

TEST(RegistryTest, HasAndFindNeverCreate) {
  Registry registry;
  EXPECT_FALSE(registry.Has("jdvs_x_total"));
  EXPECT_EQ(registry.FindCounter("jdvs_x_total"), nullptr);
  EXPECT_EQ(registry.FindHistogram("jdvs_h"), nullptr);
  registry.GetCounter("jdvs_x_total");
  registry.GetHistogram("jdvs_h");
  EXPECT_TRUE(registry.Has("jdvs_x_total"));
  EXPECT_EQ(registry.FindCounter("jdvs_x_total"),
            &registry.GetCounter("jdvs_x_total"));
  EXPECT_EQ(registry.FindHistogram("jdvs_h"), &registry.GetHistogram("jdvs_h"));
  EXPECT_EQ(registry.FindGauge("jdvs_g"), nullptr);
}

TEST(RegistryTest, ExpositionFormat) {
  Registry registry;
  registry.GetCounter(Labeled("jdvs_hits_total", "owner", "a")).Increment(3);
  registry.GetCounter(Labeled("jdvs_hits_total", "owner", "b")).Increment(7);
  registry.GetGauge("jdvs_depth").Set(5);
  Histogram& h = registry.GetHistogram(Labeled("jdvs_lat", "stage", "scan"));
  h.Record(100);
  h.Record(300);

  const std::string text = registry.ExpositionText();
  // One TYPE line per family, series sorted under it.
  EXPECT_NE(text.find("# TYPE jdvs_hits_total counter\n"
                      "jdvs_hits_total{owner=\"a\"} 3\n"
                      "jdvs_hits_total{owner=\"b\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jdvs_depth gauge\njdvs_depth 5\n"),
            std::string::npos);
  // Histograms render as cumulative buckets (Prometheus histogram type):
  // one `_bucket{le="upper"}` series per non-empty bucket, the mandatory
  // +Inf bucket equal to the count, then _sum and _count.
  EXPECT_NE(text.find("# TYPE jdvs_lat histogram\n"), std::string::npos);
  const std::string bucket_100 =
      "jdvs_lat_bucket{stage=\"scan\",le=\"" +
      std::to_string(Histogram::BucketUpperBound(Histogram::BucketFor(100))) +
      "\"} 1\n";
  const std::string bucket_300 =
      "jdvs_lat_bucket{stage=\"scan\",le=\"" +
      std::to_string(Histogram::BucketUpperBound(Histogram::BucketFor(300))) +
      "\"} 2\n";
  EXPECT_NE(text.find(bucket_100), std::string::npos) << text;
  EXPECT_NE(text.find(bucket_300), std::string::npos) << text;
  EXPECT_NE(text.find("jdvs_lat_bucket{stage=\"scan\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  // Buckets are cumulative and ascending: the 100 bucket precedes 300.
  EXPECT_LT(text.find(bucket_100), text.find(bucket_300));
  EXPECT_NE(text.find("jdvs_lat_sum{stage=\"scan\"} 400\n"),
            std::string::npos);
  EXPECT_NE(text.find("jdvs_lat_count{stage=\"scan\"} 2\n"),
            std::string::npos);
  // The old summary rendering must be gone: no quantile series.
  EXPECT_EQ(text.find("quantile"), std::string::npos);
}

TEST(RegistryTest, ExpositionAttachesExemplars) {
  Registry registry;
  Histogram& h = registry.GetHistogram(Labeled("jdvs_lat", "stage", "q"));
  h.EnableExemplars();
  h.RecordWithExemplar(100, /*trace_id=*/0xabcdef12u, /*ref=*/0);
  h.RecordWithExemplar(5000, /*trace_id=*/0, /*ref=*/42);  // unsampled query

  const std::string text = registry.ExpositionText();
  // The sampled observation's bucket carries its trace id...
  EXPECT_NE(text.find("# {trace_id=\"00000000abcdef12\"} 100"),
            std::string::npos)
      << text;
  // ...and the unsampled one still links to its flight-recorder ordinal.
  EXPECT_NE(
      text.find("# {trace_id=\"0000000000000000\",flight=\"42\"} 5000"),
      std::string::npos)
      << text;
}

TEST(HistogramExemplarTest, StoresNearestAndIgnoresUnidentified) {
  Histogram h;
  EXPECT_FALSE(h.exemplars_enabled());
  h.RecordWithExemplar(100, 7);  // before EnableExemplars: counted, no slot
  h.EnableExemplars();
  EXPECT_TRUE(h.exemplars_enabled());
  EXPECT_EQ(h.Exemplars().size(), 0u);

  h.RecordWithExemplar(100, /*trace_id=*/0, /*ref=*/0);  // nothing to link
  EXPECT_EQ(h.Exemplars().size(), 0u);

  h.RecordWithExemplar(100, /*trace_id=*/11);
  h.RecordWithExemplar(1'000'000, /*trace_id=*/22);
  ASSERT_EQ(h.Exemplars().size(), 2u);
  EXPECT_EQ(h.Count(), 4u);

  const auto near_small = h.ExemplarNear(90);
  ASSERT_TRUE(near_small.has_value());
  EXPECT_EQ(near_small->trace_id, 11u);
  const auto near_big = h.ExemplarNear(2'000'000);
  ASSERT_TRUE(near_big.has_value());
  EXPECT_EQ(near_big->trace_id, 22u);
  EXPECT_FALSE(Histogram().ExemplarNear(5).has_value());
}

TEST(SpanTest, ParentChildNesting) {
  TraceSink sink;
  ManualClock clock(1000);
  Tracer tracer(&sink, {.sample_every = 1}, clock);

  Span root = tracer.StartTrace("query", "blender-0");
  ASSERT_TRUE(root.sampled());
  const TraceContext root_ctx = root.context();
  EXPECT_NE(root_ctx.trace_id, 0u);
  clock.AdvanceMicros(50);
  {
    Span child = root.StartChild("broker.search", "broker-0");
    EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
    EXPECT_NE(child.context().span_id, root_ctx.span_id);
    clock.AdvanceMicros(200);
    child.AddTag("hits", std::uint64_t{7});
  }  // child finishes via RAII
  clock.AdvanceMicros(10);
  root.Finish();

  const auto spans = sink.SpansFor(root_ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: root first.
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  EXPECT_EQ(spans[0].DurationMicros(), 260);
  EXPECT_EQ(spans[1].name, "broker.search");
  EXPECT_EQ(spans[1].parent_span_id, spans[0].span_id);
  EXPECT_EQ(spans[1].DurationMicros(), 200);

  const std::string tree = sink.Render(root_ctx.trace_id);
  EXPECT_NE(tree.find("query @blender-0 260us"), std::string::npos);
  EXPECT_NE(tree.find("`- broker.search @broker-0 200us hits=7"),
            std::string::npos);
  // Child is indented under the root.
  EXPECT_LT(tree.find("query"), tree.find("broker.search"));
}

// A continuation that learns a wait's edges late back-dates them: the
// extract span ends at the extraction's due time, the wait after it starts
// there.
TEST(SpanTest, BackDatedEdges) {
  TraceSink sink;
  ManualClock clock(1000);
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  Span root = tracer.StartTrace("query");
  const std::uint64_t trace_id = root.context().trace_id;
  Span extract = root.StartChild("extract");
  clock.AdvanceMicros(300);  // due at 1300, resumed at 1340
  clock.AdvanceMicros(40);
  extract.FinishAgo(40);
  Span wait = root.StartChild("fanout_wait");
  wait.MoveStartBack(40);
  clock.AdvanceMicros(60);
  wait.Finish();
  Span late = root.StartChild("late");
  late.FinishAgo(1'000);  // clamped: never ends before it starts
  root.Finish();

  for (const SpanRecord& span : sink.SpansFor(trace_id)) {
    if (span.name == "extract") {
      EXPECT_EQ(span.start_micros, 1000);
      EXPECT_EQ(span.end_micros, 1300);
    } else if (span.name == "fanout_wait") {
      EXPECT_EQ(span.start_micros, 1300);
      EXPECT_EQ(span.end_micros, 1400);
    } else if (span.name == "late") {
      EXPECT_EQ(span.DurationMicros(), 0);
    }
  }
  EXPECT_EQ(sink.SpansFor(trace_id).size(), 4u);
}

TEST(SpanTest, ErrorStatusRendered) {
  TraceSink sink;
  ManualClock clock;
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  Span root = tracer.StartTrace("query");
  const std::uint64_t trace_id = root.context().trace_id;
  root.SetError("partition 3 unavailable");
  root.Finish();
  const auto spans = sink.SpansFor(trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_NE(sink.Render(trace_id).find("[ERROR: partition 3 unavailable]"),
            std::string::npos);
}

TEST(SpanTest, UnsampledSpansAreNoOps) {
  TraceSink sink;
  ManualClock clock;
  Tracer off(&sink, {.sample_every = 0}, clock);
  Span root = off.StartTrace("query");
  EXPECT_FALSE(root.sampled());
  EXPECT_FALSE(root.context().sampled());
  Span child = root.StartChild("noop");
  child.AddTag("k", std::uint64_t{10});
  child.Finish();
  root.Finish();
  EXPECT_EQ(sink.size(), 0u);

  // Children of an unsampled context are no-ops too.
  Span orphan(&sink, clock, TraceContext{}, "dangling");
  orphan.Finish();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TracerTest, SamplingIsDeterministicOneInN) {
  TraceSink sink;
  ManualClock clock;
  Tracer tracer(&sink, {.sample_every = 3}, clock);
  std::vector<bool> sampled;
  for (int i = 0; i < 9; ++i) {
    Span span = tracer.StartTrace("q");
    sampled.push_back(span.sampled());
  }
  // Counter-based: exactly every third call, starting with the first.
  EXPECT_EQ(sampled, std::vector<bool>({true, false, false, true, false,
                                        false, true, false, false}));
  EXPECT_EQ(tracer.traces_started(), 3u);
  EXPECT_EQ(sink.size(), 3u);
}

TEST(TracerTest, DistinctSeedsYieldDistinctTraceIds) {
  TraceSink sink;
  ManualClock clock;
  Tracer a(&sink, {.sample_every = 1, .seed = 1}, clock);
  Tracer b(&sink, {.sample_every = 1, .seed = 2}, clock);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.insert(a.StartTrace("q").context().trace_id);
    ids.insert(b.StartTrace("q").context().trace_id);
  }
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(ids.count(0), 0u);
}

TEST(TraceSinkTest, CapacityBoundsAndCountsDrops) {
  TraceSink sink(/*stripes=*/2, /*max_spans=*/4);
  ManualClock clock;
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  for (int i = 0; i < 10; ++i) tracer.StartTrace("q").Finish();
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.Collect().size(), 0u);
}

TEST(SlowLogTest, KeepsWorstNOverThreshold) {
  TraceSink sink;
  ManualClock clock;
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  SlowQueryLog log({.threshold_micros = 100, .capacity = 2}, &sink);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    Span root = tracer.StartTrace("query");
    ids.push_back(root.context().trace_id);
    clock.AdvanceMicros(50 * (i + 1));  // durations 50, 100, 150, 200
    root.Finish();
  }
  log.Offer(ids[0], 50);    // under threshold: ignored
  log.Offer(ids[1], 150);
  log.Offer(ids[2], 120);
  log.Offer(ids[3], 200);

  const auto worst = log.Worst();
  ASSERT_EQ(worst.size(), 2u);  // capacity 2: worst two retained
  EXPECT_EQ(worst[0].trace_id, ids[3]);
  EXPECT_EQ(worst[0].duration_micros, 200);
  EXPECT_EQ(worst[1].trace_id, ids[1]);
  EXPECT_EQ(log.offered(), 3u);  // only over-threshold offers count
  // Rendered trees were captured at Offer() time.
  EXPECT_NE(worst[0].rendered.find("query"), std::string::npos);
  EXPECT_NE(log.Render().find("query"), std::string::npos);
}

FlightRecord MakeRecord(Micros total, std::uint64_t trace_id = 0) {
  FlightRecord record;
  record.trace_id = trace_id;
  record.total_micros = total;
  record.set_stage(FlightStage::kExtract, total / 2);
  record.set_stage(FlightStage::kScan, total / 2);
  return record;
}

TEST(FlightRecorderTest, RecordsEveryQueryAndWrapsRing) {
  FlightRecorder recorder({.stripes = 2, .capacity_per_stripe = 4});
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(recorder.Record(MakeRecord(i * 10)), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const auto snapshot = recorder.Snapshot();
  // 2 stripes x 4 slots: only the newest 8 survive, ordinal-ascending.
  ASSERT_EQ(snapshot.size(), 8u);
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].ordinal, snapshot[i].ordinal);
  }
  EXPECT_EQ(snapshot.back().ordinal, 20u);
  EXPECT_EQ(snapshot.back().total_micros, 200);
  EXPECT_EQ(snapshot.back().stage(FlightStage::kScan), 100);
}

TEST(FlightRecorderTest, NegativeStageTimesClampToZero) {
  FlightRecord record;
  record.set_stage(FlightStage::kFanIn, -50);
  EXPECT_EQ(record.stage(FlightStage::kFanIn), 0);
}

TEST(FlightRecorderTest, SloBreachDumpsOnceUntilRearmed) {
  FlightRecorder recorder(
      {.stripes = 1, .capacity_per_stripe = 8, .slo_micros = 1000});
  recorder.Record(MakeRecord(500));  // under SLO: no anomaly
  EXPECT_EQ(recorder.anomalies(), 0u);
  EXPECT_TRUE(recorder.armed());

  recorder.Record(MakeRecord(5000, /*trace_id=*/0x77));
  EXPECT_EQ(recorder.anomalies(), 1u);
  EXPECT_EQ(recorder.dumps_taken(), 1u);
  EXPECT_FALSE(recorder.armed());

  // Follow-on breaches count but do not overwrite the first dump.
  recorder.Record(MakeRecord(9000));
  EXPECT_EQ(recorder.anomalies(), 2u);
  EXPECT_EQ(recorder.dumps_taken(), 1u);

  const auto dumps = recorder.dumps();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].reason.find("slo breach"), std::string::npos);
  // The dump's ring contains the breaching query (and its neighbors).
  bool found = false;
  for (const auto& record : dumps[0].records) {
    if (record.trace_id == 0x77) found = true;
  }
  EXPECT_TRUE(found);

  recorder.Rearm();
  EXPECT_TRUE(recorder.armed());
  recorder.DumpOnAnomaly("external trigger");
  EXPECT_EQ(recorder.dumps_taken(), 2u);
  EXPECT_EQ(recorder.dumps().size(), 2u);
  EXPECT_EQ(recorder.dumps()[1].reason, "external trigger");
}

TEST(FlightRecorderTest, MaxDumpsEvictsOldest) {
  FlightRecorder recorder(
      {.stripes = 1, .capacity_per_stripe = 4, .max_dumps = 2});
  for (int i = 0; i < 3; ++i) {
    recorder.DumpOnAnomaly("dump " + std::to_string(i));
    recorder.Rearm();
  }
  const auto dumps = recorder.dumps();
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[0].reason, "dump 1");
  EXPECT_EQ(dumps[1].reason, "dump 2");
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder recorder({.stripes = 1, .capacity_per_stripe = 4});
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.Record(MakeRecord(100)), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.Snapshot().size(), 0u);
  recorder.set_enabled(true);
  EXPECT_NE(recorder.Record(MakeRecord(100)), 0u);
}

TEST(FlightRecorderTest, MirrorsCountersIntoRegistry) {
  Registry registry;
  FlightRecorder recorder(
      {.stripes = 1, .capacity_per_stripe = 4, .slo_micros = 10},
      MonotonicClock::Instance(), &registry);
  recorder.Record(MakeRecord(100));  // breaches, dumps
  EXPECT_EQ(registry.GetCounter("jdvs_flight_records_total").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("jdvs_flight_anomalies_total").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("jdvs_flight_dumps_total").Value(), 1u);
}

// TSan target: concurrent records, anomaly dumps and snapshots.
TEST(FlightRecorderTest, ConcurrentRecordDumpSnapshot) {
  FlightRecorder recorder(
      {.stripes = 4, .capacity_per_stripe = 64, .slo_micros = 300});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeRecord(i, static_cast<std::uint64_t>(t + 1)));
        if (i % 97 == 0) {
          (void)recorder.Snapshot();
          recorder.Rearm();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(recorder.anomalies(), 1u);
}

// ---- Critical-path analysis ----

SpanRecord MakeSpan(std::uint64_t span_id, std::uint64_t parent,
                    const char* name, Micros start, Micros end,
                    const char* node = "") {
  SpanRecord span;
  span.trace_id = 1;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.name = name;
  span.node = node;
  span.start_micros = start;
  span.end_micros = end;
  return span;
}

TEST(CriticalPathTest, EmptyAndSingleSpan) {
  EXPECT_TRUE(ComputeCriticalPath({}).empty());
  const auto report =
      ComputeCriticalPath({MakeSpan(1, 0, "query", 100, 400)});
  EXPECT_EQ(report.total_micros, 300);
  ASSERT_EQ(report.segments.size(), 1u);
  EXPECT_EQ(report.segments[0].stage, "query");
  EXPECT_EQ(report.segments[0].micros, 300);
}

TEST(CriticalPathTest, ConcurrentFanOutChargesOnlyGatingChild) {
  // Root 0..1000; two concurrent scans: fast 100..300, slow 100..900.
  // The slow scan gates: path = query[0,100] + scan_slow[100,900] +
  // query[900,1000]. The fast sibling is hidden and contributes nothing.
  const auto report = ComputeCriticalPath({
      MakeSpan(1, 0, "query", 0, 1000),
      MakeSpan(2, 1, "searcher.scan", 100, 300, "fast"),
      MakeSpan(3, 1, "searcher.scan", 100, 900, "slow"),
  });
  EXPECT_EQ(report.total_micros, 1000);
  Micros total = 0;
  for (const auto& segment : report.segments) total += segment.micros;
  EXPECT_EQ(total, 1000);  // segments partition the root window exactly
  const auto by_stage = report.ByStage();
  ASSERT_EQ(by_stage.size(), 2u);
  EXPECT_EQ(by_stage[0].first, "searcher.scan");
  EXPECT_EQ(by_stage[0].second, 800);
  EXPECT_EQ(by_stage[1].first, "query");
  EXPECT_EQ(by_stage[1].second, 200);
  // No segment came from the hidden fast replica.
  for (const auto& segment : report.segments) {
    EXPECT_NE(segment.node, "fast");
  }
}

TEST(CriticalPathTest, NestedChainAttributesInnermost) {
  // query > broker.search > searcher.scan, sequential nesting.
  const auto report = ComputeCriticalPath({
      MakeSpan(1, 0, "query", 0, 1000),
      MakeSpan(2, 1, "broker.search", 200, 900),
      MakeSpan(3, 2, "searcher.scan", 300, 800),
  });
  const auto by_stage = report.ByStage();
  ASSERT_EQ(by_stage.size(), 3u);
  // scan 500, query 300 (0..200 + 900..1000), broker 200 (the gaps).
  EXPECT_EQ(by_stage[0].first, "searcher.scan");
  EXPECT_EQ(by_stage[0].second, 500);
  EXPECT_EQ(by_stage[1].first, "query");
  EXPECT_EQ(by_stage[1].second, 300);
  EXPECT_EQ(by_stage[2].first, "broker.search");
  EXPECT_EQ(by_stage[2].second, 200);
  EXPECT_NE(report.Summary().find("searcher.scan 500us (50%)"),
            std::string::npos)
      << report.Summary();
}

TEST(CriticalPathTest, ChildOverhangingParentIsClamped) {
  // A hedge straggler finishing after its parent must not produce negative
  // or out-of-window segments.
  const auto report = ComputeCriticalPath({
      MakeSpan(1, 0, "query", 0, 500),
      MakeSpan(2, 1, "searcher.scan", 100, 900),  // overhangs the root
  });
  Micros total = 0;
  for (const auto& segment : report.segments) {
    EXPECT_GE(segment.micros, 0);
    total += segment.micros;
  }
  EXPECT_EQ(total, 500);
}

TEST(CriticalPathTest, MalformedTreesDegradeGracefully) {
  // Orphan parent pointer: treated as a root candidate, never crashes.
  const auto orphan = ComputeCriticalPath({
      MakeSpan(2, 99, "scan", 100, 300),
  });
  EXPECT_FALSE(orphan.empty());

  // Duplicate span ids: first wins, no infinite descent.
  const auto dupes = ComputeCriticalPath({
      MakeSpan(1, 0, "query", 0, 100),
      MakeSpan(1, 0, "query", 0, 200),
  });
  EXPECT_FALSE(dupes.empty());

  // Self-parent and a 2-cycle: the visited guard stops the walk.
  const auto cycle = ComputeCriticalPath({
      MakeSpan(1, 2, "a", 0, 100),
      MakeSpan(2, 1, "b", 0, 100),
  });
  EXPECT_FALSE(cycle.empty());
  const auto self_parent = ComputeCriticalPath({
      MakeSpan(1, 1, "a", 0, 100),
  });
  EXPECT_FALSE(self_parent.empty());
}

TEST(CriticalPathTest, FlightRecordDecomposition) {
  FlightRecord record;
  record.total_micros = 1000;
  record.set_stage(FlightStage::kQueueWait, 100);
  record.set_stage(FlightStage::kExtract, 200);
  record.set_stage(FlightStage::kFanOut, 700);  // skipped: decomposed below
  record.set_stage(FlightStage::kScan, 600);
  record.set_stage(FlightStage::kFanIn, 100);
  record.set_stage(FlightStage::kRank, 0);  // zero stages omitted
  const auto report = CriticalPathFromFlightRecord(record);
  EXPECT_EQ(report.total_micros, 1000);
  const auto by_stage = report.ByStage();
  ASSERT_EQ(by_stage.size(), 4u);
  EXPECT_EQ(by_stage[0].first, "searcher_scan");
  EXPECT_EQ(by_stage[0].second, 600);
  EXPECT_NE(report.Summary().find("searcher_scan 600us (60%)"),
            std::string::npos)
      << report.Summary();
}

TEST(CriticalPathTest, AggregatorFoldsIntoRegistry) {
  TraceSink sink;
  Registry registry;
  ManualClock clock(1000);
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  CriticalPathAggregator aggregator(&sink, &registry);

  Span root = tracer.StartTrace("query", "blender-0");
  const std::uint64_t trace_id = root.context().trace_id;
  clock.AdvanceMicros(100);
  {
    Span scan = root.StartChild("searcher.scan", "searcher-0");
    clock.AdvanceMicros(400);
  }
  clock.AdvanceMicros(50);
  root.Finish();

  const auto report = aggregator.Observe(trace_id);
  EXPECT_EQ(report.total_micros, 550);
  EXPECT_EQ(aggregator.observed(), 1u);
  const Histogram* scan = registry.FindHistogram(
      Labeled("jdvs_critical_path_micros", "stage", "searcher.scan"));
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->Count(), 1u);
  EXPECT_EQ(scan->Sum(), 400);
  const Histogram* query = registry.FindHistogram(
      Labeled("jdvs_critical_path_micros", "stage", "query"));
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->Sum(), 150);

  const std::string table = RenderCriticalPathTable(registry);
  EXPECT_NE(table.find("searcher.scan"), std::string::npos) << table;
  // Unknown trace: empty report, nothing folded.
  EXPECT_TRUE(aggregator.Observe(0xdeadbeef).empty());
  EXPECT_EQ(aggregator.observed(), 1u);
}

// ---- Introspection pages ----

TEST(IntrospectionTest, PagesRenderRegisteredState) {
  Registry registry;
  TraceSink sink;
  ManualClock clock(500);
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  SlowQueryLog slow_log({.threshold_micros = 10, .capacity = 4}, &sink);
  FlightRecorder recorder(
      {.stripes = 1, .capacity_per_stripe = 8, .slo_micros = 1000});
  registry.GetCounter("jdvs_queries_total").Increment(3);

  Span root = tracer.StartTrace("query", "blender-0");
  const std::uint64_t trace_id = root.context().trace_id;
  clock.AdvanceMicros(100);
  root.Finish();
  slow_log.Offer(trace_id, 100);
  recorder.Record(MakeRecord(2000, trace_id));  // breaches: dump retained

  Introspection pages;
  pages.SetRegistry(&registry);
  pages.SetTraceSink(&sink);
  pages.SetSlowLog(&slow_log);
  pages.SetFlightRecorder(&recorder);
  pages.AddStatusSection("cluster", [](std::ostream& os) {
    os << "3 blenders, all healthy\n";
  });

  const std::string statusz = pages.StatusZ();
  EXPECT_NE(statusz.find("statusz"), std::string::npos);
  EXPECT_NE(statusz.find("cluster"), std::string::npos);
  EXPECT_NE(statusz.find("3 blenders, all healthy"), std::string::npos);
  EXPECT_NE(statusz.find("flight recorder"), std::string::npos);

  const std::string tracez = pages.TraceZ();
  EXPECT_NE(tracez.find("query @blender-0"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("slo breach"), std::string::npos) << tracez;
  // The flight record's critical-path summary names its top stage.
  EXPECT_NE(tracez.find("extract"), std::string::npos) << tracez;

  const std::string metricz = pages.MetricZ();
  EXPECT_NE(metricz.find("jdvs_queries_total 3"), std::string::npos);

  // Pages with no sources at all still render (empty scaffolding).
  Introspection bare;
  EXPECT_NE(bare.StatusZ().find("statusz"), std::string::npos);
  EXPECT_FALSE(bare.TraceZ().empty());
  EXPECT_FALSE(bare.MetricZ().empty());
}

// Stress: concurrent span finishes, counter increments, and reads. Run
// under TSan to validate the striped sink and relaxed-atomic instruments.
TEST(ObsStressTest, ConcurrentRecordAndRead) {
  TraceSink sink(/*stripes=*/4);
  Registry registry;
  ManualClock clock;
  Tracer tracer(&sink, {.sample_every = 1}, clock);
  Counter& counter = registry.GetCounter("jdvs_stress_total");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Span root = tracer.StartTrace("q", "node-" + std::to_string(t));
        Span child = root.StartChild("scan");
        child.AddTag("i", static_cast<std::uint64_t>(i));
        child.Finish();
        root.Finish();
        counter.Increment();
        registry.GetHistogram(Labeled("jdvs_stress_lat", "stage", "scan"))
            .Record(i);
        if (i % 100 == 0) {
          (void)sink.Collect();
          (void)registry.ExpositionText();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.size(), 2u * kThreads * kPerThread);
  EXPECT_EQ(registry
                .GetHistogram(Labeled("jdvs_stress_lat", "stage", "scan"))
                .Count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace jdvs::obs
