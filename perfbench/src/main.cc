// jdvs benchmark: one workload per invocation.
//
//   jdvs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the per-layer
// probes and records spans. Both run the correctness gates. Every metric is
// printed by name with its unit (and sample counts where they apply); the
// last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit code 1 on a gate violation, 2 on bad arguments.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "harness.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr double kLadderStep = 1.05;
constexpr std::int64_t kVisibilityLimitUs = 1'000'000;
constexpr std::size_t kGateQueries = 200;
// Shares of --seconds: the nominal-rate phase, and each capacity rung.
constexpr double kNominalShare = 0.4;
constexpr double kRungShare = 0.15;
constexpr int kLadderStride = 3;
// Tiered phase (traced run, tier_probe workloads): resident budget share,
// query rate (below tiered capacity) and share of --seconds.
constexpr double kTierBudgetShare = 0.1;
constexpr double kTierQps = 200.0;
constexpr double kTierShare = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else {
        std::cerr << "unknown flag " << key << "\n";
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;  // a number that does not parse
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds >= 1;
}

double RssPeakMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

std::int64_t Us(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6);
}

// Metrics of the run, printed in order and selected for the JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-34s %14.4f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  std::string Json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

struct Built {
  std::unique_ptr<Testbed> bed;
  SetupTimes median;
  double setup_s = 0;
  std::vector<QueryImage> gate_queries;
};

// Sets the workload up kSetupRepeats times (keeping the last) and reports
// the median of each phase, so set-up time is as steady as the rest.
Built SetUp(const Args& args) {
  Built out;
  std::vector<SetupTimes> times(kSetupRepeats);
  for (int it = 0; it < kSetupRepeats; ++it) {
    out.bed.reset();  // tear the previous copy down before timing the next
    malloc_trim(0);   // and hand its memory back, so the peak is one copy
    out.bed = BuildTestbed(args.seed, &times[it]);
  }
  out.gate_queries = MakeQueries(*out.bed, kGateQueries, args.seed ^ 0x6A7E);
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };
  out.median.catalog_s = median(&SetupTimes::catalog_s);
  out.median.train_s = median(&SetupTimes::train_s);
  out.median.build_s = median(&SetupTimes::build_s);
  out.median.start_s = median(&SetupTimes::start_s);
  std::vector<double> totals;
  for (const SetupTimes& t : times) totals.push_back(t.Total());
  out.setup_s = Median(totals);
  std::printf("setup: %d builds, totals", kSetupRepeats);
  for (double t : totals) std::printf(" %.3f", t);
  std::printf(" s\n");
  return out;
}

// The quiescent gates: recall (with its distance checks) and the kept
// answers' distances.
void RunGates(Built& built, const std::vector<PhaseResult>* answers,
              GateReport& gates, double* recall) {
  Testbed& bed = *built.bed;
  *recall = MeasureRecall(bed, built.gate_queries, gates);
  if (*recall < 0.5) {
    gates.Fail("recall@10 collapsed: " + std::to_string(*recall));
  }
  if (answers != nullptr) {
    for (const PhaseResult& phase : *answers) CheckAnswers(bed, phase, gates);
  }
}

// Tiered-serving phase of the traced run: the RAM-resident answers to the
// gate queries are taken, every partition is re-served from v5 tiered
// snapshots at 1/10 of its payload, a Zipf 1.0 query stream runs against
// it, and the tiered answers must equal the RAM-resident ones id for id.
struct TierPhase {
  double save_s = 0, load_s = 0;
  double cpu_ms = 0;  // whole process, over the query stream
  double p50_ms = 0, p99_ms = 0;  // from due time
  std::uint64_t sent = 0, ok = 0, failed = 0;
};
TierPhase RunTierPhase(Built& built, const Args& args, GateReport& gates) {
  Testbed& bed = *built.bed;
  const auto reference = AnswerIds(bed, built.gate_queries);
  TierPhase out;
  std::tie(out.save_s, out.load_s) =
      ServeTiered(bed, kTierBudgetShare, args.work_dir + "/tier");
  UseZipfPopularity(bed, 1.0);
  const double cpu_before = CpuMs();
  const RequestBook::Summary s =
      RunQueryPhase(bed, {.rate_qps = kTierQps,
                          .window_us = Us(kTierShare * args.seconds),
                          .seed = args.seed ^ 0x7E})
          .summary;
  out.cpu_ms = CpuMs() - cpu_before;
  out.p50_ms = Median(s.latency_from_due_us) / 1e3;
  out.p99_ms = Quantile(s.latency_from_due_us, 0.99) / 1e3;
  out.sent = s.sent;
  out.ok = s.ok;
  out.failed = s.errors + s.never_completed;
  const auto tiered = AnswerIds(bed, built.gate_queries);
  for (std::size_t i = 0; i < tiered.size(); ++i) {
    ++gates.checks;
    if (tiered[i] != reference[i]) {
      gates.Fail("tiered answer differs from RAM-resident build, query " +
                 std::to_string(i));
    }
  }
  return out;
}

// Updates for workloads without a background stream: a quiescent burst at
// the realtime workload's rate, after the query phases, so freshness is
// measured (and gated) on every workload.
UpdateStats QuiescentUpdates(Testbed& bed, std::uint64_t seed,
                             double seconds) {
  UpdateStream stream(bed, 1000.0, seed, kVisibilityLimitUs);
  stream.Start(Us(seconds));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return stream.Stop();
}

// (due time, visibility latency) of the updates due within [from, to).
std::vector<std::pair<std::int64_t, double>> VisibilitySeries(
    const UpdateStats& u, std::int64_t from, std::int64_t to) {
  std::vector<std::pair<std::int64_t, double>> out;
  for (std::size_t i = 0; i < u.visible_us.size(); ++i) {
    if (u.visible_due_us[i] >= from && u.visible_due_us[i] < to) {
      out.emplace_back(u.visible_due_us[i], u.visible_us[i]);
    }
  }
  return out;
}

void PrintGateSummary(const GateReport& gates) {
  std::printf("gates: %llu checks, %zu violations\n",
              static_cast<unsigned long long>(gates.checks),
              gates.violations.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(gates.violations.size(), 10);
       ++i) {
    std::printf("  VIOLATION: %s\n", gates.violations[i].c_str());
  }
}

void PrintUpdates(const UpdateStats& u) {
  std::printf(
      "updates: %llu published, %llu not visible within %lld ms, "
      "%zu visibility samples\n",
      static_cast<unsigned long long>(u.published),
      static_cast<unsigned long long>(u.late),
      static_cast<long long>(kVisibilityLimitUs / 1000), u.visible_us.size());
}

// Warm-up: one query pass and, on update workloads, one update pass (the
// first updates after start pay a one-off transient).
void Warmup(Testbed& bed, const WorkloadSpec& spec, const Args& args) {
  std::unique_ptr<UpdateStream> warm;
  if (spec.update_qps > 0) {
    warm = std::make_unique<UpdateStream>(bed, spec.update_qps,
                                          args.seed ^ 0x3A, kVisibilityLimitUs);
    warm->Start(Us(1.0));
  }
  RunQueryPhase(bed, {.rate_qps = kNominalQps, .window_us = Us(1.0),
                      .seed = args.seed ^ 0x1});
  if (warm) warm->Stop();
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  const double s = args.seconds;
  Built built = SetUp(args);
  Testbed& bed = *built.bed;
  const bool streaming = spec.update_qps > 0;

  Warmup(bed, spec, args);
  std::unique_ptr<UpdateStream> stream;
  if (streaming) {
    stream = std::make_unique<UpdateStream>(bed, spec.update_qps,
                                            args.seed ^ 0x3B, kVisibilityLimitUs);
    stream->Start(Us(3.0 * s + 10.0));  // outlasts nominal phases + ladder
  }

  // Latency at the fixed nominal rate, in two halves: one before the
  // capacity search and one after it, so a slow spell of the host during
  // either half moves only some of the windows the medians are taken over.
  auto nominal_half = [&](std::uint64_t salt) {
    return RunQueryPhase(bed, {.rate_qps = kNominalQps,
                               .window_us = Us(kNominalShare * s / 2),
                               .seed = args.seed ^ salt,
                               .keep_answers = true});
  };
  std::vector<PhaseResult> nominal;
  nominal.push_back(nominal_half(0x2));
  // Capacity at the SLO. Rung 0 is the nominal rate.
  const LadderOutcome ladder = SearchLadder(
      spec.ladder_start, -16, 40, kLadderStride,
      [&](int rung) {
        if (rung == 0) return ToRung(nominal.front());
        return ToRung(RunQueryPhase(
            bed, {.rate_qps = RungRate(kNominalQps, kLadderStep, rung),
                  .window_us = Us(kRungShare * s),
                  .seed = args.seed ^ (0x100 + static_cast<std::uint64_t>(
                                                   rung + 64))}));
      });
  nominal.push_back(nominal_half(0x4));
  const UpdateStats updates = streaming ? stream->Stop() : UpdateStats{};

  GateReport gates;
  double recall = 0;
  RunGates(built, &nominal, gates, &recall);
  const UpdateStats fresh =
      streaming ? updates : QuiescentUpdates(bed, args.seed ^ 0x3C, 2.0);
  CheckFreshness(bed, fresh, args.seed ^ 0x3D, gates);

  // ---- report
  std::vector<std::pair<std::int64_t, double>> series;
  std::uint64_t sent = 0, ok = 0, errors = 0, degraded = 0;
  std::vector<std::pair<std::int64_t, double>> visible;
  for (const PhaseResult& half : nominal) {
    const auto part = LatencySeries(half.summary);
    series.insert(series.end(), part.begin(), part.end());
    sent += half.summary.sent;
    ok += half.summary.ok;
    errors += half.summary.errors + half.summary.never_completed;
    degraded += half.summary.degraded;
    // Visibility beside the nominal query load on streaming workloads.
    if (streaming) {
      const auto v = VisibilitySeries(fresh, half.start_us, half.end_us);
      visible.insert(visible.end(), v.begin(), v.end());
    }
  }
  if (!streaming) {
    visible = VisibilitySeries(fresh, 0, std::numeric_limits<std::int64_t>::max());
  }
  std::printf("workload %s seed %llu: nominal %.0f QPS for 2 x %.1f s, %llu "
              "queries sent\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              kNominalQps, kNominalShare * s / 2,
              static_cast<unsigned long long>(sent));
  for (const auto& [rung, r] : ladder.tried) {
    const RungVerdict v = JudgeRung(r);
    std::printf("  rung %+3d  %8.1f QPS offered  %8.1f completed  p99 %8.2f "
                "ms  err %.4f  inflight %.1f -> %.1f  %s\n",
                rung, r.offered_qps, r.completed_qps, r.p99_ms, r.error_ratio,
                r.inflight_head, r.inflight_tail,
                v.pass ? "pass" : v.reason.c_str());
  }
  PrintUpdates(fresh);
  PrintGateSummary(gates);

  // Query latency: medians over windows, one-second windows for p50 and
  // windows of at least 1000 queries for p99. Visibility: quantiles of
  // every update due in the nominal phases (the quiescent burst elsewhere).
  const std::int64_t p99_window =
      std::max<std::int64_t>(Us(1.0), Us(1000.0 / kNominalQps));
  const std::string n_queries = "n=" + std::to_string(ok);
  const std::string n_updates = "n=" + std::to_string(visible.size());
  std::printf("end-to-end metrics (bounded in BENCHMARK.json):\n");
  Report report;
  report.Add("query_p50_ms", WindowedQuantile(series, Us(1.0), 0.5, 100) / 1e3,
             "ms", n_queries + ", median of 1 s windows");
  report.Add("query_max_qps_at_slo",
             ladder.found ? ladder.best.completed_qps : 0.0, "1/s",
             "rung " + std::to_string(ladder.best_rung) + ", " +
                 std::to_string(ladder.tried.size()) + " rungs tried");
  report.Add("recall_at_10", recall, "ratio",
             "n=" + std::to_string(built.gate_queries.size()));
  report.Add("setup_s", built.setup_s, "s",
             "median of " + std::to_string(kSetupRepeats));
  report.Add("rss_peak_mb", RssPeakMb(), "MB");

  std::printf("end-to-end metrics (reported, too noisy on a shared host to "
              "bound):\n");
  auto line = [](const char* name, double value, const char* unit,
                 const std::string& note) {
    std::printf("  %-34s %14.4f %-8s %s\n", name, value, unit, note.c_str());
  };
  line("query_p99_ms", WindowedQuantile(series, p99_window, 0.99, 500) / 1e3,
       "ms", n_queries + ", median of " +
                 std::to_string(p99_window / 1000) + " ms windows");
  std::vector<double> visible_us;
  for (const auto& [due, v] : visible) visible_us.push_back(v);
  line("update_visible_p50_ms", Median(visible_us) / 1e3, "ms", n_updates);
  line("update_visible_p99_ms", Quantile(visible_us, 0.99) / 1e3, "ms",
       n_updates);
  line("query_error_ratio", sent ? static_cast<double>(errors) / sent : 0.0,
       "ratio", "n=" + std::to_string(sent));
  line("query_degraded_ratio", ok ? static_cast<double>(degraded) / ok : 0.0,
       "ratio", n_queries);
  line("update_error_ratio",
       fresh.published ? static_cast<double>(fresh.late) / fresh.published
                       : 0.0,
       "ratio", "n=" + std::to_string(fresh.published));
  std::printf("  query p50 by 1 s window (ms):");
  for (double v : PerWindowQuantiles(series, Us(1.0), 0.5, 100)) {
    std::printf(" %.3f", v / 1e3);
  }
  std::printf("\n");

  const std::uint64_t attempted = sent + fresh.published + gates.checks;
  const std::uint64_t failed = errors + fresh.late + gates.violations.size();
  std::cout << report.Json(gates.ok(), attempted, failed) << std::endl;
  return gates.ok() ? 0 : 1;
}

// Program-side instruments the traced run reads: reset before the traced
// phase so they cover it alone.
const char* const kStageHistograms[] = {"extract", "rank", "rt_apply"};
const char* const kTiers[] = {"blender", "broker", "searcher"};

std::string Stage(const char* stage) {
  return obs::Labeled("jdvs_stage_micros", "stage", stage);
}
std::string QueueWait(const char* tier) {
  return obs::Labeled("jdvs_pool_queue_wait_micros", "tier", tier);
}
std::string BatchSize(const Searcher& s) {
  return obs::Labeled("jdvs_searcher_batch_size", "searcher", s.name());
}

void ResetProgramInstruments(VisualSearchCluster& cluster) {
  obs::Registry& r = cluster.registry();
  for (const char* s : kStageHistograms) r.GetHistogram(Stage(s)).Reset();
  for (const char* t : kTiers) r.GetHistogram(QueueWait(t)).Reset();
  r.GetHistogram("jdvs_tier_fault_micros").Reset();
  for (std::size_t i = 0; i < cluster.num_searchers(); ++i) {
    r.GetHistogram(BatchSize(cluster.searcher_flat(i))).Reset();
    cluster.searcher_flat(i).node().pool().ResetPeakStats();
  }
  for (std::size_t i = 0; i < cluster.num_brokers(); ++i) {
    cluster.broker(i).node().pool().ResetPeakStats();
  }
  for (std::size_t i = 0; i < cluster.num_blenders(); ++i) {
    cluster.blender(i).node().pool().ResetPeakStats();
  }
}

double HistQuantile(const obs::Registry& r, const std::string& name,
                    double q) {
  const Histogram* h = r.FindHistogram(name);
  return h == nullptr || h->Count() == 0
             ? 0.0
             : static_cast<double>(h->Quantile(q));
}

std::uint64_t CounterValue(const obs::Registry& r, const char* name) {
  const obs::Counter* c = r.FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

struct TierCounters {
  std::uint64_t hits = 0, misses = 0, evictions = 0, dropped = 0;
  static TierCounters Read(const obs::Registry& r) {
    return {CounterValue(r, "jdvs_tier_hits_total"),
            CounterValue(r, "jdvs_tier_misses_total"),
            CounterValue(r, "jdvs_tier_evictions_total"),
            CounterValue(r, "jdvs_tier_probes_dropped_total")};
  }
};

double Ratio(double num, double den, double if_empty = 0.0) {
  return den > 0 ? num / den : if_empty;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const double s = args.seconds;
  // Declared before the cluster so it outlives every completion callback.
  SpanRecorder spans;
  Built built = SetUp(args);
  Testbed& bed = *built.bed;
  VisualSearchCluster& cluster = *bed.cluster;
  const obs::Registry& registry = cluster.registry();
  const bool streaming = spec.update_qps > 0;
  Warmup(bed, spec, args);
  std::unique_ptr<UpdateStream> stream;
  if (streaming) {
    stream = std::make_unique<UpdateStream>(bed, spec.update_qps,
                                            args.seed ^ 0x3B, kVisibilityLimitUs);
    stream->Start(Us(2.0 * s + 10.0));
  }
  const RealTimeIndexerCounters rt_before = cluster.TotalUpdateCounters();
  const std::uint64_t expansions_before =
      cluster.AggregateIndexStats().list_expansions;

  // Untraced reference phase: the overhead ratio's denominator and the
  // process CPU cost per query.
  const double cpu_before = CpuMs();
  const PhaseResult plain = RunQueryPhase(
      bed, {.rate_qps = kNominalQps, .window_us = Us(0.35 * s),
            .seed = args.seed ^ 0x2});
  const double cpu_ms = CpuMs() - cpu_before;

  // Traced phase: the same stream with client spans, plus the layer probes.
  ResetProgramInstruments(cluster);
  LayerProbe probe(bed, spans, args.seed ^ 0x77);
  probe.Start();
  const PhaseResult traced = RunQueryPhase(
      bed, {.rate_qps = kNominalQps, .window_us = Us(0.45 * s),
            .seed = args.seed ^ 0x2, .spans = &spans});
  probe.Stop();
  auto busy_peak = [&](auto&& node_of, std::size_t count) {
    std::size_t peak = 0;
    for (std::size_t i = 0; i < count; ++i) {
      peak = std::max(peak, node_of(i).pool().peak_busy_threads());
    }
    return static_cast<double>(peak);
  };
  const double peak_blender = busy_peak(
      [&](std::size_t i) -> Node& { return cluster.blender(i).node(); },
      cluster.num_blenders());
  const double peak_broker = busy_peak(
      [&](std::size_t i) -> Node& { return cluster.broker(i).node(); },
      cluster.num_brokers());
  const double peak_searcher = busy_peak(
      [&](std::size_t i) -> Node& { return cluster.searcher_flat(i).node(); },
      cluster.num_searchers());
  double batch_sum = 0, batch_count = 0;
  for (std::size_t i = 0; i < cluster.num_searchers(); ++i) {
    if (const Histogram* h =
            registry.FindHistogram(BatchSize(cluster.searcher_flat(i)))) {
      batch_sum += static_cast<double>(h->Sum());
      batch_count += static_cast<double>(h->Count());
    }
  }
  // Query-path histograms now, before later phases add to them.
  const double extract_p50 = HistQuantile(registry, Stage("extract"), 0.5);
  const double rank_p50 = HistQuantile(registry, Stage("rank"), 0.5);
  const double wait_p99_blender =
      HistQuantile(registry, QueueWait("blender"), 0.99);
  const double wait_p99_broker =
      HistQuantile(registry, QueueWait("broker"), 0.99);
  const double wait_p99_searcher =
      HistQuantile(registry, QueueWait("searcher"), 0.99);

  // Gates on a quiescent index, then the update burst on update-free
  // workloads, then (tier_probe workloads) the tiered-serving phase.
  const UpdateStats streamed = streaming ? stream->Stop() : UpdateStats{};
  GateReport gates;
  double recall = 0;
  RunGates(built, nullptr, gates, &recall);
  const UpdateStats updates =
      streaming ? streamed : QuiescentUpdates(bed, args.seed ^ 0x3C, 2.0);
  CheckFreshness(bed, updates, args.seed ^ 0x3D, gates);
  const RealTimeIndexerCounters rt_after = cluster.TotalUpdateCounters();
  const std::uint64_t expansions =
      cluster.AggregateIndexStats().list_expansions - expansions_before;
  TierPhase tier;
  TierCounters tier_before, tier_after;
  if (spec.tier_probe) {
    tier_before = TierCounters::Read(registry);
    tier = RunTierPhase(built, args, gates);
    tier_after = TierCounters::Read(registry);
  }

  // Kernel over a buffer shaped like one partition's rows.
  const std::size_t rows = std::max<std::size_t>(
      64, cluster.AggregateIndexStats().total_images / cluster.num_searchers());
  const auto [ns_per_row, gb_per_s] = MeasureScanKernel(rows, 64, 300'000);

  const std::string span_dir =
      std::filesystem::path(args.work_dir).parent_path().string() + "/spans";
  std::filesystem::create_directories(span_dir);
  const std::string span_path = span_dir + "/" + spec.name + "-seed" +
                                std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonLines(span_path)) {
    gates.Fail("could not write spans to " + span_path);
  }

  // ---- report
  std::printf("workload %s seed %llu (traced): nominal %.0f QPS, untraced "
              "%llu + traced %llu queries, %llu probe cycles, spans in %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              kNominalQps,
              static_cast<unsigned long long>(plain.summary.sent),
              static_cast<unsigned long long>(traced.summary.sent),
              static_cast<unsigned long long>(spans.Durations("probe").size()),
              span_path.c_str());
  if (spec.tier_probe) {
    std::printf("tiered phase: %.0f QPS, %llu sent, %llu ok, p50 %.2f ms, p99 "
                "%.2f ms\n",
                kTierQps, static_cast<unsigned long long>(tier.sent),
                static_cast<unsigned long long>(tier.ok), tier.p50_ms,
                tier.p99_ms);
  }
  PrintUpdates(updates);
  PrintGateSummary(gates);

  auto p50 = [&](const char* span) { return Median(spans.Durations(span)); };
  auto p99 = [&](const char* span) {
    return Quantile(spans.Durations(span), 0.99);
  };
  std::vector<double> spread;
  for (std::size_t i = 0; i < std::min(updates.visible_us.size(),
                                       updates.first_visible_us.size());
       ++i) {
    spread.push_back(updates.visible_us[i] - updates.first_visible_us[i]);
  }

  std::printf("per-layer metrics:\n");
  Report report;
  report.Add("client.send_lag_p99_us",
             Quantile(traced.summary.send_lag_us, 0.99), "us",
             "n=" + std::to_string(traced.summary.sent));
  report.Add("blender.call_p50_us", p50("blender.call"), "us",
             "n=" + std::to_string(spans.Durations("blender.call").size()));
  report.Add("blender.call_p99_us", p99("blender.call"), "us");
  report.Add("blender.extract_p50_us", extract_p50, "us");
  report.Add("blender.rank_p50_us", rank_p50, "us");
  report.Add("blender.queue_wait_p99_us", wait_p99_blender, "us");
  report.Add("broker.call_p50_us", p50("broker.call"), "us",
             "n=" + std::to_string(spans.Durations("broker.call").size()));
  report.Add("broker.call_p99_us", p99("broker.call"), "us");
  report.Add("broker.self_p50_us", p50("broker.call") - p50("searcher.call"),
             "us", "broker call - searcher call");
  report.Add("broker.queue_wait_p99_us", wait_p99_broker, "us");
  report.Add("searcher.call_p50_us", p50("searcher.call"), "us",
             "n=" + std::to_string(spans.Durations("searcher.call").size()));
  report.Add("searcher.call_p99_us", p99("searcher.call"), "us");
  report.Add("searcher.queue_wait_p99_us", wait_p99_searcher, "us");
  report.Add("searcher.batch_size_mean", Ratio(batch_sum, batch_count, 1.0),
             "queries");
  // The query streams are unfiltered: index.search is the unfiltered class.
  report.Add("net.hop_p50_us",
             p50("searcher.call") - p50("index.search.unfiltered"), "us",
             "searcher call - index search");
  report.Add("index.search_p50_us", p50("index.search.unfiltered"), "us",
             "n=" + std::to_string(
                        spans.Durations("index.search.unfiltered").size()));
  report.Add("index.search_p99_us", p99("index.search.unfiltered"), "us");
  for (const char* c : {"unfiltered", "narrow", "broad"}) {
    const std::string span = std::string("index.search.") + c;
    report.Add(std::string("index.search_p50_us.") + c, p50(span.c_str()),
               "us");
    report.Add(std::string("index.search_p99_us.") + c, p99(span.c_str()),
               "us");
  }
  report.Add("index.blocks_scanned_per_query",
             Ratio(static_cast<double>(probe.blocks_scanned()),
                   static_cast<double>(probe.index_queries())),
             "blocks");
  report.Add("index.blocks_skipped_ratio",
             Ratio(static_cast<double>(probe.blocks_skipped()),
                   static_cast<double>(probe.blocks_skipped() +
                                       probe.blocks_scanned())),
             "ratio");
  report.Add("index.list_expansions", static_cast<double>(expansions),
             "count");
  report.Add("vecmath.scan_ns_per_row", ns_per_row, "ns",
             "rows=" + std::to_string(rows) + " dim=64");
  report.Add("vecmath.scan_gb_per_s", gb_per_s, "GB/s");
  report.Add("mq.publish_p50_us", Median(updates.publish_us), "us",
             "n=" + std::to_string(updates.publish_us.size()));
  report.Add("realtime.first_visible_p99_us",
             Quantile(updates.first_visible_us, 0.99), "us");
  report.Add("realtime.visible_spread_p99_us", Quantile(spread, 0.99), "us");
  report.Add("realtime.apply_p50_us",
             HistQuantile(registry, Stage("rt_apply"), 0.5), "us");
  report.Add("realtime.apply_p99_us",
             HistQuantile(registry, Stage("rt_apply"), 0.99), "us");
  // Image additions served without a new extraction: re-listed images
  // revalidated in place plus features found in the FeatureDb.
  const double reused =
      static_cast<double>(rt_after.images_revalidated -
                          rt_before.images_revalidated +
                          rt_after.features_reused - rt_before.features_reused);
  report.Add("store.feature_reuse_ratio",
             Ratio(reused, reused + static_cast<double>(
                                        rt_after.features_extracted -
                                        rt_before.features_extracted)),
             "ratio");
  // Tier metrics come from the tiered phase; without one every partition is
  // RAM-resident and serves every probe from memory (hit ratio 1).
  report.Add("tier.hit_ratio",
             spec.tier_probe ? Ratio(static_cast<double>(tier_after.hits -
                                                tier_before.hits),
                            static_cast<double>(
                                tier_after.hits - tier_before.hits +
                                tier_after.misses - tier_before.misses),
                            1.0)
                    : 1.0,
             "ratio");
  report.Add("tier.fault_p99_us",
             HistQuantile(registry, "jdvs_tier_fault_micros", 0.99), "us");
  report.Add("tier.evictions_per_1k_queries",
             Ratio(1000.0 * static_cast<double>(tier_after.evictions -
                                                tier_before.evictions),
                   static_cast<double>(tier.ok)),
             "count");
  report.Add("tier.probes_dropped",
             static_cast<double>(tier_after.dropped - tier_before.dropped),
             "count");
  report.Add("tier.cpu_ms_per_query",
             Ratio(tier.cpu_ms, static_cast<double>(tier.ok)), "ms",
             "tiered phase, whole process");
  report.Add("setup.catalog_s", built.median.catalog_s, "s");
  report.Add("setup.train_s", built.median.train_s, "s");
  report.Add("setup.build_s", built.median.build_s, "s");
  report.Add("setup.snapshot_save_s", tier.save_s, "s", "tiered phase");
  report.Add("setup.snapshot_load_s", tier.load_s, "s", "tiered phase");
  report.Add("pool.busy_peak.blender", peak_blender, "threads");
  report.Add("pool.busy_peak.broker", peak_broker, "threads");
  report.Add("pool.busy_peak.searcher", peak_searcher, "threads");
  report.Add("process.cpu_ms_per_query",
             Ratio(cpu_ms, static_cast<double>(plain.summary.ok)), "ms",
             "untraced phase, whole process");
  report.Add("trace.overhead_ratio",
             Ratio(Median(traced.summary.latency_from_due_us),
                   Median(plain.summary.latency_from_due_us)),
             "ratio", "traced / untraced query p50");

  const std::uint64_t attempted =
      plain.summary.sent + traced.summary.sent + tier.sent +
      updates.published + gates.checks;
  const std::uint64_t failed =
      plain.summary.errors + plain.summary.never_completed +
      traced.summary.errors + traced.summary.never_completed + tier.failed +
      updates.late + gates.violations.size();
  std::cout << report.Json(gates.ok(), attempted, failed) << std::endl;
  return gates.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: jdvs_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << "; known:";
    for (const auto& n : perfbench::WorkloadNames()) std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
  }
  // Each run works in its own directory (tiered snapshot files), removed
  // on the way out.
  args.work_dir += "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.work_dir);
  int code = 1;
  try {
    code = args.trace ? perfbench::RunTraced(*spec, args)
                      : perfbench::RunEndToEnd(*spec, args);
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
  }
  std::error_code ignored;
  std::filesystem::remove_all(args.work_dir, ignored);
  return code;
}
