// Overload behavior with and without the QoS subsystem (src/qos).
//
// The paper's testbed is always driven closed-loop, which self-throttles: a
// saturated cluster slows its users and offered load never exceeds service
// rate. Production flash-sale traffic doesn't behave that way, so this
// harness drives the cluster *open-loop* — Poisson arrivals at a configured
// rate, dispatched through the blenders' continuation-passing entry point —
// and sweeps the offered rate from half of saturation to 3x past it.
//
// Two cluster configurations per offered rate, each on a fresh cluster:
//
//   baseline   pre-QoS behavior: unbounded admission, no latency budget, no
//              adaptive degradation. Past saturation the blender queues grow
//              without bound, every completion blows through the SLO, and
//              goodput collapses.
//   qos        bounded admission (excess is shed immediately), a per-query
//              latency budget equal to the SLO (work that can no longer make
//              it is cancelled at the next tier boundary instead of scanned),
//              and adaptive degradation (shrunk nprobe, then no reranking)
//              under sustained pressure.
//
// Goodput = completions within the SLO per second of the arrival window.
// The QoS cluster should hold bounded p99 for the queries it admits and
// goodput at or above the baseline at >= 2x saturation, with the
// jdvs_qos_deadline_exceeded_total tier counters showing cancelled work and
// the degradation counters showing effort shed.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace jdvs;
using namespace jdvs::bench;

constexpr Micros kSloMicros = 100'000;  // 100 ms response-time SLO

TestbedOptions OverloadOptions() {
  TestbedOptions options;
  options.num_products = 3000;
  options.num_partitions = 8;
  options.num_brokers = 2;
  options.num_blenders = 2;
  options.blender_threads = 3;
  // Extraction (5 ms of simulated GPU time) holds no blender thread, so the
  // service ceiling is the host's CPU: ~7.5-9.5k QPS on a 4-core host,
  // which a single open-loop dispatcher thread still paces 3x past.
  options.query_extraction_micros = 5'000;
  return options;
}

ClusterConfig OverloadConfig(bool qos, Micros budget_micros) {
  ClusterConfig config = MakeTestbedConfig(OverloadOptions());
  if (qos) {
    // Bound the queue: 32 in flight per blender is about what each blender
    // carries near saturation, so excess is shed rather than queued.
    config.blender_max_in_flight = 32;
    // Budget == SLO by default: a query that can no longer answer in time is
    // cancelled at the next tier boundary instead of scanned for nobody.
    config.default_query_budget_micros = budget_micros;
    config.load_control.p99_degrade_micros = 70'000;
    config.load_control.queue_degrade_depth = 24;
  }
  return config;
}

std::unique_ptr<VisualSearchCluster> BuildOverloadCluster(
    bool qos, Micros budget_micros = kSloMicros) {
  auto cluster = std::make_unique<VisualSearchCluster>(
      OverloadConfig(qos, budget_micros));
  const TestbedOptions options = OverloadOptions();
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  cg.min_images_per_product = 3;
  cg.max_images_per_product = 7;
  cg.seed = options.seed ^ 0x11;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  return cluster;
}

std::uint64_t SumCounter(const obs::Registry& registry, const char* family,
                         const char* key, const char* value) {
  const obs::Counter* c =
      registry.FindCounter(obs::Labeled(family, key, value));
  return c != nullptr ? c->Value() : 0;
}

struct ModeResult {
  OpenLoopResult run;
  std::uint64_t deadline_blender = 0;
  std::uint64_t deadline_broker = 0;
  std::uint64_t deadline_searcher = 0;
  std::uint64_t degraded_l1 = 0;
  std::uint64_t degraded_l2 = 0;
  std::uint64_t degradation_steps_up = 0;
};

ModeResult RunMode(bool qos, double arrival_qps,
                   Micros budget_micros = kSloMicros) {
  auto cluster = BuildOverloadCluster(qos, budget_micros);
  QueryWorkloadConfig qc;
  qc.arrival_qps = arrival_qps;
  qc.duration_micros = 2'000'000;
  qc.slo_micros = kSloMicros;
  qc.drain_timeout_micros = 15'000'000;
  QueryClient client(*cluster, qc);
  ModeResult result;
  result.run = client.RunOpenLoop();
  const obs::Registry& registry = cluster->registry();
  result.deadline_blender = SumCounter(
      registry, "jdvs_qos_deadline_exceeded_total", "tier", "blender");
  result.deadline_broker = SumCounter(
      registry, "jdvs_qos_deadline_exceeded_total", "tier", "broker");
  result.deadline_searcher = SumCounter(
      registry, "jdvs_qos_deadline_exceeded_total", "tier", "searcher");
  result.degraded_l1 = SumCounter(registry, "jdvs_qos_degraded_queries_total",
                                  "level", "1");
  result.degraded_l2 = SumCounter(registry, "jdvs_qos_degraded_queries_total",
                                  "level", "2");
  if (cluster->load_controller() != nullptr) {
    result.degradation_steps_up = cluster->load_controller()->steps_up();
  }
  cluster->Stop();
  return result;
}

Json ModeJson(const ModeResult& result) {
  Json j = Json::Object();
  j.Set("offered", result.run.offered);
  j.Set("completed", result.run.completed);
  j.Set("shed", result.run.overload_errors);
  j.Set("deadline_errors", result.run.deadline_errors);
  j.Set("other_errors", result.run.other_errors);
  j.Set("degraded", result.run.degraded);
  j.Set("timed_out_in_flight", result.run.timed_out_in_flight);
  j.Set("offered_qps", result.run.offered_qps);
  j.Set("completed_qps", result.run.completed_qps);
  j.Set("goodput_qps", result.run.goodput_qps);
  j.Set("latency", LatencyJson(*result.run.latency_micros));
  j.Set("deadline_exceeded_blender", result.deadline_blender);
  j.Set("deadline_exceeded_broker", result.deadline_broker);
  j.Set("deadline_exceeded_searcher", result.deadline_searcher);
  j.Set("degraded_level1", result.degraded_l1);
  j.Set("degraded_level2", result.degraded_l2);
  j.Set("degradation_steps_up", result.degradation_steps_up);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  PrintHeader(
      "Overload: open-loop Poisson arrivals past saturation, QoS on vs off",
      "admission + deadlines + degradation bound p99 and protect goodput");

  // Calibrate the saturation point open-loop: raise Poisson arrivals 25% a
  // step until p99 breaks the SLO; the last rate that held is saturation. A
  // closed loop would measure its own users / latency instead (32 users
  // reach about a third of this cluster's ceiling).
  std::printf("calibrating saturation (open-loop ramp, x1.25 per 1 s step)"
              "...\n");
  double saturation_qps = 0;
  {
    auto cluster = BuildOverloadCluster(/*qos=*/false);
    for (double rate = 1'000; rate < 100'000; rate *= 1.25) {
      QueryWorkloadConfig qc;
      qc.arrival_qps = rate;
      qc.duration_micros = 1'000'000;
      qc.slo_micros = kSloMicros;
      qc.drain_timeout_micros = 15'000'000;
      QueryClient client(*cluster, qc);
      if (client.RunOpenLoop().latency_micros->P99() > kSloMicros) break;
      saturation_qps = rate;
    }
    cluster->Stop();
  }
  std::printf("saturation ~= %.0f QPS; SLO %lld ms; 2 s of Poisson arrivals "
              "per row, fresh cluster per cell\n\n",
              saturation_qps, (long long)(kSloMicros / 1000));

  std::printf("%6s %8s | %9s %9s %8s %8s | %9s %9s %8s %8s %9s %9s %9s\n",
              "factor", "offered", "base_out", "base_good", "base_p99",
              "base_late", "qos_out", "qos_good", "qos_p99", "qos_shed",
              "qos_ddl", "qos_degr", "steps_up");
  Json rows = Json::Array();
  bool qos_held_at_2x = true;
  for (const double factor : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
    const double offered = saturation_qps * factor;
    const ModeResult base = RunMode(/*qos=*/false, offered);
    const ModeResult qos = RunMode(/*qos=*/true, offered);
    const std::uint64_t qos_deadlines = qos.run.deadline_errors;
    std::printf(
        "%6.1f %8.0f | %9.0f %9.0f %8lld %8llu | %9.0f %9.0f %8lld %8llu "
        "%9llu %9llu %9llu\n",
        factor, offered, base.run.completed_qps, base.run.goodput_qps,
        (long long)base.run.latency_micros->P99(),
        (unsigned long long)base.run.timed_out_in_flight,
        qos.run.completed_qps, qos.run.goodput_qps,
        (long long)qos.run.latency_micros->P99(),
        (unsigned long long)qos.run.overload_errors,
        (unsigned long long)qos_deadlines,
        (unsigned long long)(qos.degraded_l1 + qos.degraded_l2),
        (unsigned long long)qos.degradation_steps_up);
    if (factor >= 2.0 && qos.run.goodput_qps + 1.0 < base.run.goodput_qps) {
      qos_held_at_2x = false;
    }
    Json row = Json::Object();
    row.Set("factor", factor);
    row.Set("arrival_qps", offered);
    row.Set("baseline", ModeJson(base));
    row.Set("qos", ModeJson(qos));
    rows.Push(std::move(row));
  }

  std::printf(
      "\n(base_good / qos_good = completions inside the %lld ms SLO per "
      "second. Past saturation the baseline's unbounded queues push every "
      "response over the SLO — completed throughput stays at capacity but "
      "goodput collapses and 'base_late' queries are still in flight when "
      "the drain gives up. The QoS cluster sheds the excess at admission "
      "(qos_shed), cancels queries whose budget died mid-pipeline "
      "(qos_ddl), and steps effort down under pressure (qos_degr at "
      "degraded nprobe / no rerank), keeping p99 for admitted queries "
      "bounded and goodput at capacity.)\n",
      (long long)(kSloMicros / 1000));
  std::printf("qos goodput %s baseline goodput at >=2x saturation\n",
              qos_held_at_2x ? "held at or above" : "FELL BELOW");

  // Deadline-cancellation probe. In the sweep above the admission bound is
  // sized so admitted queries finish inside their budget — the deadline
  // counters stay at zero, which is the *intended* steady state. To show the
  // cancellation machinery doing real work, run one more 2x-overload cell
  // with a deliberately tight budget (30 ms, under the loaded pipeline's
  // service time): expiry then fires mid-pipeline and each tier's
  // jdvs_qos_deadline_exceeded_total counter records the downstream work it
  // refused to do.
  const Micros probe_budget = 30'000;
  std::printf("\ndeadline probe: 2.0x load with a tight %lld ms budget\n",
              (long long)(probe_budget / 1000));
  const ModeResult probe =
      RunMode(/*qos=*/true, saturation_qps * 2.0, probe_budget);
  std::printf(
      "  offered %llu  completed %llu  shed %llu  deadline_errors %llu\n"
      "  jdvs_qos_deadline_exceeded_total: blender %llu, broker %llu, "
      "searcher %llu\n",
      (unsigned long long)probe.run.offered,
      (unsigned long long)probe.run.completed,
      (unsigned long long)probe.run.overload_errors,
      (unsigned long long)probe.run.deadline_errors,
      (unsigned long long)probe.deadline_blender,
      (unsigned long long)probe.deadline_broker,
      (unsigned long long)probe.deadline_searcher);

  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "overload");
    root.Set("saturation_qps", saturation_qps);
    root.Set("slo_us", kSloMicros);
    root.Set("qos_goodput_held_at_2x", qos_held_at_2x);
    root.Set("rows", std::move(rows));
    Json probe_json = ModeJson(probe);
    probe_json.Set("budget_us", probe_budget);
    probe_json.Set("factor", 2.0);
    root.Set("deadline_probe", std::move(probe_json));
    WriteBenchJson("overload", root);
  }
  return 0;
}
