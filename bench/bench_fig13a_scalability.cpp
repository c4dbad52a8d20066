// Figure 13(a) — "Query Performance Scalability" (throughput).
//
// Paper (testbed: 100k images, 20 searchers): QPS vs number of concurrent
// client threads from 1 to 35; throughput rises with offered load and
// saturates around ~1800 QPS (~155M searches/day).
//
// Reproduction: the simulated testbed (3 blenders, 3 brokers, 20 searchers,
// 10 ms query-side extraction), then a closed-loop client sweep over 1..35
// threads. Extraction is simulated GPU time that holds no blender thread,
// so the sweep saturates where the host's CPU does (see EXPERIMENTS.md).
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace jdvs;
  using namespace jdvs::bench;

  PrintHeader("Figure 13(a): QPS vs concurrent client threads (1..35)",
              "throughput saturates around ~1800 QPS");

  TestbedOptions options;
  std::printf("building testbed (100k images, 20 searchers)...\n\n");
  auto cluster = BuildTestbed(options);

  Json rows = Json::Array();
  std::printf("%10s %10s  %s\n", "threads", "QPS", "(bar)");
  double max_qps = 0.0;
  for (std::size_t threads = 1; threads <= 35; threads += 2) {
    QueryWorkloadConfig qc;
    qc.num_threads = threads;
    qc.duration_micros = 1'500'000;
    QueryClient client(*cluster, qc);
    const QueryWorkloadResult result = client.Run();
    max_qps = std::max(max_qps, result.qps);
    char bar[51] = {0};
    const int len =
        static_cast<int>(std::min(50.0, result.qps / 40.0));
    for (int i = 0; i < len; ++i) bar[i] = '#';
    std::printf("%10zu %10.0f  %s\n", threads, result.qps, bar);
    Json row = Json::Object();
    row.Set("threads", threads);
    row.Set("qps", result.qps);
    row.Set("latency", LatencyJson(*result.latency_micros));
    rows.Push(std::move(row));
  }
  std::printf("\npeak throughput: %.0f QPS = %.0fM searches/day "
              "(paper: ~1800 QPS = 155M/day)\n",
              max_qps, max_qps * 86400.0 / 1e6);
  PrintPoolSaturation(*cluster);
  PrintQueueWait(cluster->registry());

  // Flight-recorder overhead: the diagnosis layer is always on, so its
  // fault-free cost must be noise. Same fixed load with the recorder off,
  // then on; the QPS delta is the recorder's price (<2% target — one
  // striped spinlock + a ~100-byte struct copy per query).
  double qps_off = 0.0, qps_on = 0.0;
  if (cluster->flight_recorder() != nullptr) {
    auto measure = [&](bool enabled) {
      cluster->flight_recorder()->set_enabled(enabled);
      QueryWorkloadConfig qc;
      qc.num_threads = 16;
      qc.duration_micros = 2'000'000;
      QueryClient client(*cluster, qc);
      return client.Run().qps;
    };
    measure(true);  // warmup so run order doesn't skew the comparison
    qps_off = measure(false);
    qps_on = measure(true);
    const double overhead =
        qps_off <= 0.0 ? 0.0 : 100.0 * (qps_off - qps_on) / qps_off;
    std::printf("\nflight recorder overhead @16 threads: "
                "%.0f QPS off vs %.0f QPS on (%+.1f%%, target < 2%%)\n",
                qps_off, qps_on, overhead);
  }
  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "fig13a_scalability");
    root.Set("peak_qps", max_qps);
    root.Set("recorder_off_qps", qps_off);
    root.Set("recorder_on_qps", qps_on);
    root.Set("rows", std::move(rows));
    WriteBenchJson("fig13a_scalability", root);
  }
  cluster->Stop();
  return 0;
}
