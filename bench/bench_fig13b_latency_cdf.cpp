// Figure 13(b) — "Query Response Time Distribution" (CDF).
//
// Paper: the CDF of query response times at maximum throughput; the 99th
// percentile is 0.3s and the maximum observed response time is 2.1s.
//
// Reproduction: run the testbed at the paper's top load (35 closed-loop
// client threads, where the host's CPU saturates in Figure 13(a)) and dump
// the response time CDF plus the headline percentiles.
#include <cstdio>
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace jdvs;
  using namespace jdvs::bench;

  PrintHeader("Figure 13(b): response-time CDF at max throughput",
              "p99 = 0.3s, max = 2.1s");

  TestbedOptions options;
  options.trace_sample_every = 16;  // feed the per-stage breakdown below
  std::printf("building testbed (100k images, 20 searchers)...\n");
  auto cluster = BuildTestbed(options);

  QueryWorkloadConfig qc;
  qc.num_threads = 35;  // the top of Figure 13(a)'s sweep
  qc.duration_micros = 8'000'000;
  QueryClient client(*cluster, qc);
  const QueryWorkloadResult result = client.Run();

  std::printf("\nran %llu queries at %.0f QPS with 35 threads\n",
              (unsigned long long)result.queries, result.qps);
  std::printf("%s\n",
              SummarizeLatency(*result.latency_micros, "response time").c_str());
  std::printf("paper: p99 0.3s, max 2.1s\n");

  std::printf("\nCDF (response_time_seconds  cumulative_fraction):\n");
  PrintCdfSeconds(std::cout, *result.latency_micros, 30);

  // Where the time goes: per-stage attribution from the metrics registry,
  // plus the worst traced queries' full span trees.
  PrintStageBreakdown(cluster->registry());

  // Critical-path attribution: unlike the raw stage histograms (which
  // overlap — the fan-out runs scans concurrently), these only count time a
  // stage actually gated end-to-end latency, so the shares sum to ~100%.
  std::printf("\ncritical-path attribution (sampled queries):\n%s",
              obs::RenderCriticalPathTable(cluster->registry()).c_str());
  const auto slow = cluster->slow_log().Worst();
  if (!slow.empty()) {
    std::printf("\nslowest traced query (of %zu over %lld us):\n", slow.size(),
                (long long)cluster->slow_log().threshold_micros());
    std::printf("%s", slow.front().rendered.c_str());
  }
  if (WantJson(argc, argv)) {
    Json root = Json::Object();
    root.Set("bench", "fig13b_latency_cdf");
    root.Set("threads", qc.num_threads);
    root.Set("qps", result.qps);
    root.Set("queries", result.queries);
    root.Set("latency", LatencyJson(*result.latency_micros));
    Json cdf = Json::Array();
    for (const auto& [upper_us, fraction] :
         result.latency_micros->CdfPoints()) {
      Json point = Json::Object();
      point.Set("upper_us", upper_us);
      point.Set("fraction", fraction);
      cdf.Push(std::move(point));
    }
    root.Set("cdf", std::move(cdf));
    WriteBenchJson("fig13b_latency_cdf", root);
  }
  cluster->Stop();
  return 0;
}
