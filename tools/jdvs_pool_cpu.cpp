// jdvs_pool_cpu — CPU per query by node pool on the Fig. 13 testbed.
//
// Builds the 20-partition testbed (3 brokers, 3 blenders, 2/6/6 pool
// threads, 150 us + lognormal hop latency, 10 ms query-side extraction,
// 20k products, 64 lists, nprobe 8), offers uniform open-loop queries at
// --qps, and reads /proc/self/task/*/{stat,status} around a --seconds
// window. Pool workers are named after their node (ThreadPool), so each
// thread falls into a group by name: searcher, broker, blender; everything
// else (timer, consumers, the load generator, exited threads) is the
// process total from getrusage minus those groups. Prints user and system
// CPU microseconds and context switches (voluntary + involuntary) per
// completed query.
//
//   jdvs_pool_cpu [--qps=900] [--seconds=20] [--warmup=3] [--seed=301]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "jdvs/jdvs.h"

namespace {

constexpr std::array<const char*, 3> kGroups = {"searcher", "broker",
                                                "blender"};

struct Usage {
  double user_us = 0;
  double sys_us = 0;
  double switches = 0;
};

// Per-thread usage keyed by tid, with the thread's group (3 = other).
struct ThreadUsage {
  std::size_t group = kGroups.size();
  Usage usage;
};

std::size_t GroupOf(const std::string& comm) {
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    if (comm.rfind(std::string(kGroups[g]) + "-", 0) == 0) return g;
  }
  return kGroups.size();
}

std::map<long, ThreadUsage> ReadThreads() {
  const double us_per_tick = 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::map<long, ThreadUsage> out;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const long tid = std::stol(entry.path().filename().string());
    std::ifstream stat_file(entry.path() / "stat");
    std::string stat((std::istreambuf_iterator<char>(stat_file)),
                     std::istreambuf_iterator<char>());
    const std::size_t open = stat.find('(');
    const std::size_t close = stat.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    ThreadUsage t;
    t.group = GroupOf(stat.substr(open + 1, close - open - 1));
    // Fields after the command: state is field 3, utime 14, stime 15.
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) t.usage.user_us = std::stod(field) * us_per_tick;
      if (i == 15) t.usage.sys_us = std::stod(field) * us_per_tick;
    }
    std::ifstream status(entry.path() / "status");
    for (std::string line; std::getline(status, line);) {
      if (line.find("ctxt_switches:") != std::string::npos) {
        t.usage.switches += std::stod(line.substr(line.find(':') + 1));
      }
    }
    out[tid] = t;
  }
  return out;
}

Usage ReadProcess() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jdvs;
  const Flags flags(argc, argv);
  const double qps = flags.GetDouble("qps", 900.0);
  const double seconds = flags.GetDouble("seconds", 20.0);
  const double warmup = flags.GetDouble("warmup", 3.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 301));
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());
  }

  ClusterConfig config;
  config.num_partitions = 20;
  config.num_brokers = 3;
  config.num_blenders = 3;
  config.searcher_threads = 2;
  config.broker_threads = 6;
  config.blender_threads = 6;
  config.hop_latency = {.base_micros = 150, .jitter_median_micros = 100,
                        .sigma = 0.6};
  config.embedder = {.dim = 64, .num_categories = 50, .seed = seed};
  config.detector = {.num_categories = 50, .top1_accuracy = 0.95};
  config.extraction = {.mean_micros = 0};
  config.query_extraction_micros = 10'000;
  config.kmeans.num_clusters = 64;
  config.training_sample = 4096;
  config.ivf.nprobe = 8;
  config.build_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  config.seed = seed;

  std::printf("building the 20-partition testbed (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  VisualSearchCluster cluster(config);
  CatalogGenConfig cg;
  cg.num_products = 20'000;
  cg.num_categories = 50;
  cg.min_images_per_product = 3;
  cg.max_images_per_product = 7;
  cg.seed = seed ^ 0x11;
  GenerateCatalog(cg, cluster.catalog(), cluster.image_store(),
                  &cluster.features());
  cluster.BuildAndInstallFullIndexes();
  cluster.Start();

  const auto run = [&](double secs) {
    QueryWorkloadConfig qc;
    qc.arrival_qps = qps;
    qc.duration_micros = static_cast<Micros>(secs * 1e6);
    qc.seed = seed;
    return QueryClient(cluster, qc).RunOpenLoop();
  };
  run(warmup);

  const auto threads_before = ReadThreads();
  const Usage process_before = ReadProcess();
  const OpenLoopResult result = run(seconds);
  const auto threads_after = ReadThreads();
  const Usage process_after = ReadProcess();

  std::array<Usage, kGroups.size() + 1> groups{};
  std::array<std::size_t, kGroups.size() + 1> thread_counts{};
  for (const auto& [tid, after] : threads_after) {
    ++thread_counts[after.group];
    if (after.group == kGroups.size()) continue;
    const auto before = threads_before.find(tid);
    Usage delta = after.usage;
    if (before != threads_before.end()) {
      delta.user_us -= before->second.usage.user_us;
      delta.sys_us -= before->second.usage.sys_us;
      delta.switches -= before->second.usage.switches;
    }
    Usage& g = groups[after.group];
    g.user_us += delta.user_us;
    g.sys_us += delta.sys_us;
    g.switches += delta.switches;
  }
  Usage& other = groups[kGroups.size()];
  other = {process_after.user_us - process_before.user_us,
           process_after.sys_us - process_before.sys_us,
           process_after.switches - process_before.switches};
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    other.user_us -= groups[g].user_us;
    other.sys_us -= groups[g].sys_us;
    other.switches -= groups[g].switches;
  }

  const double queries =
      static_cast<double>(std::max<std::uint64_t>(result.completed, 1));
  std::printf("%llu queries completed of %llu offered at %.0f QPS over "
              "%.1f s\n\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.offered), qps, seconds);
  std::printf("%-10s %8s %14s %14s %16s\n", "pool", "threads",
              "user us/query", "sys us/query", "switches/query");
  Usage total;
  for (std::size_t g = 0; g <= kGroups.size(); ++g) {
    const char* name = g < kGroups.size() ? kGroups[g] : "other";
    std::printf("%-10s %8zu %14.0f %14.0f %16.1f\n", name, thread_counts[g],
                groups[g].user_us / queries, groups[g].sys_us / queries,
                groups[g].switches / queries);
    total.user_us += groups[g].user_us;
    total.sys_us += groups[g].sys_us;
    total.switches += groups[g].switches;
  }
  std::printf("%-10s %8s %14.0f %14.0f %16.1f\n", "process", "",
              total.user_us / queries, total.sys_us / queries,
              total.switches / queries);
  std::printf("\nprocess cpu_ms_per_query %.3f\n",
              (total.user_us + total.sys_us) / queries / 1000.0);
  cluster.Stop();
  return 0;
}
