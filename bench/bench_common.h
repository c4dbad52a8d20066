// Shared setup helpers for the benchmark harnesses.
//
// Every harness prints a self-describing report: the paper reference, the
// workload parameters, and the regenerated rows/series. Absolute numbers
// differ from the paper's production testbed (this is an in-process
// simulation); the *shapes* are the reproduction target — see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "jdvs/jdvs.h"

namespace jdvs::bench {

// Minimal JSON value tree for the benches' --json output. Insertion order is
// preserved so the emitted files diff cleanly run to run. Only what the
// harnesses need: objects, arrays, numbers, strings, bools.
class Json {
 public:
  Json() = default;
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(long v) : kind_(Kind::kInt), int_(v) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}
  Json(unsigned v) : kind_(Kind::kInt), int_(static_cast<long long>(v)) {}
  Json(unsigned long v) : kind_(Kind::kInt), int_(static_cast<long long>(v)) {}
  Json(unsigned long long v)
      : kind_(Kind::kInt), int_(static_cast<long long>(v)) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}

  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  Json& Set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& Push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  std::string Dump(int indent = 0) const {
    std::ostringstream os;
    Write(os, indent);
    return os.str();
  }

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  static void WriteString(std::ostream& os, std::string_view s) {
    os << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
          } else {
            os << c;
          }
      }
    }
    os << '"';
  }

  void Write(std::ostream& os, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kNull: os << "null"; break;
      case Kind::kBool: os << (bool_ ? "true" : "false"); break;
      case Kind::kInt: os << int_; break;
      case Kind::kDouble: {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", double_);
        os << buf;
        break;
      }
      case Kind::kString: WriteString(os, string_); break;
      case Kind::kObject: {
        if (members_.empty()) {
          os << "{}";
          break;
        }
        os << "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          os << inner;
          WriteString(os, members_[i].first);
          os << ": ";
          members_[i].second.Write(os, indent + 1);
          if (i + 1 < members_.size()) os << ",";
          os << "\n";
        }
        os << pad << "}";
        break;
      }
      case Kind::kArray: {
        if (items_.empty()) {
          os << "[]";
          break;
        }
        os << "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          os << inner;
          items_[i].Write(os, indent + 1);
          if (i + 1 < items_.size()) os << ",";
          os << "\n";
        }
        os << pad << "]";
        break;
      }
    }
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

// True when --json was passed: the bench then also writes its result rows to
// BENCH_<name>.json via WriteBenchJson.
inline bool WantJson(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return true;
  }
  return false;
}

inline void WriteBenchJson(const std::string& bench_name, const Json& root) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  out << root.Dump() << "\n";
  std::printf("\nwrote %s\n", path.c_str());
}

// Histogram summary as a JSON object (microsecond units, like the text
// reports).
inline Json LatencyJson(const Histogram& h) {
  Json j = Json::Object();
  j.Set("count", h.Count());
  j.Set("mean_us", h.Mean());
  j.Set("p50_us", h.P50());
  j.Set("p90_us", h.P90());
  j.Set("p99_us", h.P99());
  j.Set("max_us", h.Max());
  return j;
}

// The paper's performance testbed (Section 3.2): 100,000 images over 20
// searchers, 6 blender/broker servers. ~20k products x ~5 images = 100k.
struct TestbedOptions {
  std::size_t num_products = 20000;
  std::size_t num_partitions = 20;
  std::size_t num_brokers = 3;
  std::size_t num_blenders = 3;
  bool realtime = true;
  // Query-side CNN cost: simulated GPU time, the largest share of a query's
  // latency. It holds no blender thread, so it sets latency, not capacity.
  std::int64_t query_extraction_micros = 10'000;
  std::int64_t searcher_threads = 2;
  std::int64_t blender_threads = 6;
  std::int64_t broker_threads = 6;
  double initial_off_market_fraction = 0.0;
  // End-to-end tracing: sample 1 in N queries/updates (0 = off). Sampled
  // traces feed the per-stage breakdown printed at the end of a run.
  std::uint64_t trace_sample_every = 0;
  std::uint64_t seed = 2018;
};

inline ClusterConfig MakeTestbedConfig(const TestbedOptions& options) {
  ClusterConfig config;
  config.num_partitions = options.num_partitions;
  config.num_brokers = options.num_brokers;
  config.num_blenders = options.num_blenders;
  config.searcher_threads = static_cast<std::size_t>(options.searcher_threads);
  config.broker_threads = static_cast<std::size_t>(options.broker_threads);
  config.blender_threads = static_cast<std::size_t>(options.blender_threads);
  config.hop_latency = {.base_micros = 150, .jitter_median_micros = 100,
                        .sigma = 0.6};
  config.embedder = {.dim = 64, .num_categories = 50, .seed = options.seed};
  config.detector = {.num_categories = 50, .top1_accuracy = 0.95};
  config.extraction = {.mean_micros = 0};  // latency benches override
  config.query_extraction_micros = options.query_extraction_micros;
  config.kmeans.num_clusters = 64;
  config.training_sample = 4096;
  config.ivf.nprobe = 8;
  config.realtime_enabled = options.realtime;
  config.trace_sample_every = options.trace_sample_every;
  config.seed = options.seed;
  return config;
}

// Builds the testbed: generates the catalog (features prewarmed — the
// production steady state), builds and installs full indexes, starts
// real-time consumers.
inline std::unique_ptr<VisualSearchCluster> BuildTestbed(
    const TestbedOptions& options) {
  auto cluster = std::make_unique<VisualSearchCluster>(
      MakeTestbedConfig(options));
  CatalogGenConfig cg;
  cg.num_products = options.num_products;
  cg.num_categories = 50;
  cg.min_images_per_product = 3;
  cg.max_images_per_product = 7;
  cg.initial_off_market_fraction = options.initial_off_market_fraction;
  cg.seed = options.seed ^ 0x11;
  GenerateCatalog(cg, cluster->catalog(), cluster->image_store(),
                  &cluster->features());
  cluster->BuildAndInstallFullIndexes();
  cluster->Start();
  return cluster;
}

inline void PrintHeader(const char* id, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

// Per-stage latency breakdown from the cluster's metrics registry: every
// stage histogram the pipeline records (jdvs_stage_micros{stage=...}),
// blender to searcher to real-time apply. Stages with no samples (e.g.
// rt_apply in a W/O-realtime run) are skipped.
inline void PrintStageBreakdown(const obs::Registry& registry) {
  static constexpr const char* kStages[] = {
      "query_total", "extract", "broker_fanout", "searcher_filter",
      "searcher_io", "searcher_scan", "rank", "rt_apply"};
  std::printf("\nper-stage latency breakdown (us):\n");
  std::printf("  %-14s %10s %10s %10s %10s\n", "stage", "count", "mean",
              "p90", "p99");
  for (const char* stage : kStages) {
    const Histogram* h = registry.FindHistogram(
        obs::Labeled("jdvs_stage_micros", "stage", stage));
    if (h == nullptr || h->Count() == 0) continue;
    std::printf("  %-14s %10llu %10.0f %10lld %10lld\n", stage,
                (unsigned long long)h->Count(), h->Mean(),
                (long long)h->P90(), (long long)h->P99());
  }
}

// Queue-wait table: the jdvs_pool_queue_wait_micros{tier=...} histograms —
// how long submitted work sat in each tier's pool queue before a worker
// picked it up. Unlike the depth gauges (point samples), this integrates
// the whole run, so it shows saturation the gauges can miss between
// samples. Tiers with no samples are skipped.
inline void PrintQueueWait(const obs::Registry& registry) {
  static constexpr const char* kTiers[] = {"blender", "broker", "searcher"};
  std::printf("\npool queue wait (us):\n");
  std::printf("  %-10s %10s %10s %10s %10s\n", "tier", "count", "mean",
              "p90", "p99");
  for (const char* tier : kTiers) {
    const Histogram* h = registry.FindHistogram(
        obs::Labeled("jdvs_pool_queue_wait_micros", "tier", tier));
    if (h == nullptr || h->Count() == 0) continue;
    std::printf("  %-10s %10llu %10.0f %10lld %10lld\n", tier,
                (unsigned long long)h->Count(), h->Mean(),
                (long long)h->P90(), (long long)h->P99());
  }
}

// Pool-saturation table: busy workers and queue depth (current + peak) per
// tier, from the jdvs_pool_* gauges. With the continuation-passing pipeline
// peak busy stays near the work actually executing; a blocking pipeline
// instead pins busy == threads while requests wait on lower tiers.
inline void PrintPoolSaturation(VisualSearchCluster& cluster) {
  cluster.SamplePoolGauges();
  const obs::Registry& registry = cluster.registry();
  std::printf("\npool saturation (threads busy / queued tasks):\n");
  std::printf("  %-16s %8s %10s %10s %12s\n", "node", "busy", "busy_peak",
              "queued", "queued_peak");
  auto row = [&](const std::string& node) {
    auto value = [&](const char* family) {
      const obs::Gauge* g =
          registry.FindGauge(obs::Labeled(family, "node", node));
      return g == nullptr ? 0ll : (long long)g->Value();
    };
    std::printf("  %-16s %8lld %10lld %10lld %12lld\n", node.c_str(),
                value("jdvs_pool_busy_threads"),
                value("jdvs_pool_busy_threads_peak"),
                value("jdvs_pool_queue_depth"),
                value("jdvs_pool_queue_depth_peak"));
  };
  for (std::size_t i = 0; i < cluster.num_blenders(); ++i) {
    row(cluster.blender(i).name());
  }
  for (std::size_t i = 0; i < cluster.num_brokers(); ++i) {
    row(cluster.broker(i).name());
  }
  // One representative searcher row per partition would be noise at 20
  // partitions; aggregate the tier instead.
  long long busy = 0, busy_peak = 0, queued = 0, queued_peak = 0;
  for (std::size_t i = 0; i < cluster.num_searchers(); ++i) {
    const ThreadPool& pool = cluster.searcher_flat(i).node().pool();
    busy += (long long)pool.busy_threads();
    busy_peak += (long long)pool.peak_busy_threads();
    queued += (long long)pool.queue_depth();
    queued_peak += (long long)pool.peak_queue_depth();
  }
  std::printf("  %-16s %8lld %10lld %10lld %12lld\n", "searchers(sum)", busy,
              busy_peak, queued, queued_peak);
}

}  // namespace jdvs::bench
