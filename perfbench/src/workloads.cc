// Workload definitions, cluster set-up and the open-loop query/update
// streams.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "stats.h"

namespace perfbench {
namespace {

// The paper's Fig. 13 testbed: 20k products (~100k images), 20 partitions,
// 3 brokers, 3 blenders, charged hops, 10 ms query-side extraction.
constexpr std::size_t kProducts = 20000;
constexpr std::size_t kPartitions = 20;

std::vector<WorkloadSpec> MakeSpecs() {
  return {
      {.name = "testbed_fabric", .tier_probe = true},
      {.name = "realtime_mixed", .update_qps = 1000.0, .ladder_start = 8},
  };
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

ClusterConfig MakeConfig(std::uint64_t seed) {
  ClusterConfig config;
  config.num_partitions = kPartitions;
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
  config.realtime_enabled = true;
  config.trace_sample_every = 0;
  config.build_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  config.seed = seed;
  return config;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Payload bytes of one partition's posting lists (rows padded to 16 floats).
std::size_t PayloadBytes(const Searcher& searcher, std::size_t dim) {
  const std::size_t padded = (dim + 15) / 16 * 16;
  return searcher.index_stats().total_images * padded * sizeof(float);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : Specs()) out.push_back(s.name);
  return out;
}

std::unique_ptr<Testbed> BuildTestbed(std::uint64_t seed, SetupTimes* times) {
  auto bed = std::make_unique<Testbed>();
  bed->seed = seed;
  SetupTimes t;

  auto t0 = std::chrono::steady_clock::now();
  bed->cluster = std::make_unique<VisualSearchCluster>(MakeConfig(seed));
  VisualSearchCluster& cluster = *bed->cluster;
  t.start_s += Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  CatalogGenConfig cg;
  cg.num_products = kProducts;
  cg.num_categories = 50;
  cg.min_images_per_product = 3;
  cg.max_images_per_product = 7;
  cg.seed = seed ^ 0x11;
  GenerateCatalog(cg, cluster.catalog(), cluster.image_store(),
                  &cluster.features());
  t.catalog_s = Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  cluster.TrainQuantizer();
  t.train_s = Seconds(t0);

  // One full index per partition, built on at most nproc threads.
  t0 = std::chrono::steady_clock::now();
  {
    const std::uint64_t hwm = cluster.last_update_sequence();
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    auto worker = [&] {
      for (std::size_t p; (p = next.fetch_add(1)) < kPartitions;) {
        try {
          cluster.searcher(p).InstallIndex(cluster.BuildPartitionIndex(p),
                                           hwm);
        } catch (...) {
          std::lock_guard lock(error_mu);
          error = std::current_exception();
        }
      }
    };
    const std::size_t n = std::min<std::size_t>(
        kPartitions,
        std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < n; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
    if (error) std::rethrow_exception(error);
  }
  t.build_s = Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  cluster.Start();
  t.start_s += Seconds(t0);

  // What the query generator samples: on-market products and the filter
  // thresholds.
  std::vector<std::uint64_t> prices, sales;
  cluster.catalog().ForEach([&](const ProductRecord& r) {
    if (!r.on_market) return;
    bed->targets.emplace_back(r.id, r.category);
    prices.push_back(r.attributes.price_cents);
    sales.push_back(r.attributes.sales);
  });
  if (bed->targets.empty()) throw std::runtime_error("empty catalog");
  std::sort(prices.begin(), prices.end());
  std::sort(sales.begin(), sales.end());
  // Narrow: own category (1/50) and the cheapest ~5% -> ~0.1% selectivity.
  bed->narrow_price_max = prices[prices.size() / 20];
  // Broad: the lower half by sales -> ~50% selectivity.
  bed->broad_sales_max = sales[sales.size() / 2];
  if (times != nullptr) *times = t;
  return bed;
}

void UseZipfPopularity(Testbed& bed, double exponent) {
  std::sort(bed.targets.begin(), bed.targets.end());
  bed.zipf_cdf.resize(bed.targets.size());
  double total = 0.0;
  for (std::size_t r = 0; r < bed.targets.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    bed.zipf_cdf[r] = total;
  }
  for (double& c : bed.zipf_cdf) c /= total;
}

std::pair<double, double> ServeTiered(Testbed& bed, double budget_share,
                                      const std::string& dir) {
  VisualSearchCluster& cluster = *bed.cluster;
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  std::vector<std::size_t> budgets;
  for (std::size_t p = 0; p < cluster.num_searchers(); ++p) {
    paths.push_back(dir + "/partition-" + std::to_string(p) + ".jdvsidx");
    budgets.push_back(static_cast<std::size_t>(
        budget_share *
        static_cast<double>(PayloadBytes(cluster.searcher_flat(p), 64))));
  }
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < paths.size(); ++p) {
    cluster.searcher_flat(p).SaveTieredSnapshot(paths[p]);
  }
  const double save_s = Seconds(t0);
  t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < paths.size(); ++p) {
    cluster.searcher_flat(p).InstallFromTieredSnapshot(paths[p], budgets[p]);
  }
  return {save_s, Seconds(t0)};
}

std::vector<QueryImage> MakeQueries(const Testbed& bed, std::size_t count,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<QueryImage> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t pick;
    if (bed.zipf_cdf.empty()) {
      pick = static_cast<std::size_t>(rng() % bed.targets.size());
    } else {
      const auto it = std::lower_bound(bed.zipf_cdf.begin(),
                                       bed.zipf_cdf.end(), unit(rng));
      pick = std::min<std::size_t>(it - bed.zipf_cdf.begin(),
                                   bed.targets.size() - 1);
    }
    QueryImage q;
    q.subject_product = bed.targets[pick].first;
    q.true_category = bed.targets[pick].second;
    q.query_seed = rng();
    out.push_back(q);
  }
  return out;
}

PhaseResult RunQueryPhase(Testbed& bed, const PhaseOptions& options) {
  PhaseResult result;
  result.rate_qps = options.rate_qps;
  const std::vector<std::int64_t> schedule =
      PoissonSchedule(options.rate_qps, options.window_us, options.seed);
  result.queries = MakeQueries(bed, schedule.size(), options.seed ^ 0x9E37);

  // Completion state is shared with the callbacks: a straggler finishing
  // after the drain timeout must still find it alive.
  struct Shared {
    explicit Shared(std::size_t n) : book(n), answers(n) {}
    RequestBook book;
    std::mutex answers_mu;
    std::vector<std::vector<RankedResult>> answers;  // guarded by answers_mu
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::int64_t last_done_us = 0;  // guarded by done_mu
  };
  auto shared = std::make_shared<Shared>(schedule.size());
  SpanRecorder* spans = options.spans;
  const bool keep = options.keep_answers;

  const GeneratorClock clock = SteadyGeneratorClock();
  const std::int64_t start = clock.now_us() + 2000;
  result.start_us = start;
  result.end_us = start + options.window_us;
  std::int64_t last_sample = 0;
  const std::vector<std::int64_t> due = RunSchedule(
      schedule, start, clock,
      [&](std::size_t i, std::int64_t due_us) {
        const QueryImage& q = result.queries[i];
        QueryOptions qo;
        qo.k = 10;
        const std::int64_t sent = SteadyNowMicros();
        shared->book.Sent(i, due_us, sent);
        bed.cluster->front_end().Next().SearchAsync(
            q, qo,
            [shared, spans, keep, i, due_us,
             sent](AsyncResult<QueryResponse> outcome) {
              const std::int64_t done = SteadyNowMicros();
              const bool ok = outcome.ok();
              const bool degraded = ok && (outcome.value->degraded ||
                                           outcome.value->degradation_level > 0);
              if (ok && keep) {
                std::lock_guard lock(shared->answers_mu);
                shared->answers[i] = std::move(outcome.value->results);
              }
              if (spans != nullptr) {
                const std::uint64_t trace = spans->NextId();
                const std::uint64_t root =
                    spans->Record("client.query", due_us, done, trace);
                spans->Record("blender.call", sent, done, trace, root);
              }
              {
                std::lock_guard lock(shared->done_mu);
                shared->last_done_us = std::max(shared->last_done_us, done);
              }
              shared->book.Done(i, done, ok, degraded);
              if (shared->book.outstanding() == 0) {
                { std::lock_guard lock(shared->done_mu); }
                shared->done_cv.notify_all();
              }
            });
      },
      [&](std::int64_t now) {
        if (now - last_sample >= 2000) {
          last_sample = now;
          result.inflight.emplace_back(
              now, static_cast<double>(shared->book.outstanding()));
        }
      });
  // Drain: bounded wait for the last completions.
  {
    std::unique_lock lock(shared->done_mu);
    // Long enough for an overloaded capacity rung to drain, so its backlog
    // does not leak into the next phase.
    shared->done_cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return shared->book.outstanding() == 0;
    });
    result.last_done_us = shared->last_done_us;
  }
  result.first_due_us = due.empty() ? start : due.front();
  result.summary = shared->book.Summarize();
  if (keep) {
    std::lock_guard lock(shared->answers_mu);
    result.answers = shared->answers;
  }
  return result;
}

std::vector<std::pair<std::int64_t, double>> LatencySeries(
    const RequestBook::Summary& summary) {
  std::vector<std::pair<std::int64_t, double>> out;
  out.reserve(summary.ok_due_us.size());
  for (std::size_t i = 0; i < summary.ok_due_us.size(); ++i) {
    out.emplace_back(summary.ok_due_us[i], summary.latency_from_due_us[i]);
  }
  return out;
}

RungResult ToRung(const PhaseResult& phase) {
  RungResult r;
  const RequestBook::Summary& s = phase.summary;
  r.offered_qps = phase.rate_qps;
  r.sent = s.sent;
  r.ok = s.ok;
  const double span_s =
      static_cast<double>(phase.last_done_us - phase.first_due_us) * 1e-6;
  r.completed_qps = span_s > 0 ? static_cast<double>(s.ok) / span_s : 0.0;
  r.p99_ms = WindowedQuantile(LatencySeries(s),
                              (phase.end_us - phase.start_us) / 4 + 1, 0.99,
                              100) /
             1000.0;
  r.error_ratio = s.sent == 0 ? 0.0
                              : static_cast<double>(s.errors +
                                                    s.never_completed) /
                                    static_cast<double>(s.sent);
  std::tie(r.inflight_head, r.inflight_tail) =
      InflightHeadTail(phase.inflight, phase.start_us, phase.end_us);
  return r;
}

// ------------------------------------------------------------ update stream

UpdateStream::UpdateStream(Testbed& bed, double rate_qps, std::uint64_t seed,
                           std::int64_t visibility_limit_us)
    : bed_(bed), rate_qps_(rate_qps), seed_(seed),
      limit_us_(visibility_limit_us) {}

UpdateStream::~UpdateStream() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
  }
}

void UpdateStream::Start(std::int64_t max_duration_us) {
  // Table 1 mix with flat hourly weights: the rate is set by the schedule,
  // not by the trace's diurnal shape.
  DayTraceConfig dc;
  dc.total_messages = static_cast<std::uint64_t>(
      rate_qps_ * static_cast<double>(max_duration_us) * 1e-6 * 1.2 + 64);
  dc.hourly_weights.fill(1.0);
  dc.seed = seed_;
  DayTraceGenerator gen(dc, bed_.cluster->catalog());
  pool_.clear();
  gen.Generate([&](const TraceEvent& e) { pool_.push_back(e.message); });
  stop_ = false;
  thread_ = std::thread([this, max_duration_us] { Loop(max_duration_us); });
}

UpdateStats UpdateStream::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  return std::move(stats_);
}

void UpdateStream::Loop(std::int64_t max_duration_us) {
  VisualSearchCluster& cluster = *bed_.cluster;
  const std::vector<std::int64_t> schedule =
      PoissonSchedule(rate_qps_, max_duration_us, seed_ ^ 0x5151);
  struct Pending {
    std::uint64_t seq;
    std::int64_t due;
    bool first_seen;
  };
  std::deque<Pending> pending;
  const std::int64_t start = SteadyNowMicros();
  std::size_t next = 0;
  std::int64_t drain_deadline = 0;
  for (;;) {
    const std::int64_t now = SteadyNowMicros();
    const bool publishing =
        !stop_.load(std::memory_order_relaxed) && next < schedule.size() &&
        next < pool_.size();
    if (!publishing && drain_deadline == 0) drain_deadline = now + limit_us_;
    if (publishing && now >= start + schedule[next]) {
      const std::int64_t due = start + schedule[next];
      ProductUpdateMessage message = pool_[next];
      message.timestamp_micros = now;
      const std::int64_t t0 = SteadyNowMicros();
      cluster.PublishUpdate(message);
      const std::int64_t t1 = SteadyNowMicros();
      // Single publisher: the log's last sequence is this update's.
      const std::uint64_t seq = cluster.last_update_sequence();
      stats_.publish_us.push_back(static_cast<double>(t1 - t0));
      stats_.messages.push_back(std::move(message));
      ++stats_.published;
      pending.push_back(Pending{seq, due, false});
      ++next;
      continue;
    }
    // Visibility: searchers apply in sequence order, so the slowest
    // searcher's mark bounds "visible everywhere" and the fastest's bounds
    // "visible somewhere".
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (std::size_t s = 0; s < cluster.num_searchers(); ++s) {
      const std::uint64_t a = cluster.searcher_flat(s).applied_sequence();
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    for (Pending& p : pending) {
      if (p.seq > hi) break;
      if (!p.first_seen) {
        p.first_seen = true;
        stats_.first_visible_us.push_back(static_cast<double>(now - p.due));
      }
    }
    while (!pending.empty() && pending.front().seq <= lo) {
      const double v = static_cast<double>(now - pending.front().due);
      stats_.visible_us.push_back(v);
      stats_.visible_due_us.push_back(pending.front().due);
      if (v > static_cast<double>(limit_us_)) ++stats_.late;
      pending.pop_front();
    }
    if (!publishing && (pending.empty() || now >= drain_deadline)) break;
    std::int64_t wake = now + 50;
    if (publishing) wake = std::min(wake, start + schedule[next]);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::microseconds(wake)));
  }
  // Whatever is still pending missed the visibility limit.
  stats_.late += pending.size();
}

}  // namespace perfbench
