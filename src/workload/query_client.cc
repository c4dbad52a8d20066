#include "workload/query_client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "net/timeout.h"

namespace jdvs {

QueryClient::QueryClient(VisualSearchCluster& cluster,
                         const QueryWorkloadConfig& config)
    : cluster_(cluster), config_(config) {
  // Snapshot queryable products (with categories) once; query threads then
  // sample without touching the catalog.
  cluster_.catalog().ForEach([this](const ProductRecord& record) {
    if (record.on_market) {
      targets_.push_back(Target{record.id, record.category});
    }
  });
  if (config_.zipf_exponent > 0.0 && !targets_.empty()) {
    // Rank-r weight 1/r^s; the snapshot order is the popularity order.
    zipf_cdf_.resize(targets_.size());
    double total = 0.0;
    for (std::size_t r = 0; r < targets_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1),
                              config_.zipf_exponent);
      zipf_cdf_[r] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

std::size_t QueryClient::PickTarget(Rng& rng) const {
  if (zipf_cdf_.empty()) return rng.Below(targets_.size());
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::size_t>(it - zipf_cdf_.begin());
}

QueryWorkloadResult QueryClient::Run() {
  QueryWorkloadResult result;
  result.latency_micros = std::make_shared<Histogram>();
  if (targets_.empty()) return result;

  std::atomic<std::uint64_t> total_queries{0};
  std::atomic<std::uint64_t> total_errors{0};
  std::atomic<std::uint64_t> total_timeouts{0};
  std::atomic<std::uint64_t> total_deadline{0};
  std::atomic<std::uint64_t> total_retries{0};
  std::atomic<std::uint64_t> total_backoff{0};
  std::atomic<std::uint64_t> subject_hits{0};
  obs::Counter& retries_counter =
      cluster_.registry().GetCounter("jdvs_client_query_retries_total");
  obs::Counter& timeouts_counter =
      cluster_.registry().GetCounter("jdvs_client_timeouts_total");
  const auto& clock = MonotonicClock::Instance();
  const Micros start = clock.NowMicros();
  const Micros deadline =
      config_.duration_micros > 0 ? start + config_.duration_micros : 0;

  std::vector<std::thread> threads;
  threads.reserve(config_.num_threads);
  for (std::size_t t = 0; t < std::max<std::size_t>(config_.num_threads, 1);
       ++t) {
    threads.emplace_back([&, t] {
      Rng rng(HashCombine(Mix64(config_.seed), Mix64(t)));
      std::size_t issued = 0;
      for (;;) {
        if (deadline > 0) {
          if (clock.NowMicros() >= deadline) break;
        } else if (issued >= config_.queries_per_thread) {
          break;
        }
        const Target& target = targets_[PickTarget(rng)];
        QueryImage query;
        query.subject_product = target.product;
        query.true_category = target.category;
        query.query_seed = rng.Next64();
        const Micros q_start = clock.NowMicros();
        try {
          // A shed query costs the client one round trip; the front end's
          // rotation lands the retry on a different blender instance.
          QueryResponse response;
          QueryOptions options{.k = config_.k, .nprobe = 0};
          options.budget_micros = config_.budget_micros;
          options.priority = config_.priority;
          for (std::size_t attempt = 0;; ++attempt) {
            try {
              response = cluster_.front_end().Next().Search(query, options);
              break;
            } catch (const BlenderOverloadedError&) {
              if (attempt >= config_.max_retries) throw;
              total_retries.fetch_add(1, std::memory_order_relaxed);
              retries_counter.Increment();
              if (config_.retry_backoff_micros > 0) {
                // Capped exponential backoff with jitter over the upper
                // half, so a fleet of shed clients spreads out instead of
                // re-stampeding the blenders in lockstep.
                const Micros base = config_.retry_backoff_micros
                                    << std::min<std::size_t>(attempt, 16);
                const Micros capped = std::max<Micros>(
                    std::min(base, config_.retry_backoff_max_micros), 1);
                const Micros wait =
                    capped / 2 +
                    static_cast<Micros>(rng.Below(
                        static_cast<std::uint64_t>(capped / 2 + 1)));
                total_backoff.fetch_add(static_cast<std::uint64_t>(wait),
                                        std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::microseconds(wait));
              }
            }
          }
          result.latency_micros->Record(clock.NowMicros() - q_start);
          const bool hit = std::any_of(
              response.results.begin(), response.results.end(),
              [&](const RankedResult& r) {
                return r.hit.product_id == target.product;
              });
          if (hit) subject_hits.fetch_add(1, std::memory_order_relaxed);
          total_queries.fetch_add(1, std::memory_order_relaxed);
        } catch (const RpcTimeoutError&) {
          total_timeouts.fetch_add(1, std::memory_order_relaxed);
          timeouts_counter.Increment();
          total_errors.fetch_add(1, std::memory_order_relaxed);
        } catch (const qos::DeadlineExceededError&) {
          total_deadline.fetch_add(1, std::memory_order_relaxed);
          total_errors.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          total_errors.fetch_add(1, std::memory_order_relaxed);
        }
        ++issued;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  result.elapsed_micros = clock.NowMicros() - start;
  result.queries = total_queries.load();
  result.errors = total_errors.load();
  result.timeouts = total_timeouts.load();
  result.deadline_errors = total_deadline.load();
  result.retries = total_retries.load();
  result.retry_backoff_micros = total_backoff.load();
  if (result.elapsed_micros > 0) {
    result.qps = static_cast<double>(result.queries) /
                 (static_cast<double>(result.elapsed_micros) * 1e-6);
  }
  if (result.queries > 0) {
    result.subject_hit_rate = static_cast<double>(subject_hits.load()) /
                              static_cast<double>(result.queries);
  }
  return result;
}

OpenLoopResult QueryClient::RunOpenLoop() {
  OpenLoopResult result;
  result.latency_micros = std::make_shared<Histogram>();
  if (targets_.empty() || config_.arrival_qps <= 0.0) return result;

  // Completion state outlives this frame by shared_ptr: a query still in
  // flight when the drain timeout cuts the run must find live counters, not
  // a dead stack.
  struct Shared {
    std::shared_ptr<Histogram> latency;
    Micros slo = 0;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> overload{0};
    std::atomic<std::uint64_t> deadline{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> other{0};
    obs::Counter* timeouts_total = nullptr;
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> slo_ok{0};
    std::atomic<std::uint64_t> outstanding{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto shared = std::make_shared<Shared>();
  shared->latency = result.latency_micros;
  shared->slo = config_.slo_micros;
  shared->timeouts_total =
      &cluster_.registry().GetCounter("jdvs_client_timeouts_total");

  const auto& clock = MonotonicClock::Instance();
  const Micros start = clock.NowMicros();
  const Micros window =
      config_.duration_micros > 0 ? config_.duration_micros : 1'000'000;
  const Micros end = start + window;
  Rng rng(Mix64(config_.seed));

  // Poisson arrivals: exponential inter-arrival gaps at the offered rate.
  // The schedule is absolute (next_arrival accumulates gaps from `start`),
  // so a slow dispatch doesn't stretch the offered rate — the next query
  // fires immediately if its arrival time already passed.
  double next_arrival = static_cast<double>(start);
  std::uint64_t offered = 0;
  for (;;) {
    const double gap =
        -std::log(1.0 - rng.NextDouble()) * 1e6 / config_.arrival_qps;
    next_arrival += gap;
    if (next_arrival >= static_cast<double>(end)) break;
    const Micros at = static_cast<Micros>(next_arrival);
    const Micros now = clock.NowMicros();
    if (now < at) {
      std::this_thread::sleep_for(std::chrono::microseconds(at - now));
    }
    const Target& target = targets_[PickTarget(rng)];
    QueryImage query;
    query.subject_product = target.product;
    query.true_category = target.category;
    query.query_seed = rng.Next64();
    QueryOptions options{.k = config_.k, .nprobe = 0};
    options.budget_micros = config_.budget_micros;
    options.priority = config_.priority;
    ++offered;
    shared->outstanding.fetch_add(1, std::memory_order_acq_rel);
    // Latency counts from the due time, not from dispatch: a query the
    // generator sent late (a stall, a slow dispatch ahead of it) waited
    // that long from the client's point of view.
    const Micros q_start = at;
    cluster_.front_end().Next().SearchAsync(
        query, options,
        [shared, q_start](AsyncResult<QueryResponse> outcome) {
          // Re-fetch the clock singleton: a drain-timeout straggler may run
          // this after RunOpenLoop's frame (and its `clock` ref) is gone.
          const Micros elapsed =
              MonotonicClock::Instance().NowMicros() - q_start;
          if (outcome.ok()) {
            shared->latency->Record(elapsed);
            shared->completed.fetch_add(1, std::memory_order_relaxed);
            if (outcome.value->degradation_level > 0) {
              shared->degraded.fetch_add(1, std::memory_order_relaxed);
            }
            if (shared->slo == 0 || elapsed <= shared->slo) {
              shared->slo_ok.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            try {
              std::rethrow_exception(outcome.error);
            } catch (const BlenderOverloadedError&) {
              shared->overload.fetch_add(1, std::memory_order_relaxed);
            } catch (const qos::DeadlineExceededError&) {
              shared->deadline.fetch_add(1, std::memory_order_relaxed);
            } catch (const RpcTimeoutError&) {
              shared->timeouts.fetch_add(1, std::memory_order_relaxed);
              shared->timeouts_total->Increment();
            } catch (...) {
              shared->other.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (shared->outstanding.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            // Empty lock orders the notify after the drain waiter's
            // predicate check (same discipline as the cluster drain cv).
            { std::lock_guard lock(shared->mu); }
            shared->cv.notify_all();
          }
        });
  }

  // Drain: wait (bounded) for in-flight queries to complete; anything still
  // outstanding afterward keeps its shared_ptr on the counters and is
  // reported as timed out.
  {
    std::unique_lock lock(shared->mu);
    shared->cv.wait_for(
        lock, std::chrono::microseconds(config_.drain_timeout_micros), [&] {
          return shared->outstanding.load(std::memory_order_acquire) == 0;
        });
  }

  result.offered = offered;
  result.completed = shared->completed.load();
  result.overload_errors = shared->overload.load();
  result.deadline_errors = shared->deadline.load();
  result.timeout_errors = shared->timeouts.load();
  result.other_errors = shared->other.load();
  result.degraded = shared->degraded.load();
  result.slo_ok = shared->slo_ok.load();
  result.timed_out_in_flight = shared->outstanding.load();
  result.elapsed_micros = clock.NowMicros() - start;
  const double window_sec = static_cast<double>(window) * 1e-6;
  result.offered_qps = static_cast<double>(offered) / window_sec;
  result.completed_qps = static_cast<double>(result.completed) / window_sec;
  result.goodput_qps = static_cast<double>(result.slo_ok) / window_sec;
  return result;
}

}  // namespace jdvs
