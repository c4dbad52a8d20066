// Blender: top tier of Figure 10.
//
// "When a blender receives an image query request, it extracts the features
// and sends them to all the brokers. The blender also combines and ranks the
// results and returns to the user." Query-side feature extraction (detect
// the item, identify its category, run the CNN) happens here, charged via a
// configurable extraction cost.
//
// Execution model: no stage holds a blender pool thread while it waits.
// The simulated GPU time of extraction waits in the pool's delay heap
// (ThreadPool::SubmitAfter), like a message on the wire; the feature
// read-out, cache lookup and the broker fan-out run as the continuation
// once it is due. Each blender keeps a bounded number of fan-outs
// outstanding; a query past that window waits in a FIFO after extraction
// (cheap: no broker or searcher holds any of its state yet) and is
// dispatched when an earlier fan-out's last broker answers. The global
// merge, attribute ranking, cache fill and span finish are continuations
// too: broker results count down a FanInCollector, and the merge/rank leg
// is re-posted to the blender pool by the last broker completion. The
// public SearchAsync future is fulfilled by a promise at the end of the
// chain; only the blocking Search() facade ever waits.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "embedding/category_detector.h"
#include "embedding/extractor.h"
#include "net/node.h"
#include "net/rpc.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "qos/admission.h"
#include "qos/deadline.h"
#include "qos/load_controller.h"
#include "search/broker.h"
#include "search/query_cache.h"
#include "search/ranking.h"
#include "search/types.h"

namespace jdvs {

// Thrown (through the returned future) when a blender sheds load because
// its in-flight query count exceeded the configured admission limit. The
// front end treats an overloaded blender like a failed one and retries on
// another instance.
class BlenderOverloadedError : public std::runtime_error {
 public:
  explicit BlenderOverloadedError(const std::string& blender)
      : std::runtime_error("blender overloaded: " + blender) {}
};

class Blender {
 public:
  struct Config {
    std::size_t threads = 4;
    LatencyModel latency;
    std::uint64_t seed = 0;
    // Simulated query-side CNN cost (item detection + feature extraction).
    std::int64_t query_extraction_micros = 0;
    RankingConfig ranking;
    std::size_t default_k = 10;
    std::size_t nprobe = 0;  // 0 = searcher index default
    // When true, the detector's category is pushed down to searchers as a
    // scan filter (Section 2.4's category identification narrowing the
    // search) instead of only boosting the ranking. A misdetection then
    // excludes the true product from retrieval entirely.
    bool use_category_filter = false;
    // Admission control: maximum queries in flight (queued + executing) on
    // this blender before new ones are shed; 0 disables the limit.
    std::size_t max_in_flight = 0;
    // QoS knobs (all default to the pre-QoS behavior):
    // Extra cap on background-class queries (recovery catch-up, probes) so
    // they can never occupy more than this share of slots; 0 = no extra cap.
    std::size_t max_background_in_flight = 0;
    // Token bucket on admissions per second across both classes; 0 = off.
    double admission_tokens_per_sec = 0.0;
    double admission_token_burst = 0.0;  // 0 = one second of tokens
    // Latency budget stamped on queries that don't carry one
    // (QueryOptions::kNoBudget); 0 = unlimited.
    Micros default_budget_micros = 0;
    // Shared degradation controller (typically owned by the cluster, fed by
    // every blender); null = never degrade.
    qos::LoadController* load_controller = nullptr;
    // nprobe used while degraded (level >= 1); 0 falls back to 1, the most
    // aggressive shrink — the cluster builder normally sets this to a
    // fraction of the index's configured nprobe.
    std::size_t degraded_nprobe = 0;
    // Per-call blender->broker RPC timeout; 0 = none. A broker whose reply
    // the fabric swallowed then costs one timeout instead of hanging the
    // whole fan-in: the slot fails typed (RpcTimeoutError), the blender
    // degrades to the surviving brokers' coverage, and the query completes.
    Micros broker_rpc_timeout_micros = 0;
    // Result cache (off by default: the paper's freshness requirement).
    bool enable_result_cache = false;
    QueryCacheConfig cache;
    // Source of the index-version counter for strict cache invalidation;
    // null falls back to TTL-only staleness bounding.
    const std::atomic<std::uint64_t>* index_version = nullptr;
    // Observability (null = process-global defaults). The tracer decides
    // which queries get a root span (its sample_every knob); the registry
    // receives per-blender counters and the per-stage latency histograms;
    // the slow log retains span trees of queries over its threshold.
    obs::Registry* registry = nullptr;
    obs::Tracer* tracer = nullptr;
    obs::SlowQueryLog* slow_log = nullptr;
    // Performance diagnosis (null = off). The flight recorder receives a
    // stage-timing record for *every* completed query (sampled or not); the
    // aggregator folds each sampled query's critical path into registry
    // histograms after the root span finishes.
    obs::FlightRecorder* flight_recorder = nullptr;
    obs::CriticalPathAggregator* critical_paths = nullptr;
  };

  Blender(std::string name, const Config& config,
          const SyntheticEmbedder& embedder, const CategoryDetector& detector,
          std::vector<Broker*> brokers);
  // Joins in-flight pool tasks before member teardown (see definition).
  ~Blender();

  Blender(const Blender&) = delete;
  Blender& operator=(const Blender&) = delete;

  // Full query path on this blender's node; blocks until the response is
  // ready (the front end's synchronous HTTP round trip). This facade is the
  // only place the query path waits on a future.
  QueryResponse Search(const QueryImage& query, const QueryOptions& options);
  QueryResponse Search(const QueryImage& query) {
    return Search(query, QueryOptions{.k = config_.default_k,
                                      .nprobe = config_.nprobe});
  }

  std::future<QueryResponse> SearchAsync(const QueryImage& query,
                                         const QueryOptions& options);

  // Continuation-passing entry point: the outcome (response, or the typed
  // admission/deadline error) is delivered to `on_done` on whichever pool
  // thread finishes the chain — or inline, synchronously, when the query is
  // shed at admission (overload or a zero budget) without touching the
  // pool. Open-loop load generators drive this overload: dispatch never
  // blocks on completion, so offered load is independent of service rate.
  using SearchCallback = std::function<void(AsyncResult<QueryResponse>)>;
  void SearchAsync(const QueryImage& query, const QueryOptions& options,
                   SearchCallback on_done);

  bool healthy() const { return !node_.failed(); }
  Node& node() { return node_; }
  const std::string& name() const { return node_.name(); }
  std::uint64_t queries_served() const {
    return queries_.load(std::memory_order_relaxed);
  }
  std::uint64_t queries_shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  // Null when the result cache is disabled.
  const QueryCache* result_cache() const { return cache_.get(); }
  std::size_t in_flight() const { return admission_.total_in_flight(); }
  // The priority-aware admission controller gating this blender (per-class
  // admitted/shed counts for harnesses and tests).
  const qos::AdmissionController& admission() const { return admission_; }

 private:
  // Heap-owned per-request state shared by the continuation chain. Owns the
  // root span (so the trace stitches across thread hops), the response
  // under construction, and the promise fulfilled at the end of the chain.
  // Fulfillment releases the in-flight admission slot on *every* path —
  // success, broker failure, NodeFailedError before the chain starts — and
  // the destructor backstops a dropped chain so the future never dangles.
  struct RequestState;

  // Stages on a blender pool thread: trace root and item detection, then
  // the simulated GPU time in the pool's delay heap, after which
  // ResumeQuery runs with the due time of that wait.
  void BeginQuery(const std::shared_ptr<RequestState>& state,
                  const QueryImage& query);
  // Extraction read-out, deadline check, cache lookup and degradation; then
  // the fan-out, or a place in the fan-out window's FIFO.
  void ResumeQuery(const std::shared_ptr<RequestState>& state,
                   const QueryImage& query, Micros extraction_due_micros);
  // Sends the query to every broker; the caller holds a window slot, which
  // the last broker completion gives back.
  void DispatchFanOut(const std::shared_ptr<RequestState>& state);
  // Hands a finished fan-out's window slot to the oldest waiting query
  // (dispatched from this blender's pool, or failed typed if its deadline
  // died in the FIFO), or frees it.
  void ReleaseFanOutSlot();
  // Typed deadline death before any broker saw the query.
  void FailDeadline(RequestState& state);
  void FinishQuery(const std::shared_ptr<RequestState>& state,
                   std::vector<AsyncResult<Broker::Reply>> slots);

  // Files the request's stage timings with the flight recorder (every
  // completion path: success, cache hit, deadline death). Returns the
  // record's ordinal (0 when no recorder is wired), used as the exemplar
  // ref on the query_total histogram so even unsampled queries stay
  // findable from a latency bucket.
  std::uint64_t RecordFlight(RequestState& state, Micros total_micros,
                             bool error, bool cache_hit);

  // Resolves the query's latency budget (explicit, configured default, or
  // unlimited) into an absolute deadline.
  qos::Deadline ResolveDeadline(const QueryOptions& options) const;

  Config config_;
  Node node_;
  const SyntheticEmbedder& embedder_;
  const CategoryDetector& detector_;
  std::vector<Broker*> brokers_;
  std::unique_ptr<QueryCache> cache_;
  obs::Tracer* tracer_;
  qos::AdmissionController admission_;
  obs::Counter* queries_total_;   // registry mirror of queries_
  obs::Counter* shed_total_;      // registry mirror of shed_
  obs::Counter* degraded_total_;  // queries answered with partial coverage
  obs::Counter* deadline_exceeded_;   // jdvs_qos_deadline_exceeded_total{tier=blender}
  obs::Counter* degraded_level_[2];   // jdvs_qos_degraded_queries_total{level=1|2}
  Histogram* total_stage_;        // jdvs_stage_micros{stage="query_total"}
  Histogram* extract_stage_;      // jdvs_stage_micros{stage="extract"}
  Histogram* rank_stage_;         // jdvs_stage_micros{stage="rank"}
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> shed_{0};
  // Fan-out window: dispatched fan-outs whose fan-in has not completed, and
  // the extracted queries waiting for one of them to finish.
  std::mutex window_mu_;
  std::size_t fanouts_outstanding_ = 0;                 // guarded by window_mu_
  std::deque<std::shared_ptr<RequestState>> parked_;   // guarded by window_mu_
};

}  // namespace jdvs
