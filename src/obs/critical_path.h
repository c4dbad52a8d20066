// Critical-path attribution over async span trees and flight records.
//
// A query's wall time is not the sum of its stage times: the broker fans
// out to many searchers concurrently, hedges add racing attempts, and only
// the slowest contributing branch gates completion. ComputeCriticalPath
// walks a span tree backwards from the root's finish time and, at each
// level, descends into the child whose finish gated the parent -- skipping
// concurrent siblings that were hidden behind it -- yielding the chain of
// (stage, duration) segments that actually determined end-to-end latency.
// The aggregator folds per-stage time-on-critical-path into registry
// histograms (`jdvs_critical_path_micros{stage=...}`) so benches and
// statusz can answer "where does p99 go" over a whole run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/spinlock.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace jdvs {
class Histogram;
}

namespace jdvs::obs {

class Registry;
class TraceSink;

struct CriticalPathSegment {
  std::string stage;  // span name ("searcher.scan") or flight-stage name
  std::string node;   // empty for flight-record segments
  Micros start_micros = 0;
  Micros micros = 0;
};

struct CriticalPathReport {
  Micros total_micros = 0;
  std::vector<CriticalPathSegment> segments;  // chronological

  bool empty() const { return segments.empty(); }
  // Per-stage sums over the segments, sorted by time descending.
  std::vector<std::pair<std::string, Micros>> ByStage() const;
  // "searcher.scan 41203us (87%), extract 3110us (6%)" -- the top_n worst
  // stages; the one-line answer for slow-query log entries.
  std::string Summary(std::size_t top_n = 2) const;
};

// Tolerates malformed input (orphan spans, duplicate span ids, cycles,
// out-of-order finish times): degrades to a clamped best-effort path, never
// crashes or loops. Returns an empty report for an empty span set.
CriticalPathReport ComputeCriticalPath(std::vector<SpanRecord> spans);

// Blender-level decomposition of an (unsampled) flight-recorder entry:
// wire -> queue wait -> extract -> fan-out wait -> scan -> hedge wait ->
// fan-in -> rank. Zero stages are omitted; kFanOut is skipped since its
// decomposition is used.
CriticalPathReport CriticalPathFromFlightRecord(const FlightRecord& record);

// Folds per-stage critical-path time into `jdvs_critical_path_micros`
// histograms. Thread-safe; the blender calls Observe after finishing each
// sampled query's root span.
class CriticalPathAggregator {
 public:
  CriticalPathAggregator(const TraceSink* sink, Registry* registry);

  // Computes + folds the critical path of one sampled trace. With `record`
  // (the query's flight record), the lead-in before the root span -- the
  // front-end hop (wire) and the blender queue wait -- is folded too.
  CriticalPathReport Observe(std::uint64_t trace_id,
                             const FlightRecord* record = nullptr);
  // Folds an already-computed report (e.g. from a flight record).
  void Fold(const CriticalPathReport& report);

  std::uint64_t observed() const {
    return observed_.load(std::memory_order_relaxed);
  }

 private:
  Histogram& StageHistogram(const std::string& stage);

  const TraceSink* sink_;
  Registry* registry_;
  std::atomic<std::uint64_t> observed_{0};
  SpinLock cache_mu_;
  std::unordered_map<std::string, Histogram*> cache_;
};

// Fixed-layout text table over the aggregator's histograms: count, mean,
// p99 and share of total critical-path time per stage. Shared by
// bench_fig13b, jdvs_trace_stats --critical-path and statusz.
std::string RenderCriticalPathTable(const Registry& registry);

}  // namespace jdvs::obs
