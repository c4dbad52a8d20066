#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "common/histogram.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace jdvs::obs {

std::vector<std::pair<std::string, Micros>> CriticalPathReport::ByStage()
    const {
  std::unordered_map<std::string, Micros> sums;
  for (const CriticalPathSegment& segment : segments) {
    sums[segment.stage] += segment.micros;
  }
  std::vector<std::pair<std::string, Micros>> out(sums.begin(), sums.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::string CriticalPathReport::Summary(std::size_t top_n) const {
  const auto stages = ByStage();
  if (stages.empty() || total_micros <= 0) return {};
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < stages.size() && i < top_n; ++i) {
    const double share =
        100.0 * static_cast<double>(stages[i].second) /
        static_cast<double>(total_micros);
    std::snprintf(buf, sizeof(buf), "%s%s %lldus (%.0f%%)",
                  i == 0 ? "" : ", ", stages[i].first.c_str(),
                  static_cast<long long>(stages[i].second), share);
    out += buf;
  }
  return out;
}

CriticalPathReport ComputeCriticalPath(std::vector<SpanRecord> spans) {
  CriticalPathReport report;
  if (spans.empty()) return report;

  // First occurrence wins for duplicate span ids; later copies fall out of
  // the tree instead of corrupting it.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) by_id.emplace(span.span_id, &span);

  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  const SpanRecord* root = nullptr;
  for (const SpanRecord& span : spans) {
    if (by_id.at(span.span_id) != &span) continue;
    const bool linked = span.parent_span_id != 0 &&
                        span.parent_span_id != span.span_id &&
                        by_id.count(span.parent_span_id) != 0;
    if (linked) {
      children[span.parent_span_id].push_back(&span);
    } else if (root == nullptr || span.start_micros < root->start_micros) {
      // True roots, orphans (parent dropped) and self-parent spans all
      // compete as roots: the earliest wins.
      root = &span;
    }
  }
  if (root == nullptr) {
    // Pure cycle (every parent id resolves): fall back to the earliest span;
    // the visited set below breaks the loop.
    for (const SpanRecord& span : spans) {
      if (by_id.at(span.span_id) != &span) continue;
      if (root == nullptr || span.start_micros < root->start_micros) {
        root = &span;
      }
    }
  }

  std::unordered_set<std::uint64_t> visited;
  const auto add_segment = [&report](const SpanRecord& span, Micros start,
                                     Micros micros) {
    if (micros <= 0) return;
    report.segments.push_back(
        CriticalPathSegment{span.name, span.node, start, micros});
  };
  // Attributes the window [lo, hi] (the part of `span` on the critical
  // path) to the span and its gating children. Walking backwards from hi,
  // the child that finished last gated the parent; siblings whose window
  // was swallowed by an already-attributed later child ran concurrently
  // behind it and get no time. Clamping keeps out-of-order timestamps from
  // producing negative segments; the visited set breaks cycles.
  std::function<void(const SpanRecord&, Micros, Micros)> walk =
      [&](const SpanRecord& span, Micros lo, Micros hi) {
        if (hi <= lo) return;
        if (!visited.insert(span.span_id).second) {
          add_segment(span, lo, hi - lo);
          return;
        }
        Micros cursor = hi;
        const auto it = children.find(span.span_id);
        if (it != children.end()) {
          std::vector<const SpanRecord*> kids = it->second;
          std::sort(kids.begin(), kids.end(),
                    [](const SpanRecord* a, const SpanRecord* b) {
                      if (a->end_micros != b->end_micros) {
                        return a->end_micros > b->end_micros;
                      }
                      return a->start_micros > b->start_micros;
                    });
          for (const SpanRecord* kid : kids) {
            const Micros kid_end = std::min(kid->end_micros, cursor);
            const Micros kid_start = std::max(kid->start_micros, lo);
            if (kid_start >= kid_end) continue;  // hidden behind a sibling
            add_segment(span, kid_end, cursor - kid_end);
            walk(*kid, kid_start, kid_end);
            cursor = kid_start;
            if (cursor <= lo) break;
          }
        }
        add_segment(span, lo, cursor - lo);
      };
  walk(*root, root->start_micros,
       std::max(root->end_micros, root->start_micros));

  std::sort(report.segments.begin(), report.segments.end(),
            [](const CriticalPathSegment& a, const CriticalPathSegment& b) {
              return a.start_micros < b.start_micros;
            });
  for (const CriticalPathSegment& segment : report.segments) {
    report.total_micros += segment.micros;
  }
  return report;
}

CriticalPathReport CriticalPathFromFlightRecord(const FlightRecord& record) {
  CriticalPathReport report;
  static constexpr FlightStage kChronological[] = {
      FlightStage::kWire,      FlightStage::kQueueWait,
      FlightStage::kExtract,   FlightStage::kFanOutWait,
      FlightStage::kFilter,    FlightStage::kIo,
      FlightStage::kScan,      FlightStage::kHedgeWait,
      FlightStage::kFanIn,     FlightStage::kRank,
  };
  Micros at = record.start_micros;
  for (const FlightStage stage : kChronological) {
    const Micros micros = record.stage(stage);
    if (micros <= 0) continue;
    report.segments.push_back(
        CriticalPathSegment{FlightStageName(stage), {}, at, micros});
    at += micros;
    report.total_micros += micros;
  }
  return report;
}

CriticalPathAggregator::CriticalPathAggregator(const TraceSink* sink,
                                               Registry* registry)
    : sink_(sink), registry_(registry) {}

CriticalPathReport CriticalPathAggregator::Observe(std::uint64_t trace_id,
                                                   const FlightRecord* record) {
  if (sink_ == nullptr || trace_id == 0) return {};
  CriticalPathReport report = ComputeCriticalPath(sink_->SpansFor(trace_id));
  if (record != nullptr && !report.empty()) {
    std::vector<CriticalPathSegment> lead_in;
    Micros at = record->start_micros;
    for (const FlightStage stage :
         {FlightStage::kWire, FlightStage::kQueueWait}) {
      const Micros micros = record->stage(stage);
      if (micros <= 0) continue;
      lead_in.push_back(
          CriticalPathSegment{FlightStageName(stage), {}, at, micros});
      at += micros;
      report.total_micros += micros;
    }
    report.segments.insert(report.segments.begin(), lead_in.begin(),
                           lead_in.end());
  }
  Fold(report);
  return report;
}

void CriticalPathAggregator::Fold(const CriticalPathReport& report) {
  if (registry_ == nullptr || report.empty()) return;
  for (const auto& [stage, micros] : report.ByStage()) {
    StageHistogram(stage).Record(micros);
  }
  observed_.fetch_add(1, std::memory_order_relaxed);
}

Histogram& CriticalPathAggregator::StageHistogram(const std::string& stage) {
  {
    std::lock_guard lock(cache_mu_);
    const auto it = cache_.find(stage);
    if (it != cache_.end()) return *it->second;
  }
  // Registry::GetHistogram takes its own mutex; keep the cache lock dropped
  // around it, then race-tolerantly publish (same name -> same instrument).
  Histogram& histogram = registry_->GetHistogram(
      Labeled("jdvs_critical_path_micros", "stage", stage));
  std::lock_guard lock(cache_mu_);
  cache_.emplace(stage, &histogram);
  return histogram;
}

std::string RenderCriticalPathTable(const Registry& registry) {
  // The aggregator folds both span names (sampled traces) and flight-stage
  // names (flight records); probe the union of known stages.
  static constexpr const char* kStages[] = {
      "query",         "extract",         "broker.search", "searcher.scan",
      "rank",          "rt.apply",        "wire",          "queue_wait",
      "broker_fanout", "searcher_filter", "searcher_io",   "searcher_scan",
      "hedge_wait",    "fan_in",          "fanout_wait",
  };
  struct Row {
    const char* stage;
    const Histogram* histogram;
  };
  std::vector<Row> rows;
  double total_sum = 0;
  for (const char* stage : kStages) {
    const Histogram* histogram = registry.FindHistogram(
        Labeled("jdvs_critical_path_micros", "stage", stage));
    if (histogram == nullptr || histogram->Count() == 0) continue;
    rows.push_back(Row{stage, histogram});
    total_sum += static_cast<double>(histogram->Sum());
  }
  std::string out =
      "critical-path attribution (time on critical path per stage):\n";
  if (rows.empty()) {
    out += "  (no data)\n";
    return out;
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.histogram->Sum() > b.histogram->Sum();
  });
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-16s %8s %10s %10s %8s\n", "stage",
                "count", "mean", "p99", "share");
  out += buf;
  for (const Row& row : rows) {
    const double share =
        total_sum <= 0
            ? 0.0
            : 100.0 * static_cast<double>(row.histogram->Sum()) / total_sum;
    std::snprintf(buf, sizeof(buf), "  %-16s %8llu %8.0fus %8lldus %7.1f%%\n",
                  row.stage,
                  static_cast<unsigned long long>(row.histogram->Count()),
                  row.histogram->Mean(),
                  static_cast<long long>(row.histogram->P99()), share);
    out += buf;
  }
  return out;
}

}  // namespace jdvs::obs
