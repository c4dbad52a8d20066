// Trace spans.
//
// One Span covers one timed unit of work inside a query or update: the
// blender's end-to-end handling, a broker fan-out, a single searcher
// partition scan, a real-time index apply. Spans form a tree via
// (trace_id, span_id, parent_span_id); the TraceContext triple is what
// crosses component boundaries — passed explicitly through SearchAsync
// calls and carried inside ProductUpdateMessages on the real-time path.
//
// Spans are RAII: started at construction, finished (recorded into the
// TraceSink) at destruction or an explicit Finish(). An unsampled span
// (null sink or zero trace id) is a no-op whose construction costs two
// pointer stores, so tracing can stay compiled-in everywhere and be paid
// only 1-in-N queries.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace jdvs::obs {

class TraceSink;

// What crosses the wire between tiers. trace_id == 0 means "not sampled":
// children of an unsampled context are no-ops.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  // the parent span for children created from it

  bool sampled() const { return trace_id != 0; }
};

// A finished span as stored in the sink.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = root
  std::string name;
  std::string node;  // simulated node the work ran on (may be empty)
  Micros start_micros = 0;
  Micros end_micros = 0;
  bool ok = true;
  std::string status;  // error message when !ok
  std::vector<std::pair<std::string, std::string>> tags;

  Micros DurationMicros() const { return end_micros - start_micros; }
};

// Process-wide unique span id (never 0).
std::uint64_t NextSpanId();

class Span {
 public:
  // No-op span.
  Span() = default;

  // Starts a child of `parent` (no-op when parent is unsampled or sink is
  // null). Timestamps come from `clock` — the simulated clock in benches.
  Span(TraceSink* sink, const Clock& clock, const TraceContext& parent,
       std::string name, std::string node = {});

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  bool sampled() const { return sink_ != nullptr; }

  // Context for propagating to children. Zero when unsampled.
  TraceContext context() const {
    return sampled() ? TraceContext{record_.trace_id, record_.span_id}
                     : TraceContext{};
  }

  // Starts a child span of this one (same sink and clock).
  Span StartChild(std::string name, std::string node = {});

  void AddTag(std::string key, std::string value);
  void AddTag(std::string key, std::uint64_t value);
  void SetError(std::string message);

  // Records the span into the sink; idempotent (the destructor calls it).
  void Finish();

  // For a wait whose edges are known only after the fact (a delayed task
  // learns its due time when it runs): move the start `micros` earlier, or
  // finish with the end `micros` before now (never before the start).
  void MoveStartBack(Micros micros);
  void FinishAgo(Micros micros);

 private:
  friend class Tracer;

  TraceSink* sink_ = nullptr;  // null = unsampled no-op
  const Clock* clock_ = nullptr;
  SpanRecord record_;
};

}  // namespace jdvs::obs
