#include "obs/span.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"

namespace jdvs::obs {

std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(TraceSink* sink, const Clock& clock, const TraceContext& parent,
           std::string name, std::string node)
    : sink_(parent.sampled() ? sink : nullptr), clock_(&clock) {
  if (!sink_) return;
  record_.trace_id = parent.trace_id;
  record_.span_id = NextSpanId();
  record_.parent_span_id = parent.span_id;
  record_.name = std::move(name);
  record_.node = std::move(node);
  record_.start_micros = clock.NowMicros();
}

Span::Span(Span&& other) noexcept
    : sink_(other.sink_), clock_(other.clock_),
      record_(std::move(other.record_)) {
  other.sink_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    Finish();
    sink_ = other.sink_;
    clock_ = other.clock_;
    record_ = std::move(other.record_);
    other.sink_ = nullptr;
  }
  return *this;
}

Span::~Span() { Finish(); }

Span Span::StartChild(std::string name, std::string node) {
  if (!sampled()) return Span();
  return Span(sink_, *clock_, context(), std::move(name), std::move(node));
}

void Span::AddTag(std::string key, std::string value) {
  if (!sampled()) return;
  record_.tags.emplace_back(std::move(key), std::move(value));
}

void Span::AddTag(std::string key, std::uint64_t value) {
  AddTag(std::move(key), std::to_string(value));
}

void Span::SetError(std::string message) {
  if (!sampled()) return;
  record_.ok = false;
  record_.status = std::move(message);
}

void Span::Finish() { FinishAgo(0); }

void Span::MoveStartBack(Micros micros) {
  if (sampled()) record_.start_micros -= std::max<Micros>(micros, 0);
}

void Span::FinishAgo(Micros micros) {
  if (!sampled()) return;
  record_.end_micros = std::max(
      record_.start_micros, clock_->NowMicros() - std::max<Micros>(micros, 0));
  sink_->Record(std::move(record_));
  sink_ = nullptr;
}

}  // namespace jdvs::obs
