#include "spans.h"

#include <fstream>

namespace perfbench {

std::uint64_t SpanRecorder::NextId() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

std::uint64_t SpanRecorder::Record(const char* name, std::int64_t start_us,
                                   std::int64_t end_us,
                                   std::uint64_t trace_id,
                                   std::uint64_t parent, std::uint64_t id) {
  std::lock_guard lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(SpanRecord{.name = name,
                              .start_us = start_us,
                              .end_us = end_us,
                              .id = id,
                              .parent = parent,
                              .trace_id = trace_id});
  return id;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_us - s.start_us));
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mu_);
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"trace_id\":" << s.trace_id
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
