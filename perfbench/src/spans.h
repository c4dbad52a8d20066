// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions; spans of one
// request share a trace id and name their parent. Nothing is written until
// the run ends (WriteJsonLines), so recording costs one locked push_back.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // static string: the layer boundary
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace_id = 0;
};

class SpanRecorder {
 public:
  // Fresh id for a trace or span (ids are unique across both).
  std::uint64_t NextId();
  // Records a finished span; returns its id.
  std::uint64_t Record(const char* name, std::int64_t start_us,
                       std::int64_t end_us, std::uint64_t trace_id,
                       std::uint64_t parent = 0, std::uint64_t id = 0);

  // Durations (microseconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // One JSON object per line; returns false when the file can't be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;      // guarded by mu_
};

}  // namespace perfbench
