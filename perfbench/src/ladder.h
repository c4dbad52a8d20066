// Capacity at the SLO: a fixed geometric rate ladder and its pass/fail rule.
//
// Rung i offers base * step^i queries per second (step <= 1.05). A rung
// passes when its p99 latency (from due time) is at most 100 ms, its error
// ratio at most 0.1 %, and its backlog does not grow: the median in-flight
// count over the rung's last third may exceed the first third's by at most
// max(16, first third). Medians, so a short burst that drains does not
// fail a rung; a queue that keeps growing does. The reported capacity is the
// measured completion rate of the highest passing rung.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RungResult {
  double offered_qps = 0.0;    // the rung's nominal rate
  double completed_qps = 0.0;  // ok completions / (last completion - first due)
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double p99_ms = 0.0;         // median of the p99s of the rung's quarters
  double error_ratio = 0.0;    // (errors + never completed) / sent
  double inflight_head = 0.0;  // median in-flight over the first third
  double inflight_tail = 0.0;  // median in-flight over the last third
};

struct RungVerdict {
  bool pass = false;
  std::string reason;  // empty when passing
};
RungVerdict JudgeRung(const RungResult& rung);

// Median of the in-flight samples (time, count) that fall in the first and
// last third of [start_us, end_us).
std::pair<double, double> InflightHeadTail(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t start_us, std::int64_t end_us);

double RungRate(double base_qps, double step, int rung);

struct LadderOutcome {
  bool found = false;  // some rung passed
  int best_rung = 0;
  RungResult best;
  std::vector<std::pair<int, RungResult>> tried;  // in probe order
};

// Highest passing rung in [lo, hi], assuming pass/fail is monotone in the
// rate: probes `start`, gallops by `stride` away from it until the verdict
// flips, then bisects. `probe(i)` runs rung i and returns its result.
LadderOutcome SearchLadder(int start, int lo, int hi, int stride,
                           const std::function<RungResult(int)>& probe);

}  // namespace perfbench
