#include "ladder.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "stats.h"

namespace perfbench {
namespace {

constexpr double kP99LimitMs = 100.0;
constexpr double kMaxErrorRatio = 0.001;
// Allowed backlog growth over a rung: max(floor, factor * first third).
constexpr double kGrowthFloor = 16.0;
constexpr double kGrowthFactor = 1.0;

}  // namespace

RungVerdict JudgeRung(const RungResult& rung) {
  std::ostringstream why;
  if (rung.ok == 0) {
    why << "no completed queries";
  } else if (rung.p99_ms > kP99LimitMs) {
    why << "p99 " << rung.p99_ms << " ms > " << kP99LimitMs << " ms";
  } else if (rung.error_ratio > kMaxErrorRatio) {
    why << "error ratio " << rung.error_ratio << " > "
        << kMaxErrorRatio;
  } else {
    const double allowed =
        std::max(kGrowthFloor, kGrowthFactor * rung.inflight_head);
    if (rung.inflight_tail - rung.inflight_head > allowed) {
      why << "backlog grew " << rung.inflight_head << " -> "
          << rung.inflight_tail;
    }
  }
  return RungVerdict{.pass = why.str().empty(), .reason = why.str()};
}

std::pair<double, double> InflightHeadTail(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t start_us, std::int64_t end_us) {
  const std::int64_t third = (end_us - start_us) / 3;
  std::vector<double> head, tail;
  for (const auto& [t, v] : samples) {
    if (t >= start_us && t < start_us + third) {
      head.push_back(v);
    } else if (t >= end_us - third && t < end_us) {
      tail.push_back(v);
    }
  }
  return {Median(std::move(head)), Median(std::move(tail))};
}

double RungRate(double base_qps, double step, int rung) {
  return base_qps * std::pow(step, rung);
}

LadderOutcome SearchLadder(int start, int lo, int hi, int stride,
                           const std::function<RungResult(int)>& probe) {
  LadderOutcome out;
  std::optional<int> pass_at, fail_at;
  auto run = [&](int i) {
    RungResult r = probe(i);
    out.tried.emplace_back(i, r);
    const bool pass = JudgeRung(r).pass;
    if (pass && (!out.found || i > out.best_rung)) {
      out.found = true;
      out.best_rung = i;
      out.best = r;
    }
    return pass;
  };
  start = std::clamp(start, lo, hi);
  stride = std::max(stride, 1);
  if (run(start)) {
    pass_at = start;
    for (int i = start; !fail_at && i < hi;) {
      i = std::min(i + stride, hi);
      (run(i) ? pass_at : fail_at) = i;
    }
  } else {
    fail_at = start;
    for (int i = start; !pass_at && i > lo;) {
      i = std::max(i - stride, lo);
      (run(i) ? pass_at : fail_at) = i;
    }
  }
  if (!pass_at || !fail_at) return out;
  // Invariant: pass_at < fail_at (gallop moved away from the first verdict).
  int good = *pass_at, bad = *fail_at;
  while (bad - good > 1) {
    const int mid = good + (bad - good) / 2;
    (run(mid) ? good : bad) = mid;
  }
  return out;
}

}  // namespace perfbench
