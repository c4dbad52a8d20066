// Unit tests of the benchmark's load model and capacity rule:
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ladder.h"
#include "open_loop.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PoissonScheduleTest, ArrivalCountsMatchTheConfiguredRate) {
  constexpr double kRate = 1000.0;
  constexpr std::int64_t kWindowUs = 10'000'000;  // 10 s -> 10000 expected
  double total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto schedule = PoissonSchedule(kRate, kWindowUs, seed);
    // Poisson: sd = sqrt(10000) = 100; 4 sd is a loose per-seed bound.
    EXPECT_NEAR(static_cast<double>(schedule.size()), 10000.0, 400.0)
        << "seed " << seed;
    EXPECT_TRUE(std::is_sorted(schedule.begin(), schedule.end()));
    EXPECT_GE(schedule.front(), 0);
    EXPECT_LT(schedule.back(), kWindowUs);
    total += static_cast<double>(schedule.size());
  }
  EXPECT_NEAR(total / 20.0, 10000.0, 100.0);  // mean of 20: sd ~22
}

TEST(PoissonScheduleTest, CountsPerBinAreDispersedLikePoisson) {
  // 100 ms bins at 1000/s: mean 100, variance 100 for a Poisson process; a
  // paced (evenly spaced) generator would have variance ~0.
  const auto schedule = PoissonSchedule(1000.0, 20'000'000, 7);
  std::vector<double> bins(200, 0.0);
  for (std::int64_t t : schedule) bins[static_cast<std::size_t>(t / 100'000)] += 1;
  const double mean =
      std::accumulate(bins.begin(), bins.end(), 0.0) / bins.size();
  double var = 0;
  for (double b : bins) var += (b - mean) * (b - mean);
  var /= static_cast<double>(bins.size() - 1);
  EXPECT_NEAR(mean, 100.0, 5.0);
  EXPECT_GT(var / mean, 0.7);
  EXPECT_LT(var / mean, 1.4);
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(500.0, 1'000'000, 3),
            PoissonSchedule(500.0, 1'000'000, 3));
  EXPECT_NE(PoissonSchedule(500.0, 1'000'000, 3),
            PoissonSchedule(500.0, 1'000'000, 4));
}

// A virtual clock: sleeping jumps time forward, a send can stall it.
struct VirtualClock {
  std::int64_t now = 0;
  GeneratorClock Clock() {
    return GeneratorClock{
        .now_us = [this] { return now; },
        .sleep_until_us = [this](std::int64_t t) { now = std::max(now, t); },
    };
  }
};

TEST(RunScheduleTest, GeneratorStallIsChargedToTheQueriesBehindIt) {
  // 100 arrivals 1 ms apart; the send of #10 stalls the generator 50 ms;
  // every query takes 2 ms of service from when it is sent.
  std::vector<std::int64_t> schedule(100);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i] = static_cast<std::int64_t>(i) * 1000;
  }
  VirtualClock vc;
  const GeneratorClock clock = vc.Clock();
  RequestBook book(schedule.size());
  RunSchedule(schedule, /*start_us=*/0, clock,
              [&](std::size_t i, std::int64_t due) {
                book.Sent(i, due, vc.now);
                book.Done(i, vc.now + 2000, /*ok=*/true, /*degraded=*/false);
                if (i == 10) vc.now += 50'000;  // stalled inside the send
              });
  const RequestBook::Summary s = book.Summarize();
  ASSERT_EQ(s.ok, 100u);
  // Request 11 was due at 11 ms and sent at 60 ms: 49 ms late.
  EXPECT_EQ(s.send_lag_us[11], 49'000.0);
  EXPECT_EQ(s.latency_from_due_us[11], 51'000.0);
  // Send-stamped latency (what QueryClient::RunOpenLoop reports) hides it.
  EXPECT_EQ(s.latency_from_send_us[11], 2000.0);
  // The backlog drains one overdue query per send: 49 of them were late.
  std::size_t late = 0;
  for (double lag : s.send_lag_us) late += lag > 0 ? 1 : 0;
  EXPECT_EQ(late, 49u);
  EXPECT_EQ(s.send_lag_us[60], 0.0);
  EXPECT_GT(Quantile(s.latency_from_due_us, 0.99), 45'000.0);
  EXPECT_EQ(Quantile(s.latency_from_send_us, 0.99), 2000.0);
}

TEST(RunScheduleTest, OnTimeGeneratorHasNoLag) {
  std::vector<std::int64_t> schedule = {0, 10, 500, 501, 9000};
  VirtualClock vc;
  RequestBook book(schedule.size());
  const auto due = RunSchedule(schedule, 100, vc.Clock(),
                               [&](std::size_t i, std::int64_t d) {
                                 book.Sent(i, d, vc.now);
                                 book.Done(i, vc.now + 5, true, false);
                               });
  EXPECT_EQ(due.front(), 100);
  for (double lag : book.Summarize().send_lag_us) EXPECT_EQ(lag, 0.0);
}

TEST(RequestBookTest, PendingRequestsCountAsNeverCompleted) {
  RequestBook book(4);
  book.Sent(0, 0, 0);
  book.Sent(1, 0, 0);
  book.Sent(2, 0, 0);
  book.Done(0, 10, true, true);
  book.Done(1, 10, false, false);
  EXPECT_EQ(book.outstanding(), 1u);
  const RequestBook::Summary s = book.Summarize();
  EXPECT_EQ(s.sent, 3u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.never_completed, 1u);
}

RungResult Healthy() {
  RungResult r;
  r.offered_qps = 1000;
  r.completed_qps = 998;
  r.sent = 1000;
  r.ok = 1000;
  r.p99_ms = 20;
  r.inflight_head = 10;
  r.inflight_tail = 12;
  return r;
}

TEST(LadderRuleTest, PassesWithinSloAndFailsEachCondition) {
  EXPECT_TRUE(JudgeRung(Healthy()).pass);

  RungResult slow = Healthy();
  slow.p99_ms = 100.5;
  EXPECT_FALSE(JudgeRung(slow).pass);
  slow.p99_ms = 100.0;  // the limit itself passes
  EXPECT_TRUE(JudgeRung(slow).pass);

  RungResult errors = Healthy();
  errors.error_ratio = 0.0011;
  EXPECT_FALSE(JudgeRung(errors).pass);
  errors.error_ratio = 0.001;
  EXPECT_TRUE(JudgeRung(errors).pass);

  // Backlog: allowed growth is max(16, head).
  RungResult growing = Healthy();
  growing.inflight_head = 10;
  growing.inflight_tail = 27;  // +17 > 16
  EXPECT_FALSE(JudgeRung(growing).pass);
  growing.inflight_tail = 26;  // +16
  EXPECT_TRUE(JudgeRung(growing).pass);
  growing.inflight_head = 40;
  growing.inflight_tail = 80;  // +40 = head
  EXPECT_TRUE(JudgeRung(growing).pass);
  growing.inflight_tail = 81;
  EXPECT_FALSE(JudgeRung(growing).pass);

  RungResult nothing = Healthy();
  nothing.ok = 0;
  EXPECT_FALSE(JudgeRung(nothing).pass);
}

TEST(LadderRuleTest, InflightHeadAndTailAreThirdMedians) {
  std::vector<std::pair<std::int64_t, double>> samples;
  for (std::int64_t t = 0; t < 1000; ++t) {
    samples.emplace_back(t, static_cast<double>(t < 500 ? 4 : 8));
  }
  const auto [head, tail] = InflightHeadTail(samples, 0, 1000);
  EXPECT_DOUBLE_EQ(head, 4.0);
  EXPECT_DOUBLE_EQ(tail, 8.0);
}

TEST(LadderRuleTest, RungsAreAFixedGeometricLadder) {
  EXPECT_DOUBLE_EQ(RungRate(1000, 1.05, 0), 1000);
  EXPECT_NEAR(RungRate(1000, 1.05, 1), 1050, 1e-9);
  EXPECT_NEAR(RungRate(1000, 1.05, -2), 1000 / 1.1025, 1e-9);
}

// Synthetic system whose p99 breaks the SLO above `capacity_rung`.
struct FakeSystem {
  int capacity_rung;
  std::vector<int> probed;
  RungResult operator()(int rung) {
    probed.push_back(rung);
    RungResult r = Healthy();
    r.offered_qps = RungRate(1000, 1.05, rung);
    r.completed_qps = r.offered_qps;
    if (rung > capacity_rung) r.p99_ms = 400;
    return r;
  }
};

TEST(LadderSearchTest, FindsTheHighestPassingRung) {
  for (int capacity : {-16, -9, -1, 0, 3, 7, 8, 13, 23}) {
    FakeSystem sys{capacity, {}};
    const LadderOutcome out = SearchLadder(
        0, -16, 24, 4, [&](int i) { return sys(i); });
    ASSERT_TRUE(out.found) << "capacity " << capacity;
    EXPECT_EQ(out.best_rung, capacity);
    EXPECT_NEAR(out.best.offered_qps, RungRate(1000, 1.05, capacity), 1e-6);
    EXPECT_LE(sys.probed.size(), 9u) << "capacity " << capacity;
  }
}

TEST(LadderSearchTest, ReportsNothingWhenNoRungPasses) {
  FakeSystem sys{-100, {}};
  const LadderOutcome out =
      SearchLadder(0, -16, 24, 4, [&](int i) { return sys(i); });
  EXPECT_FALSE(out.found);
  EXPECT_EQ(sys.probed.back(), -16);
}

TEST(LadderSearchTest, StopsAtTheTopRung) {
  FakeSystem sys{100, {}};
  const LadderOutcome out =
      SearchLadder(0, -16, 24, 4, [&](int i) { return sys(i); });
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.best_rung, 24);
}

}  // namespace
}  // namespace perfbench
