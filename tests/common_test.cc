// Unit tests for src/common: rng, hash, clocks, histogram, queue, pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/thread_pool.h"

namespace jdvs {
namespace {

TEST(HashTest, Fnv1aIsStableAndSpreads) {
  EXPECT_EQ(Fnv1a64("jd://img/1/0"), Fnv1a64("jd://img/1/0"));
  EXPECT_NE(Fnv1a64("jd://img/1/0"), Fnv1a64("jd://img/1/1"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  // Known FNV-1a property: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(HashTest, Mix64ChangesEveryInput) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, UniformCoversRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(3);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SetMicros(7);
  EXPECT_EQ(clock.NowMicros(), 7);
}

TEST(ClockTest, MonotonicClockMovesForward) {
  const auto& clock = MonotonicClock::Instance();
  const Micros a = clock.NowMicros();
  const Micros b = clock.NowMicros();
  EXPECT_LE(a, b);
}

TEST(ClockTest, StopwatchMeasuresManualTime) {
  ManualClock clock;
  Stopwatch watch(clock);
  clock.AdvanceMicros(2'000'000);
  EXPECT_EQ(watch.ElapsedMicros(), 2'000'000);
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 2.0);
  watch.Restart();
  EXPECT_EQ(watch.ElapsedMicros(), 0);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.P99(), 0);
  EXPECT_TRUE(h.CdfPoints().empty());
}

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (int v = 0; v < 32; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 32u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 31);
  EXPECT_NEAR(h.Mean(), 15.5, 1e-9);
}

TEST(HistogramTest, QuantilesWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  // ~4% relative bucket error plus quantile-definition slack.
  EXPECT_NEAR(static_cast<double>(h.P50()), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.P90()), 9000.0, 9000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.P99()), 9900.0, 9900.0 * 0.07);
  EXPECT_EQ(h.Quantile(0.0), h.Min());
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Min(), 10);
  EXPECT_GE(a.Max(), 1000);
}

TEST(HistogramTest, CdfIsMonotoneAndEndsAtOne) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    h.Record(static_cast<std::int64_t>(rng.Below(1'000'000)));
  }
  const auto points = h.CdfPoints();
  ASSERT_FALSE(points.empty());
  double prev = 0.0;
  std::int64_t prev_v = -1;
  for (const auto& [v, f] : points) {
    EXPECT_GT(v, prev_v);
    EXPECT_GE(f, prev);
    prev = f;
    prev_v = v;
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t * 1000 + i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(HistogramTest, ClampsNegativeAndHuge) {
  Histogram h;
  h.Record(-5);
  h.Record(Histogram::kMaxValue * 2);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_LE(h.Max(), Histogram::kMaxValue);
}

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(MpmcQueueTest, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(MpmcQueueTest, CloseDrainsThenEnds) {
  MpmcQueue<int> q(8);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, CloseUnblocksWaitingConsumer) {
  MpmcQueue<int> q(8);
  std::thread consumer([&q] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(MpmcQueueTest, ManyProducersManyConsumersDeliverAll) {
  MpmcQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<long long> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) ASSERT_TRUE(q.Push(i));
    });
  }
  for (auto& p : producers) p.join();
  q.Close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  const long long expected =
      static_cast<long long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4, "test");
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, SubmitWithResultReturnsValue) {
  ThreadPool pool(2, "test");
  auto f = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitWithResultPropagatesException) {
  ThreadPool pool(1, "test");
  auto f = pool.SubmitWithResult(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2, "test");
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, SubmitWithResultAfterShutdownRunsInline) {
  ThreadPool pool(1, "test");
  pool.Shutdown();
  auto f = pool.SubmitWithResult([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, SubmitAfterRunsTasksInDueOrder) {
  ThreadPool pool(1, "test");
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard lock(mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(pool.SubmitAfter(30'000, record(30)));
  ASSERT_TRUE(pool.SubmitAfter(10'000, record(10)));
  ASSERT_TRUE(pool.SubmitAfter(20'000, record(20)));
  ASSERT_TRUE(pool.Submit(record(0)));
  const Micros deadline = MonotonicClock::Instance().NowMicros() + 5'000'000;
  while (pool.pending() > 0 &&
         MonotonicClock::Instance().NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.Shutdown();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 30}));
}

TEST(ThreadPoolTest, DelayedTaskDoesNotHoldTheWorker) {
  // One worker, one task 200 ms out: the delay waits in the heap, so an
  // undelayed task submitted behind it runs at once.
  ThreadPool pool(1, "test");
  std::atomic<bool> delayed_ran{false};
  ASSERT_TRUE(pool.SubmitAfter(200'000, [&] { delayed_ran.store(true); }));
  const Micros start = MonotonicClock::Instance().NowMicros();
  auto now = pool.SubmitWithResult(
      [] { return MonotonicClock::Instance().NowMicros(); });
  EXPECT_LT(now.get() - start, 50'000);
  EXPECT_FALSE(delayed_ran.load());
  pool.Shutdown();
  EXPECT_TRUE(delayed_ran.load());
}

TEST(ThreadPoolTest, ShutdownRunsTasksNotYetDue) {
  ThreadPool pool(2, "test");
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.SubmitAfter(10'000'000, [&ran] { ran.fetch_add(1); }));
  }
  const Micros start = MonotonicClock::Instance().NowMicros();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 10);
  // The drain did not wait out the 10 s delays.
  EXPECT_LT(MonotonicClock::Instance().NowMicros() - start, 1'000'000);
  EXPECT_FALSE(pool.SubmitAfter(1'000, [] {}));
}

TEST(ThreadPoolTest, QueueWaitIsMeasuredFromTheDueTime) {
  ThreadPool pool(1, "test");
  Histogram wait;
  pool.set_queue_wait_histogram(&wait);
  EXPECT_EQ(ThreadPool::CurrentTaskDueMicros(), 0);
  const Micros submitted = MonotonicClock::Instance().NowMicros();
  auto due = pool.SubmitWithResult([] { return Micros{0}; });
  due.get();
  std::promise<Micros> delayed_due;
  ASSERT_TRUE(pool.SubmitAfter(50'000, [&] {
    delayed_due.set_value(ThreadPool::CurrentTaskDueMicros());
  }));
  const Micros observed_due = delayed_due.get_future().get();
  pool.Shutdown();
  // The running task sees its own due time: submit time + delay.
  EXPECT_GE(observed_due, submitted + 50'000);
  EXPECT_LT(observed_due, submitted + 50'000 + 1'000'000);
  // An idle worker picked the 50 ms task up at its due time: the delay is
  // not queue wait (counted from submit, it would be >= 50 ms).
  EXPECT_EQ(wait.Count(), 2u);
  EXPECT_LT(wait.Max(), 50'000);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 8LL * 20000);
}

TEST(SpinLockTest, TryLockFailsWhenHeld) {
  SpinLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace jdvs
