#include "open_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::vector<std::int64_t> PoissonSchedule(double rate_per_s,
                                          std::int64_t window_us,
                                          std::uint64_t seed) {
  std::vector<std::int64_t> out;
  if (rate_per_s <= 0.0 || window_us <= 0) return out;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(rate_per_s);
  out.reserve(static_cast<std::size_t>(
      rate_per_s * static_cast<double>(window_us) * 1e-6 * 1.2 + 16));
  double t_us = 0.0;
  for (;;) {
    t_us += gap_s(rng) * 1e6;
    if (t_us >= static_cast<double>(window_us)) break;
    out.push_back(static_cast<std::int64_t>(t_us));
  }
  return out;
}

std::int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

GeneratorClock SteadyGeneratorClock() {
  return GeneratorClock{
      .now_us = SteadyNowMicros,
      .sleep_until_us =
          [](std::int64_t at_us) {
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::microseconds(at_us)));
          },
  };
}

std::vector<std::int64_t> RunSchedule(
    const std::vector<std::int64_t>& schedule, std::int64_t start_us,
    const GeneratorClock& clock,
    const std::function<void(std::size_t, std::int64_t)>& send,
    const std::function<void(std::int64_t)>& on_tick) {
  std::vector<std::int64_t> due;
  due.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::int64_t at = start_us + schedule[i];
    // A late generator never sleeps: the request is already overdue and
    // its lateness is charged to it by the due-time accounting.
    if (clock.now_us() < at) clock.sleep_until_us(at);
    due.push_back(at);
    send(i, at);
    if (on_tick) on_tick(clock.now_us());
  }
  return due;
}

RequestBook::RequestBook(std::size_t capacity) : entries_(capacity) {}

void RequestBook::Sent(std::size_t i, std::int64_t due_us,
                       std::int64_t sent_us) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard lock(mu_);
  if (i >= entries_.size()) throw std::out_of_range("RequestBook::Sent");
  entries_[i].due_us = due_us;
  entries_[i].sent_us = sent_us;
  sent_ = std::max(sent_, i + 1);
}

void RequestBook::Done(std::size_t i, std::int64_t done_us, bool ok,
                       bool degraded) {
  {
    std::lock_guard lock(mu_);
    Entry& e = entries_.at(i);
    e.done_us = done_us;
    e.outcome = ok ? Outcome::kOk : Outcome::kError;
    e.degraded = degraded;
  }
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

RequestBook::Summary RequestBook::Summarize() const {
  Summary s;
  std::lock_guard lock(mu_);
  s.sent = sent_;
  s.latency_from_due_us.reserve(sent_);
  s.latency_from_send_us.reserve(sent_);
  s.ok_due_us.reserve(sent_);
  s.send_lag_us.reserve(sent_);
  for (std::size_t i = 0; i < sent_; ++i) {
    const Entry& e = entries_[i];
    s.send_lag_us.push_back(static_cast<double>(e.sent_us - e.due_us));
    switch (e.outcome) {
      case Outcome::kPending: ++s.never_completed; break;
      case Outcome::kError: ++s.errors; break;
      case Outcome::kOk:
        ++s.ok;
        if (e.degraded) ++s.degraded;
        s.latency_from_due_us.push_back(
            static_cast<double>(e.done_us - e.due_us));
        s.ok_due_us.push_back(e.due_us);
        s.latency_from_send_us.push_back(
            static_cast<double>(e.done_us - e.sent_us));
        break;
    }
  }
  return s;
}

}  // namespace perfbench
