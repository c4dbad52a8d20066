// Open-loop load model: Poisson arrivals on an absolute schedule, each
// request timed from when it was *due*, not from when it was sent.
//
// workload::QueryClient::RunOpenLoop stamps a query's start after its pacing
// sleep, so a generator that falls behind (descheduled, stalled in a send)
// hides that wait from every later query. Here the schedule is fixed up
// front and the send loop reports how late it ran (send lag); latency is
// measured from the due time, so a stall shows in both.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace perfbench {

// Arrival offsets (microseconds from the phase start, ascending) of a
// Poisson process at `rate_per_s` over `window_us`. Same seed, same schedule.
std::vector<std::int64_t> PoissonSchedule(double rate_per_s,
                                          std::int64_t window_us,
                                          std::uint64_t seed);

// Clock seam: the real generator uses the steady clock and sleeps; tests
// substitute a virtual clock to inject stalls deterministically.
struct GeneratorClock {
  std::function<std::int64_t()> now_us;
  std::function<void(std::int64_t)> sleep_until_us;
};
GeneratorClock SteadyGeneratorClock();
std::int64_t SteadyNowMicros();

// Sends each scheduled arrival no earlier than its due time (start +
// offset) and returns the absolute due times. `send(i, due_us)` is called on
// the generator thread and must not block on the request's completion.
// `on_tick(now_us)` runs after every send (in-flight sampling).
std::vector<std::int64_t> RunSchedule(
    const std::vector<std::int64_t>& schedule, std::int64_t start_us,
    const GeneratorClock& clock,
    const std::function<void(std::size_t, std::int64_t)>& send,
    const std::function<void(std::int64_t)>& on_tick = {});

// Per-request accounting of one open-loop phase, safe to fill from
// completion callbacks on any thread.
class RequestBook {
 public:
  enum class Outcome : std::uint8_t { kPending, kOk, kError };

  explicit RequestBook(std::size_t capacity);

  // Generator side: request `i` was due at `due_us` and sent at `sent_us`.
  void Sent(std::size_t i, std::int64_t due_us, std::int64_t sent_us);
  // Completion side.
  void Done(std::size_t i, std::int64_t done_us, bool ok, bool degraded);

  std::size_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  struct Summary {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t never_completed = 0;
    std::uint64_t degraded = 0;
    std::vector<double> latency_from_due_us;   // ok requests only
    std::vector<std::int64_t> ok_due_us;       // their due times
    std::vector<double> latency_from_send_us;  // same requests, send-stamped
    std::vector<double> send_lag_us;           // every sent request
  };
  // Reads the book; requests still pending count as never completed.
  Summary Summarize() const;

 private:
  struct Entry {
    std::int64_t due_us = 0;
    std::int64_t sent_us = 0;
    std::int64_t done_us = 0;
    Outcome outcome = Outcome::kPending;
    bool degraded = false;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // guarded by mu_
  std::size_t sent_ = 0;        // guarded by mu_
  std::atomic<std::size_t> outstanding_{0};
};

}  // namespace perfbench
