// Fixed-size thread pool with a due-time delay queue.
//
// Each simulated cluster node (searcher / broker / blender) owns a bounded
// pool, mirroring the per-server worker threads of the production deployment;
// background index-copy tasks (Figure 9) also run here. SubmitAfter() is how
// the simulated fabric delivers a message after its wire time: the task
// waits in the pool's delay heap, not on a worker, so a hop in flight costs
// no server capacity.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"

namespace jdvs {

class ThreadPool {
 public:
  // `name` names the worker threads (its first 15 characters, the Linux
  // limit); `queue_capacity` bounds the backlog (ready plus delayed tasks)
  // so a saturated node exerts backpressure instead of growing without
  // bound.
  explicit ThreadPool(std::size_t num_threads, std::string name = "pool",
                      std::size_t queue_capacity = 16384);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs `task` on a worker once `delay_micros` have passed (at once when
  // <= 0). Until then the task sits in a min-heap keyed by its due time;
  // one idle worker waits on a condition variable until the earliest due
  // time, so no worker is occupied by the delay. Called from one of this pool's
  // own workers, SubmitAfter never blocks on a full backlog (a task posting
  // its continuation must not deadlock against its own queue), and the
  // calling worker times the delay itself once its current task returns,
  // so post delayed work as a task's last action. Otherwise blocks while
  // the backlog is full. Returns false after Shutdown().
  bool SubmitAfter(Micros delay_micros, std::function<void()> task);

  // SubmitAfter(0, task).
  bool Submit(std::function<void()> task) {
    return SubmitAfter(0, std::move(task));
  }

  // Submit returning a future for the task's result.
  template <typename F>
  auto SubmitWithResult(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    if (!Submit([task] { (*task)(); })) {
      // Pool already shut down: run inline so the future is always fulfilled.
      (*task)();
    }
    return result;
  }

  // Runs every queued task, delayed ones at once without waiting for their
  // due time (so every continuation fires), then joins all workers.
  // Idempotent.
  void Shutdown();

  // Due time (MonotonicClock micros) of the task running on the calling
  // thread, or 0 when the caller is not a pool worker. For a delayed task
  // this is submit time + delay, so `now - due` is pure queue wait and
  // `due - submit` the delay.
  static Micros CurrentTaskDueMicros();

  std::size_t num_threads() const { return threads_.size(); }
  // Tasks not yet started: due ones waiting for a worker plus delayed ones.
  std::size_t pending() const;

  // Saturation stats (exported as jdvs_pool_* gauges by the cluster):
  // workers currently executing a task, due tasks queued behind them, and
  // the high-water marks of both since construction / the last
  // ResetPeakStats(). Delayed tasks are not queued yet: they are still on
  // the wire. A pool whose threads park in blocking waits shows busy ==
  // num_threads with a growing queue; the continuation-passing pipeline
  // keeps busy low.
  std::size_t busy_threads() const {
    return busy_.load(std::memory_order_relaxed);
  }
  std::size_t peak_busy_threads() const {
    return peak_busy_.load(std::memory_order_relaxed);
  }
  std::size_t queue_depth() const;
  std::size_t peak_queue_depth() const {
    return peak_queue_.load(std::memory_order_relaxed);
  }
  void ResetPeakStats();

  // Attaches a histogram that receives each task's queue-wait time (due
  // time -> dequeue, in microseconds; `jdvs_pool_queue_wait_micros` in the
  // cluster). A delayed task's delay is not queue wait. The histogram must
  // outlive the pool. Pass nullptr to detach.
  void set_queue_wait_histogram(Histogram* histogram) {
    queue_wait_.store(histogram, std::memory_order_release);
  }

 private:
  struct Item {
    std::function<void()> fn;
    Micros due_micros = 0;
    std::uint64_t seq = 0;  // FIFO among equal due times
  };
  // std::push_heap comparator: the earliest (due, seq) at the front.
  static bool LaterDue(const Item& a, const Item& b) {
    return a.due_micros != b.due_micros ? a.due_micros > b.due_micros
                                        : a.seq > b.seq;
  }

  void WorkerLoop();
  // Blocks until a task is due (or, after Shutdown, any task is queued);
  // false once shut down and drained. Called with mu_ held via `lock`.
  bool NextTask(std::unique_lock<std::mutex>& lock, Item& out);
  static void UpdateMax(std::atomic<std::size_t>& peak, std::size_t value);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // a task is ready or due sooner
  std::condition_variable not_full_cv_;  // backlog dropped below capacity
  std::deque<Item> ready_;
  std::vector<Item> delayed_;  // min-heap on (due_micros, seq)
  std::uint64_t next_seq_ = 0;
  // The one idle worker doing the timed wait for delayed_.front(); the
  // others wait untimed, so a due time wakes one thread, not all of them.
  std::thread::id timer_waiter_;
  bool closed_ = false;

  std::vector<std::thread> threads_;
  std::string name_;
  std::atomic<std::size_t> busy_{0};
  std::atomic<std::size_t> peak_busy_{0};
  std::atomic<std::size_t> peak_queue_{0};
  std::atomic<Histogram*> queue_wait_{nullptr};
};

}  // namespace jdvs
